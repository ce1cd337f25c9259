"""Command-line interface: parse a rotation-system file, run one query.

The 13 commands are declared once, in ``COMMANDS``: name, handler, help
and the specs of their arguments, from which ``build_parser`` adds every
subparser or just one.  ``main`` parses an argv led by a command name
with a top parser holding only that command's subparser; any other argv,
and any argparse error on that path, falls back to the full parser,
which parses again and prints the usage, help or error itself, so every
text and exit code is the full parser's and nothing is printed twice.
``main`` then loads the graph, calls the command's handler
``handler(g, args) -> (doc, lines, rc)`` and emits the result.
Handlers neither read files nor print.  A handler computes and checks
everything before it returns; a listing that grows with the graph comes
back as a generator that only formats, and ``_emit`` writes it row by row.

Exit codes: 0 success, 1 invariant/assertion failure, 2 parse or
validation error, 3 unsupported operation, 4 enumeration cap exceeded,
5 out of memory.
All numeric flags are exact ASCII: naturals are 1 to 18 digits, as in the
file format, and rationals are written ``p/q`` or ``p``.  A rejected value
is echoed in at most 40 characters, and any other argument error is cut
at 300.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, NoReturn

from . import brt, gf2, homology, oracle, spaces
from .embedded import _NATURAL, EmbeddedGraph, format_rotation_system, parse_rotation_system
from .errors import (
    EdgeCapError,
    InternalInvariantError,
    InvalidGraphError,
    UnsupportedError,
)
from .fixtures import fixture_names, load_fixture
from .medial import trace_medial
from .representatives import planar_representatives, verify_representatives
from .selfcheck import failed_checks, run_all_checks
from .spaces import exact_decimal

# [0-9] for the reason given at embedded._NATURAL, which naturals here use
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")

# the negative-number pattern of every _Parser, compiled once (see there)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

# compact, sorted JSON; one encoder serves every value
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# (JSON document, text lines, exit code)
Result = tuple[dict[str, Any], Iterable[str], int]


def _parsed(pattern: re.Pattern[str], convert: type, text: str, expected: str) -> Any:
    try:
        if pattern.fullmatch(text):
            return convert(text)
    except ValueError:  # a rational beyond the digit limit of int()
        pass
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text[:40]!r}")


def natural(text: str) -> int:
    return _parsed(_NATURAL, int, text, "a non-negative integer of at most 18 digits")


def rational(text: str) -> Fraction:
    return _parsed(_RATIONAL, Fraction, text, "an integer or p/q fraction")


def edge_list(text: str) -> tuple[int, ...]:
    return tuple(natural(t.strip()) for t in text.split(",") if t.strip())


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _coloring(g: EmbeddedGraph, bits: str) -> int:
    try:
        return spaces.coloring_from_string(g, bits)
    except ValueError as exc:
        raise InvalidGraphError(str(exc)) from None


def _emit(args: argparse.Namespace, document: dict[str, Any], lines: Iterable[str]) -> None:
    """Print the lines, or the document as one line of compact sorted JSON.

    A document field holding an iterator is written item by item, so a
    long listing is never built in memory; the bytes are those of
    ``_dumps(document)`` with the iterator as a list.
    """
    if not args.json:
        for line in lines:
            print(line)
        return
    write = sys.stdout.write
    write("{")
    for n, key in enumerate(sorted(document)):
        write(("," if n else "") + _dumps(key) + ":")
        value = document[key]
        if isinstance(value, Iterator):
            write("[")
            for i, item in enumerate(value):
                write(("," if i else "") + _dumps(item))
            write("]")
        else:
            write(_dumps(value))
    write("}\n")


# -- command handlers ---------------------------------------------------------


def cmd_info(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    s = spaces.summarize(g)
    count = exact_decimal(s.class_count)
    fields = [  # JSON key, text label (None: JSON only), value
        ("vertices", "vertices", s.vertex_count),
        ("edges", "edges", s.edge_count),
        ("faces", "faces", s.face_count),
        ("genus", "genus", s.genus),
        ("dim_cocycle", "dim U (cuts)", s.dim_cocycle),
        ("dim_dual_cocycle", "dim U* (dual cuts)", s.dim_dual_cocycle),
        ("dim_cycle", "dim cycle space", s.dim_cycle),
        ("dim_sum", "dim (U + U*)", s.dim_sum),
        ("dim_intersection", "dim (U cap U*)", s.dim_intersection),
        ("bicycle_dim", "bicycle dimension", s.bicycle_dim),
        ("class_exponent", None, s.class_exponent),
        ("class_count", "class count", count),
    ]
    doc = {"command": "info", **{key: value for key, _, value in fields}}
    lines = [f"{label:20}{value}" for _, label, value in fields if label]
    lines[-1] += f" = 2^{s.class_exponent}"
    return doc, lines, 0


def cmd_dual(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    d = g.dual()
    text = format_rotation_system(d, header="dual rotation system")
    doc = {
        "command": "dual",
        "rotations": [list(rot) for rot in d.rotations],
        "edge_darts": [list(pair) for pair in d.edge_darts],
        "text": text,
    }
    return doc, [text.rstrip("\n")], 0


def cmd_count(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    counts: dict[str, int] = {}
    if args.method in ("direct", "all"):
        counts["direct"] = spaces.class_count_direct(g)
    if args.method in ("homology", "all"):
        counts["homology"] = homology.class_count_homology(g)
    if args.method in ("oracle", "all"):
        counts["oracle"] = oracle.enumerate_classes(g, edge_cap=args.cap).class_count
    doc = {"command": "count", "method": args.method}
    doc.update({k: exact_decimal(v) for k, v in counts.items()})
    lines = [f"{k:9s} {doc[k]}" for k in counts]
    if args.method == "all":
        if len(set(counts.values())) != 1:
            doc["agreement"] = "FAIL"
            return doc, lines + ["routes disagree"], 1
        doc["agreement"] = "ok"
        lines.append("agreement ok")
    return doc, lines, 0


def cmd_medial(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    mc = g.derived(trace_medial)
    # streamed by _emit from the document or the lines, whichever it writes
    rows = mc.trace_matrix().row_strings()
    doc = {"command": "medial", "components": mc.count, "trace_vectors": rows}
    lines = chain(
        [f"components {mc.count}"],
        (f"strand {i}: {s}" for i, s in enumerate(rows)),
        [] if mc.count else ["(edgeless graph: no strands)"],
    )
    return doc, lines, 0


def cmd_brt(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    p = brt.brt_polynomial(g, edge_cap=args.cap)
    doc: dict[str, Any] = {"command": "brt", "polynomial": str(p)}
    lines = [str(p)]
    if args.eval is not None:
        x, y, z = args.eval
        value = p.evaluate(x, y, z)
        doc["eval_point"] = [exact_decimal(x), exact_decimal(y), exact_decimal(z)]
        doc["value"] = exact_decimal(value)
        lines = [doc["value"]]
    return doc, lines, 0


def cmd_tutte(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    x, y = args.eval
    value = brt.tutte_eval(g, x, y, edge_cap=args.cap)
    doc = {
        "command": "tutte",
        "eval_point": [exact_decimal(x), exact_decimal(y)],
        "value": exact_decimal(value),
    }
    return doc, [doc["value"]], 0


def cmd_homology(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    try:
        tc = homology.tree_cotree(g, tree_edges=args.tree)
    except ValueError as exc:
        raise InvalidGraphError(str(exc)) from None
    cycles = homology.fundamental_dual_cycles(g, tc)
    basis, images = homology.strand_image_matrix(g, cycles)
    b = gf2.cancelling(basis, images).nrows
    count = exact_decimal(1 << (2 * g.genus + b))
    # streamed by _emit from the document or the lines, whichever it writes
    cycle_rows, image_rows = cycles.row_strings(), images.row_strings()
    doc = {
        "command": "homology",
        "tree_edges": list(tc.tree_edges),
        "cotree_edges": list(tc.cotree_edges),
        "leftover_edges": list(tc.leftover_edges),
        "fundamental_cycles": cycle_rows,
        "strand_images": image_rows,
        "kernel_dim": b,
        "genus": g.genus,
        "class_count": count,
    }
    lines = chain(
        [
            "tree edges      " + " ".join(map(str, tc.tree_edges)),
            "co-tree edges   " + " ".join(map(str, tc.cotree_edges)),
            "leftover edges  " + " ".join(map(str, tc.leftover_edges)),
        ],
        (f"cycle {i}: {s}" for i, s in enumerate(cycle_rows)),
        (f"strand image {i}: {s}" for i, s in enumerate(image_rows)),
        [f"kernel dim b    {b}", f"class count     {count} = 2^(2*{g.genus} + {b})"],
    )
    return doc, lines, 0


def cmd_reps(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    rs = planar_representatives(g)
    b, cap = len(rs.edges), oracle.DEFAULT_EDGE_CAP
    if b > cap:
        raise EdgeCapError(f"{b} representative edges give 2^{b} colorings; the cap is 2^{cap}")
    ok = verify_representatives(g, rs)
    # streamed by _emit from the document or the lines, whichever it writes
    strings = (spaces.coloring_to_string(g, w) for w in rs.colorings())
    doc = {"command": "reps", "edges": list(rs.edges), "verified": ok, "colorings": strings}
    verdict = "verified" if ok else "verification FAILED"
    lines = chain(["edges " + " ".join(map(str, rs.edges))], strings, [verdict])
    return doc, lines, 0 if ok else 1


def cmd_signature(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    w = _coloring(g, args.coloring)
    basis = spaces.signature_basis(g)
    sig = spaces.class_signature(basis, w)
    text = gf2.vector_to_string(sig, basis.nrows)
    doc = {"command": "signature", "signature": text, "length": basis.nrows}
    return doc, [text], 0


def cmd_same_class(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    w1 = _coloring(g, args.a)
    w2 = _coloring(g, args.b)
    same = spaces.same_class(g, w1, w2)
    doc = {"command": "same-class", "same": same}
    return doc, ["true" if same else "false"], 0


def cmd_bot(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    try:
        matrix = spaces.bot_matrix(g, args.vertex, args.face)
    except (IndexError, ValueError) as exc:
        raise InvalidGraphError(str(exc)) from None
    # streamed by _emit from the document or the lines, whichever it writes
    rows, rank = matrix.row_strings(), gf2.rank(matrix)
    doc = {"command": "bot", "rows": rows, "rank": rank}
    return doc, chain(rows, [f"rank {rank}"]), 0


def cmd_oracle(g: EmbeddedGraph, args: argparse.Namespace) -> Result:
    census = oracle.enumerate_classes(g, edge_cap=args.cap)
    doc = {
        "command": "oracle",
        "class_count": exact_decimal(census.class_count),
        "orbit_size": exact_decimal(census.orbit_size),
    }
    lines: Iterable[str] = [f"classes    {doc['class_count']}", f"orbit size {doc['orbit_size']}"]
    if args.reps:
        # streamed by _emit from the document or the lines, whichever it writes
        strings = (spaces.coloring_to_string(g, w) for w in census.representatives())
        doc["representatives"] = strings
        lines = chain(lines, strings)
    return doc, lines, 0


def cmd_selftest(g: None, args: argparse.Namespace) -> Result:
    failures = 0
    report: list[str] = []
    doc_fixtures = {}
    for name in fixture_names():
        g = load_fixture(name)
        results = run_all_checks(g)
        bad = failed_checks(results)
        failures += len(bad)
        status = "ok" if not bad else "FAIL"
        report.append(f"{name}: {status}")
        doc_fixtures[name] = status
        for r in results:
            if args.verbose or not r.ok:
                mark = "pass" if r.ok else "FAIL"
                detail = f" ({r.detail})" if r.detail else ""
                report.append(f"  {r.name}: {mark}{detail}")
    report.append("selftest " + ("ok" if failures == 0 else f"FAILED ({failures} checks)"))
    doc = {"command": "selftest", "fixtures": doc_fixtures, "failures": failures}
    return doc, report, 0 if failures == 0 else 1


# -- wiring -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse echoes a rejected choice or an unrecognized argument whole;
    this parser, and the subparsers it makes, cut the message short."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes an argument for a negative number, not an option,
        # when it matches this private pattern, whose value
        # r'^-\d+$|^-\d*\.\d+$' is the same in Python 3.10 to 3.13; it
        # gains -p/q here so that --eval takes a negative fraction
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> NoReturn:
        super().error(message if len(message) <= 300 else message[:300] + "...")


class _Rejected(Exception):
    """A trial parse failed; the full parser parses again and reports."""


class _TrialParser(_Parser):
    """Raises instead of printing, so that a rejection prints only the
    full parser's message; its subparsers, built as ``type(self)``, too."""

    def error(self, message: str) -> NoReturn:
        raise _Rejected


# (flags, keywords) of one add_argument call
Argument = tuple[tuple[str, ...], dict[str, Any]]


def _arg(*flags: str, **kwargs: Any) -> Argument:
    return flags, kwargs


def _cap(ceiling: int) -> Argument:
    # the enumerators allocate per subset or per coloring, so --cap
    # may only lower the default, never raise it
    return _arg("--cap", type=natural, choices=range(ceiling + 1), default=ceiling,
                metavar="N", help=f"enumeration edge cap, 0..{ceiling}")


_JSON = _arg("--json", action="store_true", help="machine-readable output")
_FILE = (_arg("path", help="rotation-system file ('-' for stdin)"), _JSON)

# name, handler, help, and the arguments in the order they are added
COMMANDS: tuple[tuple[str, Callable[..., Result], str, tuple[Argument, ...]], ...] = (
    ("info", cmd_info, "counts, genus and space dimensions", _FILE),
    ("dual", cmd_dual, "emit the dual graph in the same format", _FILE),
    ("count", cmd_count, "equivalence class count", (
        *_FILE,
        _arg("--method", choices=("direct", "homology", "oracle", "all"), default="all"),
        _cap(oracle.DEFAULT_EDGE_CAP),
    )),
    ("medial", cmd_medial, "strand count and trace vectors", _FILE),
    ("brt", cmd_brt, "ribbon polynomial, optionally evaluated", (
        *_FILE,
        _arg("--eval", nargs=3, type=rational, metavar=("X", "Y", "Z")),
        _cap(brt.DEFAULT_EDGE_CAP),
    )),
    ("tutte", cmd_tutte, "Tutte polynomial value", (
        *_FILE,
        _arg("--eval", nargs=2, type=rational, metavar=("X", "Y"), required=True),
        _cap(brt.DEFAULT_EDGE_CAP),
    )),
    ("homology", cmd_homology, "tree/co-tree data and the 2^(2g+b) count", (
        *_FILE,
        _arg("--tree", type=edge_list, default=None, metavar="E1,E2,...",
             help="edge indices of a spanning tree to use"),
    )),
    ("reps", cmd_reps, "canonical class representatives (plane graphs)", _FILE),
    ("signature", cmd_signature, "complete class invariant of a coloring",
     (*_FILE, _arg("--coloring", required=True, metavar="BITS"))),
    ("same-class", cmd_same_class, "decide equivalence of two colorings", (
        *_FILE,
        _arg("--a", required=True, metavar="BITS"),
        _arg("--b", required=True, metavar="BITS"),
    )),
    ("bot", cmd_bot, "stacked incidence matrices with one row deleted each", (
        *_FILE,
        _arg("--vertex", type=natural, default=None),
        _arg("--face", type=natural, default=None),
    )),
    ("oracle", cmd_oracle, "brute-force orbit census", (
        *_FILE,
        _cap(oracle.DEFAULT_EDGE_CAP),
        _arg("--reps", action="store_true", help="print one coloring per class"),
    )),
    ("selftest", cmd_selftest, "run the invariant suite on the built-in fixtures",
     (_JSON, _arg("--verbose", action="store_true"))),
)


def build_parser(only: str | None = None, parser_class: type[_Parser] = _Parser) -> _Parser:
    """The parser of every command, or of the one command named ``only``."""
    parser = parser_class(
        prog="bicolorgame",
        description="Count and characterize edge bicoloring classes of embedded graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary, arguments in COMMANDS:
        if only in (None, name):
            p = sub.add_parser(name, help=summary)
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(handler=handler, path=None)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv led by a command name with that command's parser alone.

    A subparser's prog and messages do not depend on the other commands,
    so its ``-h`` prints on this path; any other argv, and every error
    (the top parser's usage lists all commands), goes to the full parser,
    which parses again and prints exactly what it always printed.
    """
    if argv and any(argv[0] == name for name, *_ in COMMANDS):
        try:
            return build_parser(argv[0], _TrialParser).parse_args(argv)
        except _Rejected:
            pass
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        g = None if args.path is None else parse_rotation_system(_read(args.path))
        doc, lines, rc = args.handler(g, args)
        _emit(args, doc, lines)
        return rc
    except (InvalidGraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except EdgeCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4
    except InternalInvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("out of memory: the graph is too large for the memory this process may use",
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
