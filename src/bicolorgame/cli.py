"""Command-line interface: parse a rotation-system file, run one query.

``main`` is the one path: it loads the graph, calls the command's
handler ``handler(g, args) -> (doc, lines, rc)`` and emits the result.
Handlers neither read files nor print.

Exit codes: 0 success, 1 invariant/assertion failure, 2 parse or
validation error, 3 unsupported operation, 4 enumeration cap exceeded.
All numeric flags are exact ASCII: naturals are 1 to 18 digits, as in the
file format, and rationals are written ``p/q`` or ``p``.  A rejected value
is echoed in at most 40 characters.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Any, Iterable, Iterator

from . import brt, gf2, homology, oracle, spaces
from .embedded import EmbeddedGraph, format_rotation_system, parse_rotation_system
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

# [0-9], not \d or int(): those also take the digits of other scripts
_NATURAL = re.compile(r"[0-9]{1,18}")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")

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
    mc = trace_medial(g)
    rows = mc.trace_matrix().row_strings()
    doc = {"command": "medial", "components": mc.count, "trace_vectors": rows}
    lines = [f"components {mc.count}"] + [f"strand {i}: {s}" for i, s in enumerate(rows)]
    if mc.count == 0:
        lines.append("(edgeless graph: no strands)")
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
    lines = [
        "tree edges      " + " ".join(map(str, tc.tree_edges)),
        "co-tree edges   " + " ".join(map(str, tc.cotree_edges)),
        "leftover edges  " + " ".join(map(str, tc.leftover_edges)),
    ]
    for i, s in enumerate(cycle_rows):
        lines.append(f"cycle {i}: {s}")
    for i, s in enumerate(image_rows):
        lines.append(f"strand image {i}: {s}")
    lines.append(f"kernel dim b    {b}")
    lines.append(f"class count     {count} = 2^(2*{g.genus} + {b})")
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
    rows, rank = matrix.row_strings(), gf2.rank(matrix)
    doc = {"command": "bot", "rows": rows, "rank": rank}
    lines = rows + [f"rank {rank}"]
    return doc, lines, 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicolorgame",
        description="Count and characterize edge bicoloring classes of embedded graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, needs_path: bool = True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_path:
            p.add_argument("path", help="rotation-system file ('-' for stdin)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler, path=None)
        return p

    def add_cap(p: argparse.ArgumentParser, ceiling: int) -> None:
        # the enumerators allocate per subset or per coloring, so --cap
        # may only lower the default, never raise it
        p.add_argument("--cap", type=natural, choices=range(ceiling + 1), default=ceiling,
                       metavar="N", help=f"enumeration edge cap, 0..{ceiling}")

    add("info", cmd_info, help="counts, genus and space dimensions")
    add("dual", cmd_dual, help="emit the dual graph in the same format")

    p = add("count", cmd_count, help="equivalence class count")
    p.add_argument("--method", choices=("direct", "homology", "oracle", "all"), default="all")
    add_cap(p, oracle.DEFAULT_EDGE_CAP)

    add("medial", cmd_medial, help="strand count and trace vectors")

    p = add("brt", cmd_brt, help="ribbon polynomial, optionally evaluated")
    p.add_argument("--eval", nargs=3, type=rational, metavar=("X", "Y", "Z"))
    add_cap(p, brt.DEFAULT_EDGE_CAP)

    p = add("tutte", cmd_tutte, help="Tutte polynomial value")
    p.add_argument("--eval", nargs=2, type=rational, metavar=("X", "Y"), required=True)
    add_cap(p, brt.DEFAULT_EDGE_CAP)

    p = add("homology", cmd_homology, help="tree/co-tree data and the 2^(2g+b) count")
    p.add_argument("--tree", type=edge_list, default=None, metavar="E1,E2,...",
                   help="edge indices of a spanning tree to use")

    add("reps", cmd_reps, help="canonical class representatives (plane graphs)")

    p = add("signature", cmd_signature, help="complete class invariant of a coloring")
    p.add_argument("--coloring", required=True, metavar="BITS")

    p = add("same-class", cmd_same_class, help="decide equivalence of two colorings")
    p.add_argument("--a", required=True, metavar="BITS")
    p.add_argument("--b", required=True, metavar="BITS")

    p = add("bot", cmd_bot, help="stacked incidence matrices with one row deleted each")
    p.add_argument("--vertex", type=natural, default=None)
    p.add_argument("--face", type=natural, default=None)

    p = add("oracle", cmd_oracle, help="brute-force orbit census")
    add_cap(p, oracle.DEFAULT_EDGE_CAP)
    p.add_argument("--reps", action="store_true", help="print one coloring per class")

    p = add("selftest", cmd_selftest, needs_path=False,
            help="run the invariant suite on the built-in fixtures")
    p.add_argument("--verbose", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    raise SystemExit(main())
