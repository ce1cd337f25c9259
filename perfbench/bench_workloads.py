"""The benchmark's workloads: inputs, ops and the correctness gate.

An op is one CLI command on one graph (``linear-large``, ``enum-mid``) or
one ``selfcheck.run_all_checks`` on one graph (``crossval-small``).  A
round runs every op of the workload once, in a fixed order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

import bench_gen

GRID_N = 32  # torus grid: V = F = 1024, E = 2048
HIGH_GENUS = (500, 2500)  # (V, E) of the random high-genus system
ENUM_SIZES = ((8, 16, False), (9, 17, True), (8, 18, False))  # (V, E, plane)


@dataclass(frozen=True)
class Op:
    graph: str
    command: str  # per-command metric group, e.g. "count_direct"
    argv: tuple[str, ...] = ()  # CLI arguments; the file path follows the subcommand


@dataclass
class Workload:
    name: str
    graphs: dict[str, str]  # graph name -> rotation-system text
    ops: list[Op]
    fresh_process: bool  # one worker process per op, as a real CLI call
    facts: dict[str, dict] = field(default_factory=dict)  # known by construction
    # ops run once before timing, whose outputs the checks compare against
    references: list[Op] = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def _bits(w: int, edges: int) -> str:
    return "".join("1" if (w >> j) & 1 else "0" for j in range(edges))


def _vertex_move_sum(rng: Random, text: str) -> int:
    """Sum of the incidence rows of a random vertex subset (loops excluded)."""
    from bicolorgame.embedded import parse_rotation_system

    w = 0
    for row in parse_rotation_system(text).incidence_matrix.rows:
        if rng.random() < 0.5:
            w ^= row
    return w


def linear_large(seed: int) -> Workload:
    rng = Random(f"linear-large/{seed}")
    graphs = {
        "grid": bench_gen.torus_grid(rng, GRID_N),
        "genus": bench_gen.random_system(rng, *HIGH_GENUS),
    }
    facts = {
        "grid": {"vertices": GRID_N**2, "edges": 2 * GRID_N**2, "faces": GRID_N**2, "genus": 1},
        "genus": {"vertices": HIGH_GENUS[0], "edges": HIGH_GENUS[1]},
    }
    ops = []
    for name, text in graphs.items():
        edges = facts[name]["edges"]
        w = rng.getrandbits(edges)
        same = w ^ _vertex_move_sum(rng, text)
        ops += [
            Op(name, "info", ("info",)),
            Op(name, "count_direct", ("count", "--method", "direct")),
            Op(name, "count_homology", ("count", "--method", "homology")),
            Op(name, "homology", ("homology",)),
            Op(name, "medial", ("medial",)),
            Op(name, "signature", ("signature", "--coloring", _bits(w, edges))),
            Op(name, "same_class", ("same-class", "--a", _bits(w, edges), "--b", _bits(same, edges))),
        ]
    return Workload("linear-large", graphs, ops, fresh_process=True, facts=facts)


def enum_mid(seed: int) -> Workload:
    rng = Random(f"enum-mid/{seed}")
    graphs, facts = {}, {}
    for vertices, edges, plane in ENUM_SIZES:
        name = f"e{edges}" + ("-plane" if plane else "")
        make = bench_gen.plane_system if plane else bench_gen.random_system
        graphs[name] = make(rng, vertices, edges)
        facts[name] = {"vertices": vertices, "edges": edges}
        if plane:
            facts[name]["genus"] = 0
    ops = []
    references = []
    for name in graphs:
        ops += [
            Op(name, "brt", ("brt", "--eval", "-2", "-2", "1/4")),
            Op(name, "tutte", ("tutte", "--eval", "-1", "-1")),
            Op(name, "count_all", ("count", "--method", "all")),
        ]
        references += [Op(name, "info", ("info",)), Op(name, "medial", ("medial",))]
    return Workload("enum-mid", graphs, ops, fresh_process=True, facts=facts,
                    references=references)


def crossval_small(seed: int) -> Workload:
    rng = Random(f"crossval-small/{seed}")
    graphs = dict(bench_gen.crossval_batch(rng))
    ops = [Op(name, "checks") for name in graphs]
    return Workload("crossval-small", graphs, ops, fresh_process=False)


WORKLOADS = {"linear-large": linear_large, "enum-mid": enum_mid, "crossval-small": crossval_small}


# -- correctness gate ------------------------------------------------------------


def request(op: Op, path: str) -> dict:
    if op.command == "checks":
        return {"checks": path}
    return {"cli": [op.argv[0], path, "--json", *op.argv[1:]]}


def op_problem(op: Op, reply: dict) -> str | None:
    """Why a single op's reply is wrong on its own, or None."""
    if reply.get("error"):
        return reply["error"]
    if reply["rc"] != 0:
        return f"exit code {reply['rc']}: {reply['err'].strip()[:200]}"
    if reply["err"]:
        return f"unexpected stderr: {reply['err'].strip()[:200]}"
    try:
        doc = json.loads(reply["out"])
    except ValueError:
        return "output is not JSON"
    if op.command == "checks":
        bad = [name for name, ok, _ in doc if not ok]
        return f"failed checks: {', '.join(bad)}" if bad else None
    if doc.get("command") != op.argv[0]:
        return f"output is for command {doc.get('command')!r}"
    return None


def _short(count: str) -> str:
    n = int(count)
    return f"2^{n.bit_length() - 1}" if n > 0 and not n & (n - 1) else count[:20]


def _class_exponent(count: str) -> int:
    n = int(count)
    if n <= 0 or n & (n - 1):
        raise ValueError(f"class count {count} is not a power of two")
    return n.bit_length() - 1


def cross_route_problems(workload: Workload, docs: dict[tuple[str, str], dict]) -> dict:
    """Relations between ops' outputs that must hold; (graph, command) -> problem.

    ``docs`` maps (graph, command) to the parsed output of every op and
    reference that passed :func:`op_problem`.  Every op taking part in a
    broken relation is reported.
    """
    problems: dict[tuple[str, str], str] = {}

    def require(ok: bool, keys, message: str) -> None:
        if not ok:
            for key in keys:
                problems.setdefault(key, message)

    for graph, facts in workload.facts.items():
        try:
            _check_graph(graph, facts, docs, require)
        except (KeyError, TypeError, ValueError) as exc:  # malformed output
            for key in docs:
                if key[0] == graph:
                    problems.setdefault(key, f"malformed output: {type(exc).__name__}: {exc}")
    return problems


def _check_graph(graph: str, facts: dict, docs: dict, require) -> None:
    info = docs.get((graph, "info"))
    if info is None:
        return
    for name, value in facts.items():
        require(info[name] == value, [(graph, "info")], f"info {name} {info[name]} != {value}")
    for command, field_name in (("count_direct", "direct"), ("count_homology", "homology"),
                                ("homology", "class_count"), ("count_all", "direct"),
                                ("count_all", "homology"), ("count_all", "oracle")):
        doc = docs.get((graph, command))
        if doc is not None:
            require(doc[field_name] == info["class_count"], [(graph, "info"), (graph, command)],
                    f"{command} {field_name} count {_short(doc[field_name])}"
                    f" != info {_short(info['class_count'])}")
    exponent = _class_exponent(info["class_count"])
    require(exponent == info["class_exponent"], [(graph, "info")], "class_exponent mismatch")

    all_doc = docs.get((graph, "count_all"))
    if all_doc is not None:
        require(all_doc.get("agreement") == "ok", [(graph, "count_all")], "routes disagree")
    hom = docs.get((graph, "homology"))
    if hom is not None:
        require(len(hom["leftover_edges"]) == 2 * info["genus"], [(graph, "homology")],
                "leftover edges != 2g")
    medial = docs.get((graph, "medial"))
    if medial is not None:
        total = 0
        for row in medial["trace_vectors"]:
            total ^= int(row[::-1], 2)
        require(total == 0 and len(medial["trace_vectors"]) == medial["components"],
                [(graph, "medial")], "strand trace vectors do not sum to zero")
    sig = docs.get((graph, "signature"))
    if sig is not None:
        require(sig["length"] == exponent == len(sig["signature"]), [(graph, "signature")],
                f"signature length {sig['length']} != class exponent {exponent}")
    same = docs.get((graph, "same_class"))
    if same is not None:
        require(same["same"] is True, [(graph, "same_class")],
                "colorings one vertex-move sum apart reported in different classes")
    brt = docs.get((graph, "brt"))
    if brt is not None and medial is not None:
        # |BRT(-2, -2, 1/4)| = 2^(c - 1), c the medial strand count
        want = 1 << (medial["components"] - 1)
        require(abs(Fraction(brt["value"])) == want, [(graph, "brt")],
                f"|BRT(-2,-2,1/4)| = {brt['value']} != 2^(c-1) = {want}")
    tutte = docs.get((graph, "tutte"))
    if tutte is not None:
        # |T(-1, -1)| = 2^(bicycle dimension)
        want = 1 << info["bicycle_dim"]
        require(abs(Fraction(tutte["value"])) == want, [(graph, "tutte")],
                f"|T(-1,-1)| = {tutte['value']} != 2^bicycle_dim = {want}")
