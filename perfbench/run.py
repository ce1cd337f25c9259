"""bicolorgame benchmark: seeded workloads through the public CLI, every output checked.

    python3 perfbench/run.py --workload linear-large --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src`` there.
One client sends one op at a time and waits for it (closed loop).  A
round runs every op of the workload once; rounds repeat until
``--seconds`` would be exceeded, and there is always at least one.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every
op twice in each round, untraced and then in a worker that wraps the
program's public functions from outside (``bench_trace``), and reports
the per-layer metrics.  Human-readable tables come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from bench_trace import layer_times, self_times
from bench_workloads import WORKLOADS, cross_route_problems, digest, op_problem, request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "expected_digests.json"
SETUP_PROBES = 5  # extra worker start-ups per run, so setup_s has a median

# wall_ref is one round's time with each op's time in units of the
# reference loop run around it in the same worker
# (bench_worker.reference_loop_s): the round's cost with the host's
# drifting speed taken out.  wall_s, the same round in seconds, moves
# with the host and is printed only.
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}
# Per-layer metrics in the final JSON line, the same for every workload.
# Counts and ratios are exact, so they are listed even where they are 0.
# A layer time that is exactly 0 on some workload is not a measurement
# there, so the layer times of cli (no CLI in crossval-small), brt, oracle,
# representatives and selfcheck (not run on linear-large) are in the
# printed table and the trace file only.
PER_LAYER = {
    "cli.out_bytes": "bytes",
    "embedded.parse_s": "s", "embedded.derive_s": "s", "embedded.dual_calls": "count",
    "gf2.self_s": "s", "gf2.eliminations": "count", "gf2.rows_in": "count",
    "gf2.row_reuse_ratio": "ratio", "gf2.repeat_ratio": "ratio",
    "spaces.self_s": "s", "spaces.moves_cache_hit_ratio": "ratio",
    "medial.self_s": "s", "medial.calls": "count", "medial.strands": "count",
    "homology.tree_cotree_s": "s", "homology.cycles_s": "s", "homology.image_s": "s",
    "brt.calls": "count", "brt.subsets": "count", "oracle.colorings": "count",
    "trace.overhead_ratio": "ratio",
}
ALWAYS_PRINTED = (
    "cli.self_s", "brt.self_s", "oracle.self_s", "representatives.self_s", "selfcheck.self_s",
)


class Worker:
    """One worker process; its start-up time, to the ready line, is a setup sample."""

    def __init__(self, trace: bool) -> None:
        start = time.perf_counter()
        argv = [sys.executable, str(HERE / "bench_worker.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            ready = self.proc.stdout.readline()
            if ready.strip() != '{"ready": true}':
                raise RuntimeError(f"worker did not start: {ready.strip()[:200]!r}")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def call(self, request: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:  # the worker died: a failed op
            return {"rc": self.proc.wait(), "out": "", "err": "", "elapsed": 0.0, "reference_s": None,
                    "maxrss_kb": 0, "error": "worker process died", "spans": [], "counts": {}}
        return json.loads(line)

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_round(workload, paths: dict[str, str], modes: tuple[bool, ...],
              setups: list[float]) -> dict[bool, list[dict]]:
    """Run every op once in each tracing mode; replies in op order, per mode.

    With both modes, an op's untraced and traced runs are back to back, so
    a change in the host's speed hits both alike.
    """
    replies: dict[bool, list[dict]] = {mode: [] for mode in modes}
    if workload.fresh_process:
        for op in workload.ops:
            for trace in modes:
                with Worker(trace) as worker:
                    if not trace:
                        setups.append(worker.setup_s)
                    replies[trace].append(worker.call(request(op, paths[op.graph])))
        return replies
    workers: dict[bool, Worker] = {}
    try:
        for trace in modes:
            workers[trace] = Worker(trace)
            if not trace:
                setups.append(workers[trace].setup_s)
        for op in workload.ops:
            for trace in modes:
                if workers[trace].proc.poll() is not None:  # the last op killed it
                    workers.pop(trace).close()
                    workers[trace] = Worker(trace)
                replies[trace].append(workers[trace].call(request(op, paths[op.graph])))
    finally:
        for worker in workers.values():
            worker.close()
    return replies


def op_times(rounds: list[list[dict]], relative: bool = False) -> list[float]:
    """Each op's median time over the rounds; relative: in reference-loop units."""
    def value(reply: dict) -> float:
        if not relative:
            return reply["elapsed"]
        # a worker that died has no reference time; its op counts as 0, as in wall_s
        return reply["elapsed"] / reply["reference_s"] if reply["reference_s"] else 0.0
    return [statistics.median(value(replies[i]) for replies in rounds) for i in range(len(rounds[0]))]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Gate:
    """Checks every op's output; an op fails on any problem, once per attempt."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: Counter[str] = Counter()
        self.first_digest: list[str | None] = [None] * len(workload.ops)
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        recorded = table.get(workload.name, {}).get(str(seed))
        self.expected = None
        self.digest_checked = 0
        if recorded is not None:
            self.expected = [recorded[i:i + 8] for i in range(0, len(recorded), 8)]
            if len(self.expected) != len(workload.ops):
                raise SystemExit("expected_digests.json does not match the workload's ops")
        self.reference_docs: dict = {}
        self.reference_problems: dict[str, str] = {}  # graph -> problem

    def check_references(self, replies: list[dict]) -> None:
        """Keep the outputs the checks compare against; a bad one fails its graph's ops."""
        for op, reply in zip(self.workload.references, replies):
            problem = op_problem(op, reply)
            if problem:
                self.reference_problems[op.graph] = f"reference {op.command} failed: {problem}"
            else:
                self.reference_docs[(op.graph, op.command)] = json.loads(reply["out"])

    def check_round(self, replies: list[dict]) -> None:
        ops = self.workload.ops
        problems: dict[int, str] = {}
        docs = dict(self.reference_docs)
        for i, (op, reply) in enumerate(zip(ops, replies)):
            problem = self.reference_problems.get(op.graph) or op_problem(op, reply)
            d = digest(reply["out"])
            if problem is None and self.expected is not None:
                self.digest_checked += 1
                if d != self.expected[i]:
                    problem = f"output digest {d} != seed-commit digest {self.expected[i]}"
            if problem is None and self.first_digest[i] not in (None, d):
                problem = "output differs from this op's first output in the run"
            if self.first_digest[i] is None:
                self.first_digest[i] = d
            if problem:
                problems[i] = problem
            else:
                docs[(op.graph, op.command)] = json.loads(reply["out"])
        cross = cross_route_problems(self.workload, docs)
        for i, op in enumerate(ops):
            if (op.graph, op.command) in cross:
                problems.setdefault(i, cross[(op.graph, op.command)])
        self.attempted += len(ops)
        self.failed += len(problems)
        for i, problem in problems.items():
            self.problems[f"{ops[i].graph} {ops[i].command}: {problem}"] += 1


def layer_totals(workload, replies: list[dict]) -> dict[str, float]:
    """Per-layer times and counts of one traced round."""
    out: Counter[str] = Counter()
    for op, reply in zip(workload.ops, replies):
        out.update(layer_times(reply["spans"]))
        _, total = self_times(reply["spans"])
        for key, seconds in total.items():
            module, _, name = key.partition(".")
            if module == "selfcheck" and name.startswith("check_"):
                out[f"selfcheck.{name[len('check_'):]}_s"] += seconds
        out.update(reply["counts"])
        if op.argv:  # a CLI op: what it printed
            out["cli.out_bytes"] += len(reply["out"].encode())
    return dict(out)


def per_layer_metrics(rounds: list[dict[str, float]], overhead: float) -> dict[str, float]:
    keys = set().union(*rounds)
    med = {k: statistics.median(r.get(k, 0) for r in rounds) for k in keys}
    for name in PER_LAYER:
        med.setdefault(name, 0)
    med["gf2.row_reuse_ratio"] = med["gf2.rows_in"] / med["gf2.distinct_rows"] if med.get("gf2.distinct_rows") else 0.0
    med["gf2.repeat_ratio"] = med.get("gf2.repeats", 0) / med["gf2.eliminations"] if med["gf2.eliminations"] else 0.0
    lookups = med.get("spaces.moves_hits", 0) + med.get("spaces.moves_misses", 0)
    med["spaces.moves_cache_hit_ratio"] = med.get("spaces.moves_hits", 0) / lookups if lookups else 0.0
    med["trace.overhead_ratio"] = overhead
    return med


def unit_of(name: str) -> str:
    if name in END_TO_END or name in PER_LAYER:
        return END_TO_END.get(name) or PER_LAYER[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, note in rows:
        print(f"  {name:38s} {value:>14.6g} {unit_of(name):6s} {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bicolorgame" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    gate = Gate(workload, args.seed)
    inputs = OUT / f"inputs-{args.workload}-{args.seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for name, text in workload.graphs.items():
            path = inputs / f"{name}.rot"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path.relative_to(ROOT))
        setups: list[float] = []
        for _ in range(SETUP_PROBES):
            with Worker(trace=False) as worker:
                setups.append(worker.setup_s)
        if workload.references:
            with Worker(trace=False) as worker:
                gate.check_references([worker.call(request(op, paths[op.graph]))
                                       for op in workload.references])

        modes = (False, True) if args.trace else (False,)
        rounds, started, longest = [], time.perf_counter(), 0.0
        while True:
            t0 = time.perf_counter()
            replies = run_round(workload, paths, modes, setups)
            longest = max(longest, time.perf_counter() - t0)
            for trace in modes:
                gate.check_round(replies[trace])
            rounds.append(replies)
            if time.perf_counter() - started + longest > args.seconds:
                break
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    plain = [replies[False] for replies in rounds]
    traced = [replies[True] for replies in rounds] if args.trace else []

    op_medians = op_times(plain)
    latencies = [r["elapsed"] for replies in plain for r in replies]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(op_medians),
        "wall_ref": sum(op_times(plain, relative=True)),
        "peak_rss_mb": max(r["maxrss_kb"] for replies in plain for r in replies) / 1024,
    }
    print(f"workload {workload.name}  seed {args.seed}  rounds {len(rounds)}"
          f"{' (each op untraced, then traced)' if traced else ''}  ops/round {len(workload.ops)}")
    rows = [
        ("setup_s", e2e["setup_s"], f"median of {len(setups)} worker start-ups"),
        ("wall_ref", e2e["wall_ref"], "as wall_s, each op's time over its reference-loop time"),
        ("wall_s", e2e["wall_s"], f"one round: each op's median of {len(plain)} summed"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "largest worker"),
    ]
    by_command: Counter[str] = Counter()
    for op, seconds in zip(workload.ops, op_medians):
        by_command[op.command] += seconds
    if "checks" in by_command:
        rows += [
            ("graph_p50_ms", 1e3 * statistics.median(latencies), f"{len(latencies)} samples"),
            ("graph_p95_ms", 1e3 * percentile(latencies, 0.95), f"{len(latencies)} samples"),
        ]
    else:
        rows += [(f"{command}_s", seconds, "one round: its ops' medians summed")
                 for command, seconds in by_command.items()]
    rows.append(("fail_ratio", gate.failed / gate.attempted,
                 f"{gate.failed} failed of {gate.attempted} attempted"))
    print_table("end-to-end (tracing off)", rows)
    print(f"  seed-commit digests: {gate.digest_checked} op outputs compared"
          + ("" if gate.expected else f" (seed {args.seed} not in {DIGESTS.name})"))
    for problem, n in sorted(gate.problems.items()):
        print(f"  FAILED x{n}: {problem}")

    metrics = {name: e2e[name] for name in END_TO_END}
    if traced:
        layer_rounds = [layer_totals(workload, replies) for replies in traced]
        overhead = sum(op_times(traced, relative=True)) / e2e["wall_ref"]
        layers = per_layer_metrics(layer_rounds, overhead)
        from bicolorgame.selfcheck import ALL_CHECKS

        checks = [f"selfcheck.{c.__name__[len('check_'):]}_s" for c in ALL_CHECKS]
        shown = sorted({*PER_LAYER, *ALWAYS_PRINTED, *checks})
        print_table(f"per layer (traced, median of {len(traced)} rounds, per round)",
                    [(k, layers.get(k, 0), "check, children included" if k in checks else "")
                     for k in shown])
        trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json.gz"
        with gzip.open(trace_file, "wt", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "span_fields": ["id", "parent", "key", "start_s", "end_s"],
                       "rounds": [[{"op": [op.graph, op.command], "spans": reply["spans"]}
                                   for op, reply in zip(workload.ops, replies)]
                                  for replies in traced]}, fh)
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
        metrics = {name: layers[name] for name in PER_LAYER}
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
