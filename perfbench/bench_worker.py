"""Benchmark worker: runs ops of the program under test, one at a time.

Started by ``run.py`` as ``python3 perfbench/bench_worker.py [--trace]``.
It imports the package from the checkout's ``src``, says it is ready, then
reads one JSON request per line on stdin and answers each with one JSON
line on stdout:

- ``{"cli": [argv...]}`` runs ``bicolorgame.cli.main(argv)`` with stdout
  and stderr captured;
- ``{"checks": path}`` parses the file and runs
  ``selfcheck.run_all_checks`` on it.

The reply holds the exit code, the output, the time the op took, the
median time of the reference loop run around it, the process's peak RSS
and, with ``--trace``, the op's spans and counts.
It exits when stdin closes.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_ITERATIONS = 20_000  # 2.5-3.5 ms on the Xeon host of NOTES.md
# After an op, the reference loop runs for this share of the op's time (at
# least once), so a long op gets a probe of the speed it ran at.
REFERENCE_SHARE = 0.02


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: a probe of the host's current speed.

    On a shared host the speed of a core drifts by a quarter or more over
    minutes; the program's ops and this loop slow down alike, so op time
    over loop time measured in the same process is steady.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_ITERATIONS):
        acc ^= i * 2654435761
        table[i & 255] = acc
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """This process's peak resident set size.

    Read from VmHWM, which starts afresh at exec; ``ru_maxrss`` would also
    count the benchmark process that forked the worker.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_op(request: dict, tracer) -> dict:
    from bicolorgame import cli, selfcheck, spaces
    from bicolorgame.embedded import parse_rotation_system

    out, err = io.StringIO(), io.StringIO()
    moves = tracer.originals["spaces.moves_matrix"] if tracer else spaces.moves_matrix
    cache_before = moves.cache_info()
    reference = [reference_loop_s()]
    if tracer:
        tracer.reset()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "cli" in request:
                rc = cli.main(request["cli"])
            else:
                with open(request["checks"], encoding="utf-8") as fh:
                    g = parse_rotation_system(fh.read())
                results = selfcheck.run_all_checks(g)
                print(json.dumps([[r.name, r.ok, r.detail] for r in results]))
                rc = 0
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed op: logged, reported, not fatal
        traceback.print_exc()
        rc, error = 1, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    probe_until = time.perf_counter() + REFERENCE_SHARE * elapsed
    reference.append(reference_loop_s())
    while time.perf_counter() < probe_until:
        reference.append(reference_loop_s())
    cache_after = moves.cache_info()
    reply = {
        "rc": rc,
        "out": out.getvalue(),
        "err": err.getvalue(),
        "error": error,
        "elapsed": elapsed,
        "reference_s": statistics.median(reference),
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer:
        counts = tracer.op_counts()
        counts["spaces.moves_hits"] = cache_after.hits - cache_before.hits
        counts["spaces.moves_misses"] = cache_after.misses - cache_before.misses
        reply["counts"] = counts
        reply["spans"] = tracer.spans
    return reply


def main() -> int:
    channel = sys.stdout
    sys.path.insert(0, str(SRC))
    import bicolorgame.cli  # noqa: F401  (the import is part of set-up)

    if Path(bicolorgame.cli.__file__).resolve().parent.parent != SRC:
        print(f"bicolorgame imported from {bicolorgame.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if "--trace" in sys.argv[1:]:
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
    channel.write('{"ready": true}\n')
    channel.flush()
    try:
        for line in sys.stdin:
            channel.write(json.dumps(run_op(json.loads(line), tracer)) + "\n")
            channel.flush()
    finally:
        if tracer:
            tracer.restore()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
