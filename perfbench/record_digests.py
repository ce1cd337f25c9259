"""Record the expected output digest of every op, for a range of seeds.

    python3 perfbench/record_digests.py 0 63 [workload ...]

Runs the ops of every workload, or of the named ones, once, in this
process, through the worker's own op runner, and merges the digests into ``expected_digests.json`` as one
string per (workload, seed): the 8-hex-digit digests in op order.  Run it
only on a commit whose outputs are known good; ``run.py`` then fails
every op whose output differs.
"""

from __future__ import annotations

import json
import shutil
import sys

from bench_worker import run_op
from bench_workloads import WORKLOADS, digest, op_problem, request
from run import DIGESTS, OUT, SRC


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    names = sys.argv[3:] or list(WORKLOADS)
    sys.path.insert(0, str(SRC))
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    inputs = OUT / "record"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        for seed in range(first, last + 1):
            for name in names:
                workload = WORKLOADS[name](seed)
                paths = {}
                for graph, text in workload.graphs.items():
                    paths[graph] = inputs / f"{graph}.rot"
                    paths[graph].write_text(text, encoding="utf-8")
                digests = []
                for op in workload.ops:
                    reply = run_op(request(op, str(paths[op.graph])), None)
                    problem = op_problem(op, reply)
                    if problem:
                        raise SystemExit(f"{name} seed {seed} {op.graph} {op.command}: {problem}")
                    digests.append(digest(reply["out"]))
                table.setdefault(name, {})[str(seed)] = "".join(digests)
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
