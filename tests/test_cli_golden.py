"""Golden CLI snapshot: stdout digest and exit code of every command.

Each command runs on every bundled fixture, with and without ``--json``,
and must reproduce the sha256 of its stdout and its exit code exactly as
recorded in ``cli_golden.json``.  Regenerate the snapshot deliberately
with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from bicolorgame.cli import main
from bicolorgame.fixtures import fixture_names, fixture_text, load_fixture

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _cases(root: Path) -> dict[str, list[str]]:
    """Case key -> argv; keys name the fixture, never the temporary path."""
    cases: dict[str, list[str]] = {}
    for name in fixture_names():
        path = root / f"{name}.rot"
        path.write_text(fixture_text(name), encoding="utf-8")
        e = load_fixture(name).edge_count
        zeros, alternating = "0" * e, ("10" * e)[:e]
        commands = [
            ["info"],
            ["dual"],
            ["count"],
            ["count", "--method", "direct"],
            ["medial"],
            ["brt"],
            ["brt", "--eval", "-2", "-2", "1/4"],
            ["tutte", "--eval", "-1", "-1"],
            ["homology"],
            ["reps"],
            ["signature", "--coloring", alternating],
            ["same-class", "--a", zeros, "--b", alternating],
            ["bot"],
            ["bot", "--vertex", "99"],
            ["oracle", "--reps"],
            ["oracle", "--cap", "3"],
        ]
        for argv in commands:
            for flags in ([], ["--json"]):
                cases[" ".join([*argv, *flags, name])] = [*argv, *flags, str(path)]
    for argv in (["selftest"], ["selftest", "--verbose"]):
        for flags in ([], ["--json"]):
            cases[" ".join([*argv, *flags])] = [*argv, *flags]
    return cases


def _snapshot(root: Path) -> dict[str, list]:
    out: dict[str, list] = {}
    for key, argv in _cases(root).items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        out[key] = [hashlib.sha256(stdout.getvalue().encode()).hexdigest(), rc]
    return out


def test_cli_output_matches_golden_snapshot(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _snapshot(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = _snapshot(Path(tmp))
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(snapshot.items()))
    GOLDEN.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    print(f"wrote {len(snapshot)} cases to {GOLDEN}")
