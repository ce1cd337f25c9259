"""Command-line surface: outputs, exit codes, JSON stability."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import pytest
from conftest import digon_chain, interlaced_bouquet, long_decimal

from bicolorgame import brt, cli, homology
from bicolorgame.cli import main
from bicolorgame.embedded import format_rotation_system
from bicolorgame.fixtures import fixture_text, load_fixture


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    out = {}
    for name in ("torus_grid", "torus_square_handles", "plane_two_triangles"):
        p = root / f"{name}.rot"
        p.write_text(fixture_text(name), encoding="utf-8")
        out[name] = str(p)
    bad = root / "bad.rot"
    bad.write_text("nonsense\n", encoding="utf-8")
    out["bad"] = str(bad)
    return out


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_info(capsys, paths):
    code, out = run(capsys, "info", paths["torus_grid"])
    assert code == 0
    assert "class count         8 = 2^3" in out
    assert "genus               1" in out


def test_count_all_agreement(capsys, paths):
    code, out = run(capsys, "count", "--method", "all", paths["torus_grid"])
    assert code == 0
    assert out.count("8") >= 3
    assert "agreement ok" in out


def test_count_single_method(capsys, paths):
    code, out = run(capsys, "count", "--method", "homology", paths["plane_two_triangles"])
    assert code == 0
    assert "4" in out


def test_brt_eval(capsys, paths):
    code, out = run(capsys, "brt", "--eval", "-2", "-2", "1/4", paths["torus_square_handles"])
    assert code == 0
    assert out.strip() == "-8"


def test_brt_polynomial_output(capsys, paths):
    code, out = run(capsys, "brt", paths["torus_square_handles"])
    assert code == 0
    assert out.strip().startswith("x^5 + 8 x^4 + 28 x^3")


def test_tutte(capsys, paths):
    code, out = run(capsys, "tutte", "--eval", "-1", "-1", paths["plane_two_triangles"])
    assert code == 0
    assert out.strip() == "4"


def test_medial(capsys, paths):
    code, out = run(capsys, "medial", paths["torus_square_handles"])
    assert code == 0
    assert "components 4" in out
    assert "11001100" in out


def test_homology_with_tree(capsys, paths):
    code, out = run(capsys, "homology", "--tree", "0,2,3,4,6", paths["torus_square_handles"])
    assert code == 0
    assert "cycle 0: 00000100" in out
    assert "cycle 1: 00000001" in out
    assert "kernel dim b    1" in out
    assert "8" in out


def test_homology_builds_each_stage_once(capsys, paths, monkeypatch):
    calls = Counter()

    def count_calls(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("tree_cotree", "fundamental_dual_cycles", "trace_medial"):
        count_calls(homology, name)
    count_calls(cli, "trace_medial")
    code, _ = run(capsys, "homology", "--tree", "0,2,3,4,6", paths["torus_square_handles"])
    assert code == 0
    assert calls == {"tree_cotree": 1, "fundamental_dual_cycles": 1, "trace_medial": 1}


def test_reps(capsys, paths):
    code, out = run(capsys, "reps", paths["plane_two_triangles"])
    assert code == 0
    assert "verified" in out


def test_reps_unsupported_genus(capsys, paths):
    code = main(["reps", paths["torus_grid"]])
    assert code == 3


def test_signature_and_same_class(capsys, paths):
    code, out = run(capsys, "same-class", "--a", "000000000", "--b", "000000000", paths["torus_grid"])
    assert code == 0 and out.strip() == "true"
    code, out = run(capsys, "same-class", "--a", "000000000", "--b", "110010101", paths["torus_grid"])
    assert code == 0 and out.strip() == "true"  # one vertex move apart
    code, out = run(capsys, "signature", "--coloring", "000000000", paths["torus_grid"])
    assert code == 0 and set(out.strip()) == {"0"}


def test_bot(capsys, paths):
    code, out = run(capsys, "bot", paths["torus_grid"])
    assert code == 0
    assert "rank 6" in out


def test_oracle_command(capsys, paths):
    code, out = run(capsys, "oracle", "--reps", paths["plane_two_triangles"])
    assert code == 0
    assert "classes    4" in out


def test_parse_error_exit_code(capsys, paths):
    assert main(["info", paths["bad"]]) == 2


def test_missing_file_exit_code(capsys):
    assert main(["info", "/nonexistent/file.rot"]) == 2


def test_cap_exit_code(capsys, paths):
    assert main(["brt", "--cap", "3", paths["torus_grid"]]) == 4
    assert main(["oracle", "--cap", "3", paths["torus_grid"]]) == 4
    capsys.readouterr()
    assert main(["tutte", "--eval", "1", "1", "--cap", "3", paths["torus_grid"]]) == 4
    assert capsys.readouterr().err == "cap exceeded: 9 edges exceeds the enumeration cap 3\n"
    assert main(["count", "--cap", "3", paths["torus_grid"]]) == 4


def test_rational_flag_validation(capsys, paths):
    with pytest.raises(SystemExit):
        main(["tutte", "--eval", "0.5", "1", paths["torus_grid"]])


def test_json_byte_stability(capsys, paths):
    code, out1 = run(capsys, "info", "--json", paths["torus_square_handles"])
    assert code == 0
    _, out2 = run(capsys, "info", "--json", paths["torus_square_handles"])
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["class_count"] == "8"
    assert doc["genus"] == 1


def test_counts_beyond_the_int_digit_limit_print_exactly(capsys, tmp_path):
    # 2^14400 has 4335 digits, past the 4300 that str(int) allows by default
    p = tmp_path / "bouquet.rot"
    p.write_text(format_rotation_system(interlaced_bouquet(7200)), encoding="utf-8")
    want = long_decimal(1 << 14400)
    assert len(want) == 4335
    code, out = run(capsys, "info", str(p))
    assert code == 0 and f"class count         {want} = 2^14400\n" in out
    code, out = run(capsys, "info", "--json", str(p))
    assert code == 0 and json.loads(out)["class_count"] == want
    code, out = run(capsys, "count", "--method", "direct", str(p))
    assert (code, out) == (0, f"direct    {want}\n")
    code, out = run(capsys, "count", "--method", "direct", "--json", str(p))
    assert code == 0 and json.loads(out)["direct"] == want


@pytest.mark.parametrize(
    "argv, point",
    [(["tutte", "--eval", "2", "9" * 1000], (2, "9" * 1000)),
     (["brt", "--eval", "9" * 1000, "9" * 1000, "1"], ("9" * 1000, "9" * 1000, 1))],
    ids=["tutte", "brt"],
)
def test_eval_values_beyond_the_int_digit_limit_print_exactly(capsys, paths, argv, point):
    g = load_fixture("torus_grid")
    point = tuple(Fraction(v) for v in point)
    if argv[0] == "tutte":
        value = brt.tutte_eval(g, *point)
    else:
        value = brt.brt_polynomial(g).evaluate(*point)
    want = long_decimal(value)
    assert len(want) > 4300
    code, out = run(capsys, *argv, paths["torus_grid"])
    assert (code, out) == (0, want + "\n")
    code, out = run(capsys, *argv, "--json", paths["torus_grid"])
    doc = json.loads(out)
    assert code == 0 and doc["value"] == want
    assert doc["eval_point"] == [long_decimal(v) for v in point]


def test_json_documents_parse(capsys, paths):
    for argv in (
        ["count", "--json", "--method", "all", paths["torus_grid"]],
        ["medial", "--json", paths["torus_square_handles"]],
        ["homology", "--json", paths["torus_grid"]],
        ["brt", "--json", paths["torus_grid"]],
        ["bot", "--json", paths["torus_grid"]],
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        json.loads(out)


def test_dual_roundtrip(capsys, paths, tmp_path):
    code, out = run(capsys, "dual", paths["torus_square_handles"])
    assert code == 0
    dual_file = tmp_path / "dual.rot"
    dual_file.write_text(out, encoding="utf-8")
    code, out2 = run(capsys, "info", str(dual_file))
    assert code == 0
    assert "vertices            2" in out2
    assert "genus               1" in out2


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest ok" in out


def test_selftest_verbose(capsys):
    assert main(["selftest", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "three-route-count: pass" in out


def test_homology_edgeless(capsys, tmp_path):
    p = tmp_path / "single.rot"
    p.write_text(fixture_text("single_vertex"), encoding="utf-8")
    code, out = run(capsys, "homology", str(p))
    assert code == 0
    assert "class count     1" in out


def test_stdin_input(paths):
    text = fixture_text("torus_grid")
    proc = subprocess.run(
        [sys.executable, "-m", "bicolorgame.cli", "count", "--method", "direct", "-"],
        input=text,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "8" in proc.stdout


def test_non_utf8_input_exit_code(capsys, tmp_path):
    p = tmp_path / "binary.rot"
    p.write_bytes(b"\xff")
    assert main(["info", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "text",
    [
        "vertices 1000000\nedges 0\n",
        "vertices 1\nv 0: " + " ".join(map(str, range(200_000))) + "\nedges 0\n",
    ],
    ids=["missing-vertex-lines", "unpaired-darts"],
)
def test_parse_error_message_is_bounded(capsys, tmp_path, text):
    p = tmp_path / "big.rot"
    p.write_text(text, encoding="utf-8")
    assert main(["info", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 1024


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661"])
def test_malformed_dart_exit_code(capsys, tmp_path, token):
    p = tmp_path / "dart.rot"
    p.write_text(f"vertices 1\nv 0: 0 1\nedges 1\ne 0: 0 {token}\n", encoding="utf-8")
    assert main(["info", str(p)]) == 2
    assert capsys.readouterr().err == "error: line 4: darts must be integers\n"


def test_huge_header_count_needs_no_memory(tmp_path):
    resource = pytest.importorskip("resource")
    p = tmp_path / "huge.rot"
    p.write_text("vertices 200000000\nedges 0\n", encoding="utf-8")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "bicolorgame.cli", "info", str(p)],
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr) < 1024


def test_reps_beyond_the_sweep_cap_needs_no_memory(tmp_path):
    # 23 digons: 2^23 classes, so the full list of representatives is refused
    resource = pytest.importorskip("resource")
    p = tmp_path / "digons.rot"
    p.write_text(format_rotation_system(digon_chain(23)), encoding="utf-8")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "bicolorgame.cli", "reps", str(p)],
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("cap exceeded: ") and len(proc.stderr) < 1024


def test_reps_streams_its_lines_in_bounded_memory(tmp_path):
    # 19 digons: 2^19 representatives, listed under a 96 MB address-space limit
    resource = pytest.importorskip("resource")
    p = tmp_path / "digons.rot"
    p.write_text(format_rotation_system(digon_chain(19)), encoding="utf-8")
    out = tmp_path / "reps.txt"

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (96 << 20, 96 << 20))

    with open(out, "w", encoding="utf-8") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "bicolorgame.cli", "reps", str(p)],
            stdout=fh, stderr=subprocess.PIPE, text=True, preexec_fn=limit_memory, timeout=120,
        )
    assert proc.returncode == 0, proc.stderr[-1024:]
    with open(out, encoding="utf-8") as fh:
        first = fh.readline()
        count, last = 1, first
        for last in fh:
            count += 1
    assert first == "edges " + " ".join(str(2 * i) for i in range(19)) + "\n"
    assert last == "verified\n"
    assert count == (1 << 19) + 2


def test_reps_json_streams_its_colorings_in_bounded_memory(tmp_path):
    # the --json twin of the test above: the document's colorings are the text lines
    resource = pytest.importorskip("resource")
    p = tmp_path / "digons.rot"
    p.write_text(format_rotation_system(digon_chain(19)), encoding="utf-8")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (96 << 20, 96 << 20))

    outputs = {}
    for mode in ("text", "json"):
        outputs[mode] = tmp_path / f"reps.{mode}"
        argv = ["reps", "--json", str(p)] if mode == "json" else ["reps", str(p)]
        with open(outputs[mode], "w", encoding="utf-8") as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "bicolorgame.cli", *argv],
                stdout=fh, stderr=subprocess.PIPE, text=True, preexec_fn=limit_memory,
                timeout=120,
            )
        assert proc.returncode == 0, proc.stderr[-1024:]
    with open(outputs["json"], encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["verified"] is True and doc["edges"] == [2 * i for i in range(19)]
    with open(outputs["text"], encoding="utf-8") as fh:
        next(fh)
        lines = (line.rstrip("\n") for line in fh)
        assert all(c == line for c, line in zip(doc["colorings"], lines))
        assert next(lines) == "verified"
    assert len(doc["colorings"]) == 1 << 19


def test_emit_streams_iterator_fields_as_json_lists():
    listed = {"b": ["x", "y"], "a": 1, "c": {"z": [1], "y": "\u00e9"}, "d": []}
    doc = dict(listed, b=iter(listed["b"]), d=iter(listed["d"]))
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(SimpleNamespace(json=True), doc, [])
    assert out.getvalue() == json.dumps(listed, sort_keys=True, separators=(",", ":")) + "\n"


def test_eighteen_digit_index_is_parsed_and_reported_briefly(capsys, paths):
    assert main(["bot", "--vertex", "9" * 18, paths["torus_square_handles"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 1024


@pytest.mark.parametrize(
    "argv, bad, good",
    [
        (["homology", "--tree", None], "0,\u0662,3,4,6", "0,2,3,4,6"),
        (["bot", "--vertex", None], "\u0661", "1"),
        (["bot", "--face", None], "\u0661", "1"),
        (["count", "--cap", None], "\u0662\u0662", "22"),
        (["tutte", "--eval", None, "1"], "\u0662", "2"),
        (["tutte", "--eval", None, "1"], "1\n", "1"),
        (["brt", "--eval", "1", "1", None], "1/\u0664", "1/4"),
        (["bot", "--vertex", None], "\u0661" * 100_000, "0"),
        # beyond 18 digits for naturals, beyond int()'s digit limit for rationals
        (["count", "--cap", None], "9" * 5000, "22"),
        (["count", "--cap", None], "9" * 4000, "22"),
        (["bot", "--vertex", None], "9" * 5000, "0"),
        (["bot", "--vertex", None], "9" * 4000, "0"),
        (["bot", "--face", None], "9" * 19, "0"),
        (["homology", "--tree", None], "0," + "9" * 5000, "0,2,3,4,6"),
        (["tutte", "--eval", None, "1"], "9" * 5000, "2"),
        (["brt", "--eval", "1", "1", None], "1/" + "9" * 5000, "1/4"),
    ],
    ids=["tree", "vertex", "face", "cap", "eval", "eval-newline", "eval-denominator", "long",
         "cap-5000", "cap-4000", "vertex-5000", "vertex-4000", "face-19", "tree-5000",
         "eval-5000", "eval-denominator-5000"],
)
def test_numeric_flags_take_ascii_digits_only(capsys, paths, argv, bad, good):
    def with_value(value):
        return [value if a is None else a for a in argv] + [paths["torus_square_handles"]]

    with pytest.raises(SystemExit) as exc:
        main(with_value(bad))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected" in err and len(err) < 1024 and "9" * 41 not in err
    assert main(with_value(good)) == 0


@pytest.mark.parametrize(
    "command, ceiling", [("count", 22), ("oracle", 22), ("brt", 26), ("tutte", 26)]
)
def test_cap_out_of_range(capsys, paths, command, ceiling):
    extra = ["--eval", "1", "1"] if command == "tutte" else []
    for cap in (-1, ceiling + 1):
        with pytest.raises(SystemExit) as exc:
            main([command, "--cap", str(cap), *extra, paths["torus_grid"]])
        assert exc.value.code == 2
    assert main([command, "--cap", str(ceiling), *extra, paths["torus_grid"]]) == 0
