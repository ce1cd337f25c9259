"""Command-line surface: outputs, exit codes, JSON stability."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from bicolorgame.cli import main
from bicolorgame.fixtures import fixture_text


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
