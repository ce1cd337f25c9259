"""Ribbon polynomial enumeration, exact evaluation, and the rank oracle."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

import bicolorgame.brt as brt_module
from bicolorgame.brt import (
    TrivariatePolynomial,
    brt_by_sweep,
    brt_polynomial,
    medial_component_count_via_brt,
    tutte_eval,
    whitney_rank_polynomial,
)
from bicolorgame.cli import main
from bicolorgame.embedded import EmbeddedGraph
from bicolorgame.errors import EdgeCapError
from bicolorgame.fixtures import fixture_names, fixture_text, load_fixture
from bicolorgame.medial import trace_medial

# frozen coefficient tables for the two torus fixtures
TORUS_GRID_BRT = {
    (3, 0, 0): 1, (2, 1, 0): 4, (2, 0, 0): 9, (1, 2, 0): 6, (1, 1, 0): 36,
    (1, 0, 0): 32, (0, 4, 0): 2, (0, 3, 0): 16, (0, 2, 0): 60, (0, 1, 0): 112,
    (0, 0, 0): 48, (1, 3, 1): 2, (1, 2, 1): 8, (0, 6, 1): 1, (0, 5, 1): 9,
    (0, 4, 1): 34, (0, 3, 1): 68, (0, 2, 1): 64,
}
SQUARE_HANDLES_BRT = {
    (5, 0, 0): 1, (4, 0, 0): 8, (3, 0, 0): 28, (2, 1, 0): 5, (2, 0, 0): 56,
    (1, 2, 0): 2, (1, 1, 0): 20, (1, 0, 0): 65, (0, 3, 1): 1, (0, 2, 1): 4,
    (0, 2, 0): 4, (0, 1, 0): 26, (0, 0, 0): 36,
}


def test_torus_grid_polynomial(torus_grid):
    p = brt_polynomial(torus_grid)
    assert dict(p.coeffs) == TORUS_GRID_BRT


def test_square_handles_polynomial(square_handles):
    p = brt_polynomial(square_handles)
    assert dict(p.coeffs) == SQUARE_HANDLES_BRT


def test_fixture_point_evaluations(torus_grid, square_handles):
    point = (Fraction(-2), Fraction(-2), Fraction(1, 4))
    assert brt_polynomial(torus_grid).evaluate(*point) == -4
    assert brt_polynomial(square_handles).evaluate(*point) == -8


def test_single_bridge():
    g = load_fixture("sphere_edge")
    p = brt_polynomial(g)
    assert dict(p.coeffs) == {(1, 0, 0): 1, (0, 0, 0): 1}  # x + 1
    assert tutte_eval(g, -1, -1) == -1
    assert tutte_eval(g, 2, 2) == 2


def test_single_loop():
    g = load_fixture("sphere_loop")
    assert tutte_eval(g, 2, 2) == 2  # T = y


def test_rose_by_hand_enumeration(torus_rose):
    # four subsets: {} -> 1, each single loop -> y (planar), both -> y^2 z
    p = brt_polynomial(torus_rose)
    assert dict(p.coeffs) == {(0, 0, 0): 1, (0, 1, 0): 2, (0, 2, 1): 1}
    assert medial_component_count_via_brt(torus_rose) == 2


def test_constant_term_and_eval_zero(torus_grid):
    p = brt_polynomial(torus_grid)
    assert p.evaluate(Fraction(0), Fraction(0), Fraction(0)) == p.coeffs[(0, 0, 0)] == 48


def test_component_counts_via_polynomial(torus_grid, square_handles, two_triangles):
    assert medial_component_count_via_brt(torus_grid) == 3
    assert medial_component_count_via_brt(square_handles) == 4
    assert medial_component_count_via_brt(two_triangles) == 3


def test_two_triangles_tutte(two_triangles):
    assert abs(tutte_eval(two_triangles, -1, -1)) == 4


def test_exponent_ranges(torus_grid, square_handles):
    for g in (torus_grid, square_handles):
        p = brt_polynomial(g)
        for (a, b, c) in p.coeffs:
            assert a >= 0 and b >= 0
            assert 0 <= c <= g.genus
        assert sum(p.coeffs.values()) == 2**g.edge_count


def test_edge_cap(monkeypatch, torus_grid, tmp_path, capsys):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the cap")

    # the cap is tested before any subset is enumerated, on every route
    monkeypatch.setattr(EmbeddedGraph, "subset_counter", no_enumeration)
    monkeypatch.setattr(brt_module, "_subset_census", no_enumeration)
    message = "9 edges exceeds the enumeration cap 8"
    for enumerate_subsets in (brt_polynomial, brt_by_sweep, whitney_rank_polynomial):
        with pytest.raises(EdgeCapError, match=message):
            enumerate_subsets(torus_grid, edge_cap=8)
    path = tmp_path / "torus_grid.rot"
    path.write_text(fixture_text("torus_grid"), encoding="utf-8")
    capsys.readouterr()
    for argv in (["brt", "--cap", "8"], ["tutte", "--eval", "1", "1", "--cap", "8"]):
        assert main([*argv, str(path)]) == 4
        assert capsys.readouterr().err == f"cap exceeded: {message}\n"
    monkeypatch.undo()
    assert dict(brt_polynomial(torus_grid, edge_cap=9).coeffs) == TORUS_GRID_BRT
    want = TrivariatePolynomial(TORUS_GRID_BRT).specialize_z_one()
    assert whitney_rank_polynomial(torus_grid, edge_cap=9) == want


# hand-built degenerate rotation systems: (rotations, edge darts)
DEGENERATE = {
    "one vertex, no edges": ([[]], []),
    "three nested loops": ([[0, 1, 2, 3, 4, 5]], [(0, 5), (1, 4), (2, 3)]),
    "three interleaved loops": ([[0, 1, 2, 3, 4, 5]], [(0, 3), (1, 4), (2, 5)]),
    "three parallel edges": ([[0, 2, 4], [5, 1, 3]], [(0, 1), (2, 3), (4, 5)]),
    "path": ([[0], [1, 2], [3, 4], [5]], [(0, 1), (2, 3), (4, 5)]),
    "bridge between two loops": ([[90, 7, 1000], [3, 41, 12]], [(7, 90), (1000, 3), (12, 41)]),
}


def test_z_one_specialization_matches_rank_oracle(random_batch, planar_batch):
    # the depth-first BRT must equal the per-mask sweep in all three
    # variables, and the rank polynomial must equal the sweep at z = 1
    degenerate = [EmbeddedGraph(rot, darts) for rot, darts in DEGENERATE.values()]
    fixtures = [load_fixture(name) for name in fixture_names()]
    for g in [*fixtures, *degenerate, *random_batch, *planar_batch]:
        swept = brt_by_sweep(g)
        assert brt_polynomial(g) == swept
        assert whitney_rank_polynomial(g) == swept.specialize_z_one()


def test_degenerate_polynomials():
    def coeffs(name):
        return dict(brt_polynomial(EmbeddedGraph(*DEGENERATE[name])).coeffs)

    assert coeffs("one vertex, no edges") == {(0, 0, 0): 1}
    # three nested loops are planar: (1 + y)^3
    assert coeffs("three nested loops") == {(0, 0, 0): 1, (0, 1, 0): 3, (0, 2, 0): 3, (0, 3, 0): 1}
    # any two interleaved loops form a torus: 1 + 3y + 3y^2 z + y^3 z
    assert coeffs("three interleaved loops") == {
        (0, 0, 0): 1, (0, 1, 0): 3, (0, 2, 1): 3, (0, 3, 1): 1,
    }
    assert coeffs("path") == {(3, 0, 0): 1, (2, 0, 0): 3, (1, 0, 0): 3, (0, 0, 0): 1}
    assert coeffs("bridge between two loops") == {
        (1, 0, 0): 1, (1, 1, 0): 2, (1, 2, 0): 1, (0, 0, 0): 1, (0, 1, 0): 2, (0, 2, 0): 1,
    }


def test_theorem_strand_count_random(random_batch):
    for g in random_batch[:60]:
        if g.edge_count == 0:
            continue
        assert medial_component_count_via_brt(g) == trace_medial(g).count


def test_planar_tutte_counts_bicycles(planar_batch):
    from bicolorgame import spaces

    for g in planar_batch[:30]:
        b = spaces.bicycle_space(g).nrows
        assert abs(tutte_eval(g, -1, -1)) == 1 << b


def test_tutte_routes_agree(torus_grid, random_batch):
    # tutte_eval enumerates the rank polynomial; the BRT polynomial at z = 1 is its check
    rng = Random(3)
    for g in [torus_grid, *random_batch[:60]]:
        brt = brt_polynomial(g)
        for _ in range(5):
            x = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            y = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            assert tutte_eval(g, x, y) == brt.evaluate(x - 1, y - 1, 1)


def test_tutte_traces_no_faces(monkeypatch, torus_grid, tmp_path, capsys):
    want = brt_polynomial(torus_grid).evaluate(Fraction(-2), Fraction(-2), Fraction(1))

    def no_face_tracing(self):
        raise AssertionError("tutte_eval traced sub-ribbon faces")

    monkeypatch.setattr(EmbeddedGraph, "subset_counter", no_face_tracing)
    assert tutte_eval(torus_grid, -1, -1) == want
    path = tmp_path / "torus_grid.rot"
    path.write_text(fixture_text("torus_grid"), encoding="utf-8")
    assert main(["tutte", "--eval", "-1", "-1", str(path)]) == 0
    assert capsys.readouterr().out == f"{want}\n"


def test_brt_traces_no_per_subset_faces(monkeypatch, torus_grid, tmp_path, capsys):
    def no_face_tracing(self):
        raise AssertionError("a subset's faces were re-traced")

    monkeypatch.setattr(EmbeddedGraph, "subset_counter", no_face_tracing)
    assert dict(brt_polynomial(torus_grid).coeffs) == TORUS_GRID_BRT
    assert medial_component_count_via_brt(torus_grid) == 3
    path = tmp_path / "torus_grid.rot"
    path.write_text(fixture_text("torus_grid"), encoding="utf-8")
    assert main(["brt", str(path), "--eval", "-2", "-2", "1/4"]) == 0
    assert capsys.readouterr().out == "-4\n"


def test_polynomial_string():
    p = TrivariatePolynomial({(1, 0, 0): 1, (0, 0, 0): 1})
    assert str(p) == "x + 1"
    q = TrivariatePolynomial({(0, 2, 1): 1, (0, 1, 0): 2, (0, 0, 0): 1})
    assert str(q) == "y^2 z + 2 y + 1"
    assert str(TrivariatePolynomial({})) == "0"
    assert str(TrivariatePolynomial({(0, 0, 0): -3, (2, 0, 0): 1})) == "x^2 - 3"


def test_rejects_negative_exponents():
    with pytest.raises(ValueError):
        TrivariatePolynomial({(-1, 0, 0): 1})
