"""Ribbon polynomial enumeration, exact evaluation, and the rank oracle."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from bicolorgame.brt import (
    TrivariatePolynomial,
    brt_polynomial,
    medial_component_count_via_brt,
    tutte_by_rank_oracle,
    tutte_eval,
    whitney_rank_polynomial,
)
from bicolorgame.errors import EdgeCapError
from bicolorgame.fixtures import load_fixture
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
    assert tutte_by_rank_oracle(g, 2, 2) == 2


def test_single_loop():
    g = load_fixture("sphere_loop")
    assert tutte_eval(g, 2, 2) == 2  # T = y
    assert tutte_by_rank_oracle(g, 2, 2) == 2


def test_rose_by_hand_enumeration(torus_rose):
    # four subsets: {} -> 1, each single loop -> y (planar), both -> y^2 z
    p = brt_polynomial(torus_rose)
    assert dict(p.coeffs) == {(0, 0, 0): 1, (0, 1, 0): 2, (0, 2, 1): 1}
    assert medial_component_count_via_brt(torus_rose) == 2


def test_constant_term_and_eval_zero(torus_grid):
    p = brt_polynomial(torus_grid)
    assert p.evaluate(Fraction(0), Fraction(0), Fraction(0)) == p.coefficient(0, 0, 0) == 48


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
        assert p.total_coefficient_sum() == 2**g.edge_count


def test_edge_cap():
    g = load_fixture("torus_grid")
    with pytest.raises(EdgeCapError):
        brt_polynomial(g, edge_cap=8)
    with pytest.raises(EdgeCapError):
        whitney_rank_polynomial(g, edge_cap=8)


def test_z_one_specialization_matches_rank_oracle(random_batch):
    for g in random_batch[:60]:
        assert brt_polynomial(g).specialize_z_one() == whitney_rank_polynomial(g)


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


def test_tutte_routes_agree(torus_grid):
    rng = Random(3)
    for _ in range(5):
        x = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        y = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert tutte_eval(torus_grid, x, y) == tutte_by_rank_oracle(torus_grid, x, y)


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
