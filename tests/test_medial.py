"""Medial strand tracing and the space spanned by the trace vectors."""

from __future__ import annotations

import pytest

from bicolorgame import gf2
from bicolorgame.fixtures import load_fixture
from bicolorgame.homology import strand_basis
from bicolorgame.medial import trace_medial

SQUARE_HANDLES_TRACE = [
    "11001100",
    "00111100",
    "01100011",
    "10010011",
]


def test_component_counts(torus_grid, two_triangles, square_handles):
    assert trace_medial(torus_grid).count == 3
    assert trace_medial(two_triangles).count == 3
    assert trace_medial(square_handles).count == 4


def test_square_handles_exact_trace_matrix(square_handles):
    mc = trace_medial(square_handles)
    assert list(mc.trace_matrix().row_strings()) == SQUARE_HANDLES_TRACE


def test_strand_space_dimensions(torus_grid, square_handles):
    assert strand_basis(square_handles).nrows == 3
    assert strand_basis(torus_grid).nrows == 2


def test_single_edge_strand():
    g = load_fixture("sphere_edge")
    mc = trace_medial(g)
    assert mc.count == 1
    assert strand_basis(g).nrows == 0
    # the one strand crosses the one edge twice
    assert mc.crossings == (2,)
    assert mc.trace_vectors == (0,)


def test_edgeless_graph_flagged():
    mc = trace_medial(load_fixture("single_vertex"))
    assert mc.count == 0
    assert mc.trace_vectors == ()


def test_small_fixture_counts():
    assert trace_medial(load_fixture("sphere_loop")).count == 1
    assert trace_medial(load_fixture("sphere_digon")).count == 2
    assert trace_medial(load_fixture("sphere_triangle")).count == 1
    assert trace_medial(load_fixture("torus_rose")).count == 2


def _assert_strand_lemma(g):
    mc = trace_medial(g)
    total = 0
    for v in mc.trace_vectors:
        total ^= v
    assert total == 0
    assert mc.crossings == (2,) * g.edge_count
    # the only vanishing combination is the full sum: rank c-1 plus sum zero
    assert gf2.rank(mc.trace_matrix()) == mc.count - 1
    assert strand_basis(g).nrows == mc.count - 1
    cycles = gf2.kernel_basis(g.incidence_matrix)
    dual_cycles = gf2.kernel_basis(g.dual_incidence_matrix)
    for v in mc.trace_vectors:
        assert gf2.in_row_space(cycles, v)
        assert gf2.in_row_space(dual_cycles, v)


def test_strand_lemma_fixtures(torus_grid, square_handles, two_triangles, torus_rose):
    for g in (torus_grid, square_handles, two_triangles, torus_rose):
        _assert_strand_lemma(g)


def test_strand_lemma_random(random_batch):
    for g in random_batch[:80]:
        if g.edge_count:
            _assert_strand_lemma(g)


def test_no_proper_subset_vanishes_exhaustively(square_handles):
    mc = trace_medial(square_handles)
    for mask in range(1, (1 << mc.count) - 1):
        acc = 0
        for i in range(mc.count):
            if (mask >> i) & 1:
                acc ^= mc.trace_vectors[i]
        assert acc != 0


def test_genus_zero_strands_span_bicycles(planar_batch):
    from bicolorgame import spaces

    for g in planar_batch:
        if g.edge_count == 0:
            continue
        assert gf2.row_space_equal(strand_basis(g), spaces.bicycle_space(g))
