"""Canonical representatives for plane graphs."""

from __future__ import annotations

import pytest
from conftest import digon_chain

from bicolorgame import gf2, spaces
from bicolorgame.errors import EdgeCapError, UnsupportedError
from bicolorgame.fixtures import load_fixture
from bicolorgame.medial import strand_space, trace_medial
from bicolorgame.oracle import enumerate_classes
from bicolorgame.representatives import (
    RepresentativeSet,
    planar_representatives,
    verify_representatives,
)


def test_two_triangles_representatives(two_triangles):
    rs = planar_representatives(two_triangles)
    assert len(rs.edges) == 2
    assert len(rs.colorings) == 4
    assert verify_representatives(two_triangles, rs)


def test_tree_representatives():
    g = load_fixture("sphere_path")
    rs = planar_representatives(g)
    assert rs.edges == ()
    assert rs.colorings == (0,)
    assert verify_representatives(g, rs)


def test_positive_genus_rejected(torus_grid):
    with pytest.raises(UnsupportedError):
        planar_representatives(torus_grid)


def test_digon_chain_colorings_stop_at_the_sweep_cap():
    g = digon_chain(4)
    assert spaces.class_count_direct(g) == 16
    rs = planar_representatives(g)
    assert len(rs.colorings) == 16 and verify_representatives(g, rs)
    with pytest.raises(EdgeCapError, match="2\\^23 colorings"):
        planar_representatives(digon_chain(23))


def test_wrong_cardinality_fails_verification(two_triangles):
    empty = RepresentativeSet(two_triangles.edge_count, (), (0,))
    assert not verify_representatives(two_triangles, empty)


def test_witness_property(two_triangles):
    # each reduced strand vector has a 1 at its own pivot edge and 0 at
    # the other pivots, and the pivots' characteristic vectors stay
    # outside the move space
    rs = planar_representatives(two_triangles)
    reduced, pivots = gf2.rref(strand_space(trace_medial(two_triangles)))
    assert pivots == rs.edges
    for i, p in enumerate(pivots):
        for k, row in enumerate(reduced.rows):
            assert ((row >> p) & 1) == (1 if k == i else 0)
    moves = spaces.moves_matrix(two_triangles)
    for w in rs.colorings[1:]:
        assert not gf2.in_row_space(moves, w)


def test_matches_oracle_partition(two_triangles):
    rs = planar_representatives(two_triangles)
    census = enumerate_classes(two_triangles)
    # one representative per oracle class, none shared
    classes = set()
    for w in rs.colorings:
        matches = [r for r in census.representatives if spaces.same_class(two_triangles, w, r)]
        assert len(matches) == 1
        classes.add(matches[0])
    assert classes == set(census.representatives)


def test_random_planar_batch(planar_batch):
    for g in planar_batch[:25]:
        rs = planar_representatives(g)
        assert len(rs.colorings) == spaces.class_count_direct(g)
        assert verify_representatives(g, rs)


def test_random_planar_against_oracle(planar_batch):
    checked = 0
    for g in planar_batch:
        if g.edge_count > 10 or checked >= 10:
            continue
        checked += 1
        rs = planar_representatives(g)
        census = enumerate_classes(g)
        mins = {min(w ^ s for s in _move_span(g)) for w in rs.colorings}
        assert mins == set(census.representatives)
    assert checked > 0


def _move_span(g):
    span = {0}
    for row in g.incidence_matrix.rows + g.dual_incidence_matrix.rows:
        span |= {s ^ row for s in span}
    return span
