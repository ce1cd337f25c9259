"""Canonical representatives for plane graphs."""

from __future__ import annotations

import pytest
from conftest import digon_chain

from bicolorgame import gf2, spaces
from bicolorgame.errors import UnsupportedError
from bicolorgame.fixtures import load_fixture
from bicolorgame.homology import strand_basis
from bicolorgame.oracle import enumerate_classes
from bicolorgame.representatives import (
    RepresentativeSet,
    planar_representatives,
    verify_representatives,
)


def test_two_triangles_representatives(two_triangles):
    rs = planar_representatives(two_triangles)
    assert len(rs.edges) == 2
    assert len(list(rs.colorings())) == 4
    assert verify_representatives(two_triangles, rs)


def test_colorings_sum_the_edges_selected_by_the_index_bits():
    rs = RepresentativeSet(12, (1, 4, 5, 9, 11))
    want = [
        sum(1 << e for i, e in enumerate(rs.edges) if s >> i & 1)
        for s in range(1 << len(rs.edges))
    ]
    assert list(rs.colorings()) == want
    assert list(RepresentativeSet(3, ()).colorings()) == [0]


def test_tree_representatives():
    g = load_fixture("sphere_path")
    rs = planar_representatives(g)
    assert rs.edges == ()
    assert list(rs.colorings()) == [0]
    assert verify_representatives(g, rs)


def test_positive_genus_rejected(torus_grid):
    with pytest.raises(UnsupportedError):
        planar_representatives(torus_grid)


def test_digon_chain_representatives_verify_beyond_the_sweep_cap():
    g = digon_chain(4)
    assert spaces.class_count_direct(g) == 16
    rs = planar_representatives(g)
    assert len(list(rs.colorings())) == 16 and verify_representatives(g, rs)
    # 2^23 and 2^40 classes: verified by one rank, never listed
    for k in (23, 40):
        g = digon_chain(k)
        rs = planar_representatives(g)
        assert len(rs.edges) == k and verify_representatives(g, rs)


def _verified_by_listing(g, rs) -> bool:
    """The reference verification: list all the colorings and require one
    class signature per class."""
    colorings = list(rs.colorings())
    count = spaces.class_count_direct(g)
    basis = spaces.signature_basis(g)
    return len(colorings) == count == len({spaces.class_signature(basis, w) for w in colorings})


def test_rank_verification_matches_the_listing(planar_batch):
    graphs = planar_batch + [digon_chain(k) for k in range(1, 13)]
    for g in graphs:
        rs = planar_representatives(g)
        assert verify_representatives(g, rs) and _verified_by_listing(g, rs)
        # dropping a pivot or adding an edge changes the cardinality
        for mutant in (rs.edges[1:], rs.edges + (0,)) if rs.edges else ((0,),):
            mutated = RepresentativeSet(g.edge_count, mutant)
            assert not verify_representatives(g, mutated)
            assert not _verified_by_listing(g, mutated)


def test_wrong_cardinality_fails_verification(two_triangles):
    empty = RepresentativeSet(two_triangles.edge_count, ())
    assert not verify_representatives(two_triangles, empty)
    extra = RepresentativeSet(two_triangles.edge_count, (0, 6, 7))
    assert not verify_representatives(two_triangles, extra)


@pytest.mark.parametrize(
    "edges, why",
    [
        ((0, 0), "pivot 0 repeated"),
        ((1, 6), "edge 1 has signature zero"),
        ((0, 5), "edge 5 has signature zero"),
        ((0, 8), "edge 8 is out of range"),
        ((-1, 6), "edge -1 is out of range"),
    ],
)
def test_mutated_pivots_fail_verification(two_triangles, edges, why):
    g = two_triangles
    assert planar_representatives(g).edges == (0, 6)
    rs = RepresentativeSet(g.edge_count, edges)
    assert not verify_representatives(g, rs), why
    if all(0 <= e < g.edge_count for e in edges):
        assert not _verified_by_listing(g, rs), why


def test_witness_property(two_triangles):
    # each reduced strand vector has a 1 at its own pivot edge and 0 at
    # the other pivots, and the pivots' characteristic vectors stay
    # outside the move space
    rs = planar_representatives(two_triangles)
    reduced, pivots = gf2.rref(strand_basis(two_triangles))
    assert pivots == rs.edges
    for i, p in enumerate(pivots):
        for k, row in enumerate(reduced.rows):
            assert ((row >> p) & 1) == (1 if k == i else 0)
    moves = spaces.moves_matrix(two_triangles)
    for w in list(rs.colorings())[1:]:
        assert not gf2.in_row_space(moves, w)


def test_matches_oracle_partition(two_triangles):
    rs = planar_representatives(two_triangles)
    census = enumerate_classes(two_triangles)
    # one representative per oracle class, none shared
    classes = set()
    for w in rs.colorings():
        matches = [r for r in census.representatives() if spaces.same_class(two_triangles, w, r)]
        assert len(matches) == 1
        classes.add(matches[0])
    assert classes == set(census.representatives())


def test_random_planar_batch(planar_batch):
    for g in planar_batch[:25]:
        rs = planar_representatives(g)
        assert len(list(rs.colorings())) == spaces.class_count_direct(g)
        assert verify_representatives(g, rs)


def test_random_planar_against_oracle(planar_batch):
    checked = 0
    for g in planar_batch:
        if g.edge_count > 10 or checked >= 10:
            continue
        checked += 1
        rs = planar_representatives(g)
        census = enumerate_classes(g)
        mins = {min(w ^ s for s in _move_span(g)) for w in rs.colorings()}
        assert mins == set(census.representatives())
    assert checked > 0


def _move_span(g):
    span = {0}
    for row in g.incidence_matrix.rows + g.dual_incidence_matrix.rows:
        span |= {s ^ row for s in span}
    return span
