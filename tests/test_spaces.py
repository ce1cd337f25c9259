"""Cut/cycle/bicycle spaces, the two moves, counts, signatures, BOT matrix."""

from __future__ import annotations

import gc
import weakref
from random import Random

import pytest

from bicolorgame import gf2, selfcheck, spaces
from bicolorgame.fixtures import load_fixture
from bicolorgame.gf2 import GF2Matrix


def test_space_dimensions(torus_grid, square_handles):
    assert gf2.rank(torus_grid.incidence_matrix) == 3
    assert spaces.cycle_space(torus_grid).nrows == 6
    assert gf2.rank(square_handles.incidence_matrix) == 5
    assert spaces.cycle_space(square_handles).nrows == 3


def test_tree_cycle_space_trivial():
    tree = load_fixture("sphere_path")
    assert spaces.cycle_space(tree).nrows == 0
    assert spaces.bicycle_space(tree).nrows == 0


def test_single_vertex_spaces():
    g = load_fixture("single_vertex")
    assert g.incidence_matrix.nrows == 1
    assert gf2.rank(g.incidence_matrix) == 0
    assert spaces.class_count_direct(g) == 1


def test_bicycle_space(two_triangles, torus_grid):
    assert spaces.bicycle_space(two_triangles).nrows == 2
    bike = spaces.bicycle_space(torus_grid)
    inter = gf2.row_space_intersection_basis(
        torus_grid.incidence_matrix, torus_grid.dual_incidence_matrix
    )
    assert bike.nrows >= 1
    for v in inter.rows:
        assert gf2.in_row_space(bike, v)


def test_vertex_move(torus_grid):
    w = spaces.apply_vertex_move(torus_grid, 0, 0)
    assert spaces.coloring_to_string(torus_grid, w) == "110010101"
    assert spaces.apply_vertex_move(torus_grid, w, 0) == 0
    with pytest.raises(IndexError):
        spaces.apply_vertex_move(torus_grid, 0, 9)


def test_vertex_move_loops_only(torus_rose):
    assert spaces.apply_vertex_move(torus_rose, 0b01, 0) == 0b01


def test_face_move(square_handles):
    w = spaces.apply_face_move(square_handles, 0, 0)
    assert spaces.coloring_to_string(square_handles, w) == "11110000"
    assert spaces.apply_face_move(square_handles, w, 0) == 0
    with pytest.raises(IndexError):
        spaces.apply_face_move(square_handles, 0, 2)


def test_face_move_bridge_unchanged():
    g = load_fixture("sphere_path")
    # both edges are bridges: the single face traverses them twice
    assert spaces.apply_face_move(g, 0b00, 0) == 0


def test_class_count_direct(torus_grid, square_handles):
    assert spaces.class_count_direct(torus_grid) == 8
    assert spaces.class_count_direct(square_handles) == 8


def test_same_class(torus_grid):
    assert spaces.same_class(torus_grid, 0b101, 0b101)
    row0 = torus_grid.incidence_matrix.rows[0]
    assert spaces.same_class(torus_grid, 0, row0)
    with pytest.raises(ValueError):
        spaces.same_class(torus_grid, 1 << 9, 0)


@pytest.mark.parametrize("w", [-1, 1 << 9, (1 << 9) | 1, -(1 << 9)])
def test_out_of_range_colorings_are_refused(torus_grid, w):
    # the torus grid has 9 edges: a negative coloring or a bit at 9 or above is no coloring
    basis = spaces.signature_basis(torus_grid)
    message = "coloring length does not match the edge count"
    with pytest.raises(ValueError, match=message):
        spaces.apply_vertex_move(torus_grid, w, 0)
    with pytest.raises(ValueError, match=message):
        spaces.apply_face_move(torus_grid, w, 0)
    with pytest.raises(ValueError, match=message):
        spaces.class_signature(basis, w)
    with pytest.raises(ValueError, match=message):
        spaces.same_class(torus_grid, 0, w)


def test_signature_complete_invariant(torus_grid):
    # exhaustive sweep: exactly 8 distinct signatures over all 2^9 colorings,
    # constant on classes and equal iff same_class
    basis = spaces.signature_basis(torus_grid)
    signatures = {}
    for w in range(1 << 9):
        signatures.setdefault(spaces.class_signature(basis, w), []).append(w)
    assert len(signatures) == spaces.class_count_direct(torus_grid)
    rng = Random(5)
    for _ in range(60):
        w1 = rng.randrange(1 << 9)
        w2 = rng.randrange(1 << 9)
        assert spaces.same_class(torus_grid, w1, w2) == (
            spaces.class_signature(basis, w1) == spaces.class_signature(basis, w2)
        )


def test_signature_of_moves(torus_grid):
    basis = spaces.signature_basis(torus_grid)
    assert spaces.class_signature(basis, 0) == 0
    for row in torus_grid.incidence_matrix.rows:
        assert spaces.class_signature(basis, row) == 0


def test_dual_cuts_inside_cycle_space(random_batch):
    for g in random_batch[:80]:
        for r1 in g.incidence_matrix.rows:
            for r2 in g.dual_incidence_matrix.rows:
                assert gf2.dot(r1, r2) == 0


def test_count_identity_on_random_batch(random_batch):
    for g in random_batch:
        s = spaces.summarize(g)
        assert s.class_exponent == 2 * s.genus + s.dim_intersection
        assert s.dim_sum == s.dim_cocycle + s.dim_dual_cocycle - s.dim_intersection


def test_genus_zero_dual_cuts_are_cycles(planar_batch):
    for g in planar_batch:
        assert gf2.row_space_equal(
            g.dual_incidence_matrix, gf2.kernel_basis(g.incidence_matrix)
        )


def test_bot_matrix_fixture(torus_grid, square_handles):
    m = spaces.bot_matrix(torus_grid)
    assert m.nrows == 7 and m.ncols == 9
    assert gf2.rank(m) == 6
    m5 = spaces.bot_matrix(square_handles)
    assert m5.nrows == 6 and gf2.rank(m5) == 5


def test_bot_matrix_single_edge():
    g = load_fixture("sphere_edge")
    m = spaces.bot_matrix(g)
    assert m.nrows == 1 and m.ncols == 1
    assert m.rows == (1,)


def test_bot_matrix_every_incident_pair(torus_grid):
    want = gf2.rank(gf2.stack(torus_grid.incidence_matrix, torus_grid.dual_incidence_matrix))
    face_of = torus_grid.faces.face_of_dart
    for v in range(torus_grid.vertex_count):
        for f in sorted({face_of[d] for d in torus_grid.rotations[v]}):
            assert gf2.rank(spaces.bot_matrix(torus_grid, v, f)) == want


def test_bot_matrix_rejects_non_incident(torus_grid):
    face_of = torus_grid.faces.face_of_dart
    incident = {face_of[d] for d in torus_grid.rotations[0]}
    outside = set(range(torus_grid.face_count)) - incident
    if outside:
        with pytest.raises(ValueError):
            spaces.bot_matrix(torus_grid, 0, min(outside))


def test_coloring_string_length(torus_grid):
    with pytest.raises(ValueError):
        spaces.coloring_from_string(torus_grid, "0101")


def test_the_moves_cache_keeps_no_earlier_graph():
    # emptied first: an equal graph cached by another test would be found
    # in place of this one, which would then never be held
    spaces.moves_matrix.cache_clear()
    first = load_fixture("torus_grid")
    ref = weakref.ref(first)
    selfcheck.run_all_checks(first)
    del first
    selfcheck.run_all_checks(load_fixture("torus_square_handles"))
    gc.collect()
    assert ref() is None, "a cache still holds the first graph"
