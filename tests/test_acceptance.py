"""Acceptance gate: the headline values every route must reproduce exactly.

Each test covers one criterion, asserts the frozen expected numbers with zero
tolerance, enforces the stated runtime budget, and prints one summary
line (visible with ``pytest -s`` or on failure).
"""

from __future__ import annotations

import time
from fractions import Fraction

from bicolorgame import gf2, spaces
from bicolorgame.brt import brt_polynomial, medial_component_count_via_brt, tutte_eval
from bicolorgame.fixtures import load_fixture
from bicolorgame.homology import (
    class_count_homology,
    fundamental_dual_cycles,
    strand_basis,
    strand_image_matrix,
    strand_kernel_basis,
    tree_cotree,
)
from bicolorgame.medial import trace_medial
from bicolorgame.oracle import enumerate_classes
from bicolorgame.representatives import planar_representatives, verify_representatives
from bicolorgame.selfcheck import (
    check_dimension_identities,
    check_genus_zero,
    failed_checks,
    run_all_checks,
)

from test_brt import SQUARE_HANDLES_BRT, TORUS_GRID_BRT

EVAL_POINT = (Fraction(-2), Fraction(-2), Fraction(1, 4))


def _report(criterion: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s of {budget:.0f}s budget)")
    assert elapsed < budget, f"{criterion} exceeded its {budget}s runtime budget"


def test_criterion_1_torus_grid_fixture():
    started = time.perf_counter()
    g = load_fixture("torus_grid")
    assert g.vertex_count == 4 and g.edge_count == 9 and g.genus == 1
    assert gf2.rank(g.incidence_matrix) == 3
    assert gf2.rank(g.dual_incidence_matrix) == 4
    assert gf2.rank(gf2.stack(g.incidence_matrix, g.dual_incidence_matrix)) == 6
    assert (
        gf2.row_space_intersection_basis(g.incidence_matrix, g.dual_incidence_matrix).nrows
        == 1
    )
    assert spaces.class_count_direct(g) == 8
    assert class_count_homology(g) == 8
    assert enumerate_classes(g).class_count == 8
    p = brt_polynomial(g)
    assert dict(p.coeffs) == TORUS_GRID_BRT
    assert p.evaluate(*EVAL_POINT) == -4
    assert trace_medial(g).count == 3
    _report("1 (4-vertex torus fixture)", started, 1.0)


def test_criterion_2_square_handles_fixture():
    started = time.perf_counter()
    g = load_fixture("torus_square_handles")
    assert g.vertex_count == 6 and g.edge_count == 8 and g.genus == 1
    assert gf2.rank(g.incidence_matrix) == 5
    assert gf2.rank(g.dual_incidence_matrix) == 1
    mc = trace_medial(g)
    assert mc.count == 4
    assert list(mc.trace_matrix().row_strings()) == [
        "11001100",
        "00111100",
        "01100011",
        "10010011",
    ]
    assert strand_basis(g).nrows == 3
    tc = tree_cotree(g, tree_edges=(0, 2, 3, 4, 6))
    assert tc.cotree_edges == (1,)
    cycles = fundamental_dual_cycles(g, tc)
    assert list(cycles.row_strings()) == ["00000100", "00000001"]
    _, images = strand_image_matrix(g, cycles)
    assert gf2.rank(images) == 2
    assert strand_kernel_basis(g, tc).nrows == 1
    assert spaces.class_count_direct(g) == 8
    assert class_count_homology(g) == 8
    assert enumerate_classes(g).class_count == 8
    p = brt_polynomial(g)
    assert dict(p.coeffs) == SQUARE_HANDLES_BRT
    assert abs(p.evaluate(*EVAL_POINT)) == 8
    _report("2 (6-vertex torus fixture)", started, 1.0)


def test_criterion_3_planar_fixture():
    started = time.perf_counter()
    g = load_fixture("plane_two_triangles")
    assert g.vertex_count == 5 and g.edge_count == 8 and g.genus == 0
    assert trace_medial(g).count == 3
    t_value = tutte_eval(g, -1, -1)
    assert abs(t_value) == 4
    assert spaces.class_count_direct(g) == 4
    assert class_count_homology(g) == 4
    assert enumerate_classes(g).class_count == 4
    rs = planar_representatives(g)
    assert len(rs.edges) == 2
    assert verify_representatives(g, rs)
    assert gf2.row_space_equal(
        g.dual_incidence_matrix, gf2.kernel_basis(g.incidence_matrix)
    )
    _report("3 (planar fixture)", started, 1.0)


def test_criterion_4_property_suite(random_batch):
    started = time.perf_counter()
    assert len(random_batch) >= 200
    assert all(g.edge_count <= 12 for g in random_batch)
    assert any(g.genus > 0 for g in random_batch)
    assert any(g.genus == 0 for g in random_batch)
    # The identities (a)-(j) are the selfcheck suite, shared with `selftest`.
    for index, g in enumerate(random_batch):
        bad = failed_checks(run_all_checks(g))
        assert not bad, [f"{r.name} failed on graph {index}: {r.detail}" for r in bad]
    _report(f"4 (property suite, {len(random_batch)} systems)", started, 60.0)


def test_criterion_5_genus_zero_suite(planar_batch):
    started = time.perf_counter()
    assert len(planar_batch) >= 50
    assert all(g.genus == 0 and g.edge_count <= 12 for g in planar_batch)
    for index, g in enumerate(planar_batch):
        # |T(-1,-1)| = 2^bicycle dim; dual cuts are the cycles, representatives verify
        for check in (check_dimension_identities, check_genus_zero):
            result = check(g)
            assert result.ok, f"{result.name} failed on graph {index}: {result.detail}"
        if g.edge_count <= 10:
            rs = planar_representatives(g)
            census = enumerate_classes(g)
            assert len(list(rs.colorings())) == census.class_count
            reps_min = {min(w ^ s for s in _move_span(g)) for w in rs.colorings()}
            assert reps_min == set(census.representatives())
    _report(f"5 (genus-0 suite, {len(planar_batch)} systems)", started, 30.0)


def test_criterion_6_degenerate_inputs():
    started = time.perf_counter()
    single = load_fixture("single_vertex")
    assert single.face_count == 1 and single.genus == 0
    assert spaces.class_count_direct(single) == 1
    assert class_count_homology(single) == 1
    assert enumerate_classes(single).class_count == 1
    assert trace_medial(single).count == 0

    loop = load_fixture("sphere_loop")
    assert loop.genus == 0 and loop.face_count == 2
    assert trace_medial(loop).count == 1

    rose = load_fixture("torus_rose")
    assert rose.genus == 1
    # hand enumeration of the four subsets: 1 + 2y + y^2 z
    by_hand = {(0, 0, 0): 1, (0, 1, 0): 2, (0, 2, 1): 1}
    assert dict(brt_polynomial(rose).coeffs) == by_hand
    assert medial_component_count_via_brt(rose) == 2
    assert trace_medial(rose).count == 2
    assert spaces.class_count_direct(rose) == class_count_homology(rose)
    assert spaces.class_count_direct(rose) == enumerate_classes(rose).class_count == 4

    bridge = load_fixture("sphere_edge")
    assert dict(brt_polynomial(bridge).coeffs) == {(1, 0, 0): 1, (0, 0, 0): 1}
    assert trace_medial(bridge).count == 1
    assert enumerate_classes(bridge).class_count == spaces.class_count_direct(bridge) == 1

    digon = load_fixture("sphere_digon")
    assert digon.genus == 0
    assert trace_medial(digon).count == 2
    assert spaces.class_count_direct(digon) == 2
    assert class_count_homology(digon) == 2
    assert enumerate_classes(digon).class_count == 2
    rs = planar_representatives(digon)
    assert len(list(rs.colorings())) == 2 and verify_representatives(digon, rs)

    for name in ("single_vertex", "sphere_loop", "torus_rose", "sphere_edge",
                 "sphere_digon", "sphere_path", "sphere_triangle"):
        assert not failed_checks(run_all_checks(load_fixture(name))), name
    _report("6 (degenerate inputs)", started, 10.0)


def _move_span(g):
    span = {0}
    for row in g.incidence_matrix.rows + g.dual_incidence_matrix.rows:
        span |= {s ^ row for s in span}
    return span
