"""Mutation tests for the shared identity list in ``selfcheck``.

Acceptance criterion 4 and ``selftest`` both trust ``run_all_checks``, so a
check that always passes would hide a broken route.  Each case breaks one
input a check consumes and requires the check to report ``ok=False``.
"""

from __future__ import annotations

import dataclasses
from random import Random
from types import SimpleNamespace

import pytest
from conftest import digon_chain, long_decimal

from bicolorgame import gf2, selfcheck, spaces
from bicolorgame.brt import TrivariatePolynomial
from bicolorgame.fixtures import load_fixture
from bicolorgame.gf2 import GF2Matrix


def _euler_face_count_off(monkeypatch, g):
    return SimpleNamespace(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        face_count=g.face_count + 2,
        genus=g.genus,
    )


def _face_row_meets_a_vertex_once(monkeypatch, g):
    first_row = g.incidence_matrix.rows[0]
    lowest_edge_bit = first_row & -first_row
    # the check walks g's edges, so the fake face row goes into g itself;
    # monkeypatch restores the cached matrix afterwards
    fake = GF2Matrix(g.edge_count, (lowest_edge_bit,))
    monkeypatch.setitem(g.__dict__, "dual_incidence_matrix", fake)
    return g


def _intersection_dim_off(monkeypatch, g):
    real = spaces.summarize

    def summarize(h):
        s = real(h)
        return dataclasses.replace(s, dim_intersection=s.dim_intersection + 1)

    monkeypatch.setattr(spaces, "summarize", summarize)
    return g


def _sum_rank_off(monkeypatch, g):
    # rank of U + U* one too high, and every field derived from it moved to
    # agree, so only a second computation of U cap U* can tell
    real = spaces.summarize

    def summarize(h):
        s = real(h)
        return dataclasses.replace(
            s,
            dim_sum=s.dim_sum + 1,
            dim_intersection=s.dim_intersection - 1,
            class_exponent=s.class_exponent - 1,
        )

    monkeypatch.setattr(spaces, "summarize", summarize)
    return g


def _polynomial_strand_count_off(monkeypatch, g):
    real = selfcheck.medial_component_count_via_brt
    monkeypatch.setattr(selfcheck, "medial_component_count_via_brt", lambda h: real(h) + 1)
    return g


def _strand_dropped(monkeypatch, g):
    real = selfcheck.trace_medial

    def trace_medial(h):
        mc = real(h)
        return dataclasses.replace(mc, trace_vectors=mc.trace_vectors[:-1])

    monkeypatch.setattr(selfcheck, "trace_medial", trace_medial)
    return g


def _strand_space_emptied(monkeypatch, g):
    monkeypatch.setattr(selfcheck, "strand_space", lambda mc: GF2Matrix(mc.edge_count))
    return g


def _strand_kernel_emptied(monkeypatch, g):
    monkeypatch.setattr(selfcheck, "strand_kernel_basis", lambda h: GF2Matrix(h.edge_count))
    return g


def _homology_count_doubled(monkeypatch, g):
    real = selfcheck.class_count_homology
    monkeypatch.setattr(selfcheck, "class_count_homology", lambda h: 2 * real(h))
    return g


def _whitney_shifted(monkeypatch, g):
    real = selfcheck.whitney_rank_polynomial

    def whitney(h):
        return TrivariatePolynomial({(a + 1, b, c): k for (a, b, c), k in real(h).coeffs.items()})

    monkeypatch.setattr(selfcheck, "whitney_rank_polynomial", whitney)
    return g


def _kernel_dim_depends_on_tree(monkeypatch, g):
    real = selfcheck.strand_kernel_dim
    monkeypatch.setattr(
        selfcheck, "strand_kernel_dim", lambda h, tc=None: real(h, tc) + (tc is not None)
    )
    return g


def _bot_matrix_emptied(monkeypatch, g):
    monkeypatch.setattr(spaces, "bot_matrix", lambda h, v, f: GF2Matrix(h.edge_count))
    return g


def _tutte_doubled(monkeypatch, g):
    real = selfcheck.tutte_eval
    monkeypatch.setattr(selfcheck, "tutte_eval", lambda h, x, y: 2 * real(h, x, y))
    return g


# (check, graph fixture, mutation); the mutation returns the graph to check
MUTATIONS = [
    (selfcheck.check_euler, "torus_grid", _euler_face_count_off),
    (selfcheck.check_orthogonality, "torus_grid", _face_row_meets_a_vertex_once),
    (selfcheck.check_dimension_identities, "torus_grid", _intersection_dim_off),
    (selfcheck.check_dimension_identities, "torus_grid", _sum_rank_off),
    (selfcheck.check_component_count_identity, "torus_grid", _polynomial_strand_count_off),
    (selfcheck.check_strand_lemma, "torus_grid", _strand_dropped),
    (selfcheck.check_inclusions, "torus_grid", _strand_space_emptied),
    (selfcheck.check_kernel_subspace, "torus_grid", _strand_kernel_emptied),
    (selfcheck.check_counts_agree, "torus_grid", _homology_count_doubled),
    (selfcheck.check_rank_oracle, "torus_grid", _whitney_shifted),
    (selfcheck.check_tree_choice_invariance, "torus_grid", _kernel_dim_depends_on_tree),
    (selfcheck.check_bot_rank, "torus_grid", _bot_matrix_emptied),
    (selfcheck.check_genus_zero, "two_triangles", _tutte_doubled),
]


def _case_ids(cases):
    """The check's name; a check's later cases add their mutation's name."""
    seen = set()
    for check, _, mutate in cases:
        name = check.__name__
        yield f"{name}-{mutate.__name__.lstrip('_')}" if name in seen else name
        seen.add(name)


@pytest.mark.parametrize("check, fixture, mutate", MUTATIONS, ids=list(_case_ids(MUTATIONS)))
def test_check_fails_on_broken_input(check, fixture, mutate, monkeypatch, request):
    g = request.getfixturevalue(fixture)
    assert check(g).ok, "the unbroken graph must pass, or the mutation shows nothing"
    assert not check(mutate(monkeypatch, g)).ok


def test_strand_lemma_fails_on_an_edge_crossed_three_times(monkeypatch, torus_grid):
    real = selfcheck.trace_medial

    def trace_medial(h):
        mc = real(h)
        return dataclasses.replace(mc, crossings=(3,) + mc.crossings[1:])

    assert selfcheck.check_strand_lemma(torus_grid).ok
    monkeypatch.setattr(selfcheck, "trace_medial", trace_medial)
    result = selfcheck.check_strand_lemma(torus_grid)
    assert not result.ok
    assert result.detail == "edge 0 not crossed exactly twice"


def test_strand_lemma_reports_rank_deficient_strands(monkeypatch, torus_grid):
    # (a, b, a, b) sums to zero and crosses every edge twice, but spans only
    # two dimensions where four strands need three.
    real = selfcheck.trace_medial

    def trace_medial(h):
        mc = real(h)
        a, b = mc.trace_vectors[:2]
        return dataclasses.replace(mc, trace_vectors=(a, b, a, b))

    assert selfcheck.check_strand_lemma(torus_grid).ok
    monkeypatch.setattr(selfcheck, "trace_medial", trace_medial)
    result = selfcheck.check_strand_lemma(torus_grid)
    assert not result.ok
    assert result.detail == "strand space has wrong dimension"


def test_rank_deficient_strands_fail_checks_instead_of_aborting_the_run(monkeypatch, torus_grid):
    # The (a, b, a, b) trace above: strand_space raises on it, and the run
    # must report that as a failed check rather than abort.
    real = selfcheck.trace_medial

    def trace_medial(h):
        mc = real(h)
        a, b = mc.trace_vectors[:2]
        return dataclasses.replace(mc, trace_vectors=(a, b, a, b))

    assert not selfcheck.failed_checks(selfcheck.run_all_checks(torus_grid))
    monkeypatch.setattr(selfcheck, "trace_medial", trace_medial)
    results = selfcheck.run_all_checks(torus_grid)
    assert len(results) == len(selfcheck.ALL_CHECKS) == 14
    failed = {r.name: r.detail for r in selfcheck.failed_checks(results)}
    assert failed == {
        "strand-lemma": "strand space has wrong dimension",
        "polynomial-strand-count": "poly=3 trace=4",
        "inclusion-chain": "no strand space: strand trace vectors are rank deficient",
    }


def test_strand_lemma_fails_on_a_trace_vector_off_the_double_cycles(monkeypatch, torus_grid):
    # Edge 0 flipped in trace vectors 0 and 1: the sum stays zero, the
    # crossing counts are untouched and the rank still holds, but vector 0
    # now meets an endpoint of edge 0 oddly.
    real = selfcheck.trace_medial

    def trace_medial(h):
        mc = real(h)
        a, b, *rest = mc.trace_vectors
        return dataclasses.replace(mc, trace_vectors=(a ^ 1, b ^ 1, *rest))

    assert selfcheck.check_strand_lemma(torus_grid).ok
    monkeypatch.setattr(selfcheck, "trace_medial", trace_medial)
    result = selfcheck.check_strand_lemma(torus_grid)
    assert (result.ok, result.detail) == (False, "a trace vector is not a bi-directional cycle")


def test_inclusions_fail_on_a_strand_row_off_the_double_cycles(monkeypatch, torus_grid):
    # the one-edge row 1 under the real basis keeps U cap U* inside the span
    real = selfcheck.strand_space
    assert selfcheck.check_inclusions(torus_grid).ok
    monkeypatch.setattr(
        selfcheck, "strand_space", lambda mc: gf2.stack(real(mc), GF2Matrix(mc.edge_count, (1,)))
    )
    result = selfcheck.check_inclusions(torus_grid)
    assert (result.ok, result.detail) == (False, "strand space leaves the double cycle space")


@pytest.mark.parametrize(
    "check, detail",
    [
        (selfcheck.check_inclusions, "U cap U* not inside the strand space"),
        (selfcheck.check_kernel_subspace, "ker on strands differs from U cap U*"),
    ],
    ids=["inclusions", "kernel"],
)
def test_checks_compare_the_graphs_u_cap_u_star_with_the_strand_routes(
    check, detail, monkeypatch, torus_grid
):
    # a one-edge row is no double cycle, so neither strand route contains it
    assert check(torus_grid).ok
    fake = GF2Matrix(torus_grid.edge_count, (1,))
    monkeypatch.setitem(torus_grid.__dict__, "cocycle_intersection", fake)
    result = check(torus_grid)
    assert (result.ok, result.detail) == (False, detail)


def test_all_checks_eliminate_u_cap_u_star_once(monkeypatch):
    g = load_fixture("torus_grid")  # a fresh graph: nothing cached yet
    real = gf2.row_space_intersection_basis
    calls = []

    def counting(a, b):
        if (a, b) == (g.incidence_matrix, g.dual_incidence_matrix):
            calls.append(a)
        return real(a, b)

    monkeypatch.setattr(gf2, "row_space_intersection_basis", counting)
    assert not selfcheck.failed_checks(selfcheck.run_all_checks(g))
    assert len(calls) == 1


def test_count_detail_prints_counts_beyond_the_int_digit_limit(monkeypatch):
    # E = 24 is above the sweep cap, so only the two linear counts show
    g = digon_chain(12)
    huge = 1 << 15000
    monkeypatch.setattr(spaces, "class_count_direct", lambda h: huge)
    monkeypatch.setattr(selfcheck, "class_count_homology", lambda h: huge)
    result = selfcheck.check_counts_agree(g)
    want = long_decimal(huge)
    skipped = "oracle skipped (24 edges exceeds the sweep cap 22)"
    assert (result.ok, result.detail) == (True, f"direct={want} homology={want} {skipped}")


def test_rank_oracle_fails_on_one_face_delta_flipped(monkeypatch, torus_grid):
    # A subset whose face delta flips from -1 to +1 has two more faces and
    # one genus less; z = 1 cannot see it, the sweep in three variables can.
    real = selfcheck.brt_polynomial

    def brt_polynomial(h):
        coeffs = dict(real(h).coeffs)
        a, b, c = next(key for key in sorted(coeffs) if key[2] > 0)
        coeffs[(a, b, c)] -= 1
        coeffs[(a, b, c - 1)] = coeffs.get((a, b, c - 1), 0) + 1
        return TrivariatePolynomial(coeffs)

    assert selfcheck.check_rank_oracle(torus_grid).ok
    monkeypatch.setattr(selfcheck, "brt_polynomial", brt_polynomial)
    broken = brt_polynomial(torus_grid)
    assert broken.specialize_z_one() == selfcheck.whitney_rank_polynomial(torus_grid)
    result = selfcheck.check_rank_oracle(torus_grid)
    assert not result.ok
    assert result.detail == "BRT differs from the sweep"


def test_plane_check_fails_on_a_repeated_pivot(monkeypatch, two_triangles):
    # (p, p) instead of (p, q): four sums, but only two classes among them
    real = selfcheck.planar_representatives

    def planar_representatives(h):
        rs = real(h)
        return dataclasses.replace(rs, edges=rs.edges[:1] * len(rs.edges))

    assert selfcheck.check_genus_zero(two_triangles).ok
    monkeypatch.setattr(selfcheck, "planar_representatives", planar_representatives)
    result = selfcheck.check_genus_zero(two_triangles)
    assert not result.ok
    assert result.detail == "representatives failed verification"


def _first_bad_column(mat: GF2Matrix) -> str:
    """Reference: count the ones of every column, report the first not 0 or 2."""
    for col in range(mat.ncols):
        ones = sum((r >> col) & 1 for r in mat.rows)
        if ones not in (0, 2):
            return f"column {col} has {ones} ones"
    return ""


@pytest.mark.parametrize(
    "rows, detail",
    [((0b011, 0b101), "column 1 has 1 ones"), ((0b011, 0b001, 0b011), "column 0 has 3 ones")],
    ids=["one-one", "three-ones"],
)
def test_incidence_shape_reports_the_first_bad_column(rows, detail):
    good, bad = GF2Matrix(3, (0b011, 0b110, 0b101)), GF2Matrix(3, rows)
    for primal, dual in ((bad, good), (good, bad), (bad, bad)):
        g = SimpleNamespace(incidence_matrix=primal, dual_incidence_matrix=dual)
        result = selfcheck.check_incidence_shape(g)
        assert (result.ok, result.detail) == (False, detail)
    g = SimpleNamespace(incidence_matrix=good, dual_incidence_matrix=good)
    assert selfcheck.check_incidence_shape(g).ok


def test_incidence_shape_matches_the_per_column_count():
    rng = Random(0x1C5)
    for _ in range(300):
        ncols = rng.randint(0, 9)
        mats = [
            GF2Matrix(ncols, tuple(rng.getrandbits(ncols) for _ in range(rng.randint(0, 5))))
            for _ in range(2)
        ]
        want = _first_bad_column(mats[0]) or _first_bad_column(mats[1])
        g = SimpleNamespace(incidence_matrix=mats[0], dual_incidence_matrix=mats[1])
        result = selfcheck.check_incidence_shape(g)
        assert (result.ok, result.detail) == (not want, want)
