"""Mutation tests for the shared identity list in ``selfcheck``.

Acceptance criterion 4 and ``selftest`` both trust ``run_all_checks``, so a
check that always passes would hide a broken route.  Each case breaks one
input a check consumes and requires the check to report ``ok=False``.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from bicolorgame import selfcheck, spaces
from bicolorgame.brt import TrivariatePolynomial
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
    return SimpleNamespace(
        incidence_matrix=g.incidence_matrix,
        dual_incidence_matrix=GF2Matrix(g.edge_count, (lowest_edge_bit,)),
    )


def _intersection_dim_off(monkeypatch, g):
    real = spaces.summarize

    def summarize(h):
        s = real(h)
        return dataclasses.replace(s, dim_intersection=s.dim_intersection + 1)

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


@pytest.mark.parametrize(
    "check, fixture, mutate", MUTATIONS, ids=[check.__name__ for check, _, _ in MUTATIONS]
)
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
