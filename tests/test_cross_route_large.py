"""Direct and homology counts agree on graphs with E in the thousands.

The oracle cannot follow at this size, so the two linear routes, the
dimension identities and the tree-choice invariance are the check.  The
graphs come from the ``large_graphs`` fixture, plus a 72x72 torus grid
(E = 10368), built once for the module.  On the grid the two counts are
compared and the orthogonality and strand-lemma checks run, both one
parity walk per vector; ``summarize`` is left out, as its Zassenhaus
step still takes seconds there.  Just above the enumeration caps, the
whole identity list still runs and passes.
"""

from __future__ import annotations

from random import Random

import pytest
from conftest import digon_chain, shuffled_torus_grid

from bicolorgame import selfcheck, spaces
from bicolorgame.homology import class_count_homology
from bicolorgame.random_graphs import random_embedded_graph, random_planar_graph
from bicolorgame.selfcheck import (
    ALL_CHECKS,
    check_orthogonality,
    check_strand_lemma,
    check_tree_choice_invariance,
    run_all_checks,
)

LARGE = ("torus-grid-32", "random-high-genus")


@pytest.mark.parametrize("name", LARGE)
def test_direct_and_homology_agree_at_scale(large_graphs, name):
    g = large_graphs[name]
    assert g.edge_count >= 1000
    if name.startswith("torus"):
        assert (g.vertex_count, g.edge_count, g.face_count, g.genus) == (1024, 2048, 1024, 1)
    else:
        assert g.genus > 100
    s = spaces.summarize(g)
    assert spaces.class_count_direct(g) == class_count_homology(g) == s.class_count
    assert s.dim_cocycle == g.vertex_count - 1
    assert s.dim_dual_cocycle == g.face_count - 1
    assert s.class_exponent == 2 * g.genus + s.dim_intersection


@pytest.mark.parametrize("name", LARGE)
def test_tree_choice_invariance_at_scale(large_graphs, name):
    result = check_tree_choice_invariance(large_graphs[name])
    assert result.ok, result.detail


@pytest.fixture(scope="module")
def grid_72():
    g = shuffled_torus_grid(Random(72), 72)
    assert (g.vertex_count, g.edge_count, g.face_count, g.genus) == (5184, 10368, 5184, 1)
    return g


def test_direct_and_homology_agree_at_ten_thousand_edges(grid_72):
    assert spaces.class_count_direct(grid_72) == class_count_homology(grid_72) == 2**144


@pytest.mark.parametrize("check", [check_orthogonality, check_strand_lemma])
@pytest.mark.parametrize("name", LARGE + ("torus-grid-72",))
def test_double_cycle_checks_at_scale(large_graphs, grid_72, name, check):
    g = grid_72 if name == "torus-grid-72" else large_graphs[name]
    result = check(g)
    assert result.ok, result.detail


def _draw(make, accept):
    while True:
        g = make()
        if accept(g):
            return g


def test_all_checks_run_above_the_enumeration_caps():
    rng = Random(30)
    graphs = {
        "random": _draw(
            lambda: random_embedded_graph(rng, max_vertices=12, max_edges=30),
            lambda g: g.edge_count == 30 and g.vertex_count >= 6 and g.genus > 0,
        ),
        "plane": _draw(
            lambda: random_planar_graph(rng, max_edges=30), lambda g: g.edge_count == 30
        ),
        "digons-23": digon_chain(23),  # 2^23 classes, more than the CLI lists
    }
    details = {}
    for name, g in graphs.items():
        results = run_all_checks(g)
        assert len(results) == len(ALL_CHECKS) == 14
        assert all(r.ok for r in results), (name, [r for r in results if not r.ok])
        details[name] = {r.name: r.detail for r in results}
        over = f"skipped ({g.edge_count} edges exceeds the enumeration cap 26)"
        assert details[name]["polynomial-strand-count"] == over
        assert details[name]["whitney-specialization"] == over
    plane = details["plane"]["plane-structure"]
    assert plane.startswith("bicycle dim=") and "T(-1,-1) skipped" in plane
    assert "representatives" not in plane
    assert details["digons-23"]["plane-structure"] == (
        "bicycle dim=23; T(-1,-1) skipped (46 edges exceeds the enumeration cap 26)"
    )


def test_plane_check_verifies_representatives_at_every_size(monkeypatch):
    verified = []
    real = selfcheck.verify_representatives

    def counted(g, rs):
        verified.append(len(rs.edges))
        return real(g, rs)

    monkeypatch.setattr(selfcheck, "verify_representatives", counted)
    for k in (23, 40):
        results = run_all_checks(digon_chain(k))
        assert all(r.ok for r in results), (k, [r for r in results if not r.ok])
        assert results[-1].name == "plane-structure"
    assert verified == [23, 40]
