"""Direct and homology counts agree on graphs with E in the thousands.

The oracle cannot follow at this size, so the two linear routes, the
dimension identities and the tree-choice invariance are the check.  The
graphs come from the ``large_graphs`` fixture, plus a 72x72 torus grid
(E = 10368) on which only the two counts are compared: the Zassenhaus
step of ``summarize`` still takes seconds there.
"""

from __future__ import annotations

from random import Random

import pytest
from conftest import shuffled_torus_grid

from bicolorgame import spaces
from bicolorgame.homology import class_count_homology
from bicolorgame.selfcheck import check_tree_choice_invariance

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


def test_direct_and_homology_agree_at_ten_thousand_edges():
    g = shuffled_torus_grid(Random(72), 72)
    assert (g.vertex_count, g.edge_count, g.face_count, g.genus) == (5184, 10368, 5184, 1)
    assert spaces.class_count_direct(g) == class_count_homology(g) == 2**144
