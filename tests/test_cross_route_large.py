"""Direct and homology counts agree on graphs with E in the thousands.

The oracle cannot follow at this size, so the two linear routes and the
dimension identities are the check.
"""

from __future__ import annotations

from random import Random

import pytest

from bicolorgame import spaces
from bicolorgame.embedded import EmbeddedGraph
from bicolorgame.homology import class_count_homology
from bicolorgame.random_graphs import random_embedded_graph


def shuffled_torus_grid(rng: Random, n: int) -> EmbeddedGraph:
    """The n x n grid on the torus with its edges relabelled at random.

    Edge j joins darts 2j (tail) and 2j + 1 (head); every vertex sees its
    east, north, west and south edges in that order.
    """
    label = list(range(2 * n * n))
    rng.shuffle(label)
    rotations = []
    for i in range(n):
        for k in range(n):
            east = label[2 * (i * n + k)]
            north = label[2 * (i * n + k) + 1]
            west = label[2 * (i * n + (k - 1) % n)]
            south = label[2 * (((i - 1) % n) * n + k) + 1]
            rotations.append((2 * east, 2 * north, 2 * west + 1, 2 * south + 1))
    return EmbeddedGraph(tuple(rotations), tuple((2 * j, 2 * j + 1) for j in range(2 * n * n)))


def high_genus_graph(rng: Random) -> EmbeddedGraph:
    """The first ``random_embedded_graph`` draw with E >= 1000."""
    while True:
        g = random_embedded_graph(rng, max_vertices=300, max_edges=1200)
        if g.edge_count >= 1000:
            return g


GRAPHS = {
    "torus-grid-32": lambda: shuffled_torus_grid(Random(32), 32),
    "random-high-genus": lambda: high_genus_graph(Random(1000)),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_direct_and_homology_agree_at_scale(name):
    g = GRAPHS[name]()
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
