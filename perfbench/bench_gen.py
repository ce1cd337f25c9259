"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns rotation-system text
written by the package's ``format_rotation_system``, so the program under
test only ever sees the text.  The same seed gives byte-identical text.
The package is imported where it is used, once ``run.py`` has put the
checkout's ``src`` on the path.
"""

from __future__ import annotations

from random import Random


def _ends_text(rotations: list[list[tuple[int, int]]], edge_count: int) -> str:
    """Text for rotations of (edge, end) pairs; end e of edge j is dart 2j + e."""
    from bicolorgame.embedded import EmbeddedGraph, format_rotation_system

    g = EmbeddedGraph(
        tuple(tuple(2 * j + end for j, end in rot) for rot in rotations),
        tuple((2 * j, 2 * j + 1) for j in range(edge_count)),
    )
    return format_rotation_system(g)


def torus_grid(rng: Random, n: int) -> str:
    """The n x n grid on the torus (V = F = n^2, E = 2n^2), edge order shuffled.

    Shuffling relabels the edges and keeps every rotation (the embedding).
    """
    perm = list(range(2 * n * n))
    rng.shuffle(perm)
    rotations: list[list[tuple[int, int]]] = []
    for i in range(n):
        for k in range(n):
            east = 2 * (i * n + k)
            north = east + 1
            west = 2 * (i * n + (k - 1) % n)
            south = 2 * (((i - 1) % n) * n + k) + 1
            rotations.append([(perm[east], 0), (perm[north], 0), (perm[west], 1), (perm[south], 1)])
    return _ends_text(rotations, 2 * n * n)


def random_system(rng: Random, vertices: int, edges: int) -> str:
    """A connected random rotation system with exactly the given V and E.

    A random spanning tree keeps it connected; the other edges join random
    vertex pairs (loops allowed) and every rotation is shuffled, which
    gives few faces and so a genus close to (E - V) / 2.  This is
    ``random_embedded_graph`` with fixed sizes, which rejection sampling
    cannot reach at E = 2500.
    """
    pairs = [(rng.randrange(v), v) for v in range(1, vertices)]
    while len(pairs) < edges:
        pairs.append((rng.randrange(vertices), rng.randrange(vertices)))
    rng.shuffle(pairs)
    rotations: list[list[tuple[int, int]]] = [[] for _ in range(vertices)]
    for j, (u, w) in enumerate(pairs):
        rotations[u].append((j, 0))
        rotations[w].append((j, 1))
    for rot in rotations:
        rng.shuffle(rot)
    return _ends_text(rotations, edges)


def plane_system(rng: Random, vertices: int, edges: int) -> str:
    """A plane system with exactly the given V and E: the first such draw of
    ``random_planar_graph``."""
    from bicolorgame.embedded import format_rotation_system
    from bicolorgame.random_graphs import random_planar_graph

    while True:
        g = random_planar_graph(rng, max_edges=edges)
        if (g.vertex_count, g.edge_count) == (vertices, edges):
            return format_rotation_system(g)


# Seeds of the package's own property suites (tests/conftest.py).  The
# crossval batch copies their graph sizes, so that every benchmark seed
# gives new graphs with the same size mix and about the same work.
MIXED_SUITE_SEED = 0xB1C0
PLANE_SUITE_SEED = 0x9E45


def crossval_batch(rng: Random) -> list[tuple[str, str]]:
    """(name, text) for 208 mixed-genus and 56 plane systems plus the fixtures.

    Graph i of each part has the vertex and edge counts (plane: the edge
    count) of graph i of the package's property suite, drawn from
    ``bicolorgame.random_graphs`` by rejection.
    """
    from bicolorgame.embedded import format_rotation_system
    from bicolorgame.fixtures import fixture_names, fixture_text
    from bicolorgame.random_graphs import random_embedded_graph, random_planar_graph

    suite = Random(MIXED_SUITE_SEED)
    out = []
    for i in range(208):
        want = random_embedded_graph(suite, max_vertices=6, max_edges=12)
        size = (want.vertex_count, want.edge_count)
        while True:
            g = random_embedded_graph(rng, max_vertices=size[0], max_edges=size[1])
            if (g.vertex_count, g.edge_count) == size:
                break
        out.append((f"mixed{i:03d}", format_rotation_system(g)))
    suite = Random(PLANE_SUITE_SEED)
    for i in range(56):
        edges = random_planar_graph(suite, max_edges=12).edge_count
        while True:
            g = random_planar_graph(rng, max_edges=edges)
            if g.edge_count == edges:
                break
        out.append((f"plane{i:03d}", format_rotation_system(g)))
    out.extend((f"fixture-{name}", fixture_text(name)) for name in fixture_names())
    return out
