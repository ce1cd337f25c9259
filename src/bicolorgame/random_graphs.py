"""Random connected rotation systems for property testing and demos."""

from __future__ import annotations

from random import Random

from .embedded import EmbeddedGraph
from .errors import InternalInvariantError


def random_embedded_graph(
    rng: Random, max_vertices: int = 6, max_edges: int = 12
) -> EmbeddedGraph:
    """A random connected multigraph with shuffled rotations (mixed genus).

    A random spanning tree guarantees connectivity; extra edges (loops and
    parallels allowed) and per-vertex shuffles of the dart order produce
    embeddings of every achievable genus.
    """
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(nv - 1, max_edges) if nv > 1 else rng.randint(1, max_edges)
    pairs: list[tuple[int, int]] = []
    for v in range(1, nv):
        pairs.append((rng.randrange(v), v))
    while len(pairs) < ne:
        pairs.append((rng.randrange(nv), rng.randrange(nv)))
    rng.shuffle(pairs)
    rotations: list[list[int]] = [[] for _ in range(nv)]
    edge_darts = []
    for j, (u, w) in enumerate(pairs):
        a, b = 2 * j, 2 * j + 1
        rotations[u].append(a)
        rotations[w].append(b)
        edge_darts.append((a, b))
    for rot in rotations:
        rng.shuffle(rot)
    return EmbeddedGraph(tuple(tuple(r) for r in rotations), tuple(edge_darts))


def random_planar_graph(rng: Random, max_edges: int = 12) -> EmbeddedGraph:
    """A random connected rotation system of genus 0, built incrementally.

    Starting from one vertex, each step either sprouts a new leaf vertex
    into a corner or splits a face by an edge between two of its corners;
    both moves preserve genus 0, and together they reach every planar
    rotation system.
    """
    rotations: list[list[int]] = [[]]
    edge_darts: list[tuple[int, int]] = []
    target = rng.randint(1, max_edges)

    def corners() -> list[tuple[int, int]]:
        # corner = (vertex, position): the gap after rot[position - 1]
        out = []
        for v, rot in enumerate(rotations):
            if rot:
                out.extend((v, i) for i in range(len(rot)))
            else:
                out.append((v, 0))
        return out

    while len(edge_darts) < target:
        a, b = 2 * len(edge_darts), 2 * len(edge_darts) + 1
        if not edge_darts or rng.random() < 0.4:
            v, i = rng.choice(corners())
            rotations[v].insert(i, a)
            rotations.append([b])
        else:
            g = EmbeddedGraph(tuple(tuple(r) for r in rotations), tuple(edge_darts))
            face = rng.choice(g.faces.faces)
            d1, d2 = rng.choice(face), rng.choice(face)
            # insert right after alpha(d) in the rotation at its vertex
            for dart, new in ((d1, a), (d2, b)):
                partner = g.alpha[dart]
                rot = rotations[g.dart_vertex[partner]]
                rot.insert(rot.index(partner) + 1, new)
        edge_darts.append((a, b))

    out = EmbeddedGraph(tuple(tuple(r) for r in rotations), tuple(edge_darts))
    if out.genus != 0:
        raise InternalInvariantError("planar growth produced positive genus")
    return out
