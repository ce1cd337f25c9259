"""Ground truth by brute force: sweep every coloring, close under moves.

This module deliberately avoids the linear-algebra machinery.  Orbits are
computed by plain BFS closure under the move generators (one per vertex
and one per face), so the census is an independent referee for both
counting routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .embedded import EmbeddedGraph
from .errors import EdgeCapError, InternalInvariantError

DEFAULT_EDGE_CAP = 22


@dataclass(frozen=True)
class OrbitCensus:
    """Orbit partition of all 2^|E| colorings under the two moves."""

    edge_count: int
    class_count: int
    orbit_size: int
    representatives: tuple[int, ...]


def _generators(g: EmbeddedGraph, edge_cap: int) -> list[int]:
    """The distinct nonzero move vectors, once the sweep cap is checked."""
    if g.edge_count > edge_cap:
        raise EdgeCapError(f"{g.edge_count} edges exceeds the sweep cap {edge_cap}")
    gens = set(g.incidence_matrix.rows) | set(g.dual_incidence_matrix.rows)
    gens.discard(0)
    return sorted(gens)


def _close(gens: list[int], visited: bytearray, w: int) -> int:
    """Mark the orbit of w in ``visited`` by BFS and return its size.

    Only the current frontier is held, never the whole orbit.
    """
    visited[w] = 1
    size = 0
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            size += 1
            for gen in gens:
                v = u ^ gen
                if not visited[v]:
                    visited[v] = 1
                    nxt.append(v)
        frontier = nxt
    return size


def orbit_of(g: EmbeddedGraph, w: int, edge_cap: int = DEFAULT_EDGE_CAP) -> frozenset[int]:
    """All colorings reachable from w by vertex and face moves."""
    gens = _generators(g, edge_cap)
    total = 1 << g.edge_count
    if not 0 <= w < total:
        raise ValueError("coloring length does not match the edge count")
    visited = bytearray(total)
    _close(gens, visited, w)
    return frozenset(compress(range(total), visited))


def enumerate_classes(g: EmbeddedGraph, edge_cap: int = DEFAULT_EDGE_CAP) -> OrbitCensus:
    """Sweep all colorings and report the orbit census.

    Representatives are the lexicographically smallest colorings of their
    orbits (equivalently: smallest as integers, since the sweep ascends).
    All orbits must share one size; anything else is reported as a bug.
    """
    gens = _generators(g, edge_cap)
    total = 1 << g.edge_count
    visited = bytearray(total)
    representatives = []
    orbit_size = None
    for w in range(total):
        if visited[w]:
            continue
        representatives.append(w)
        size = _close(gens, visited, w)
        if orbit_size is None:
            orbit_size = size
        elif orbit_size != size:
            raise InternalInvariantError("orbits of unequal size found")
    assert orbit_size is not None
    if orbit_size * len(representatives) != total:
        raise InternalInvariantError("orbit census does not cover the coloring space")
    return OrbitCensus(g.edge_count, len(representatives), orbit_size, tuple(representatives))
