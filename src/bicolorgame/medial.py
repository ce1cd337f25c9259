"""Strand components of the medial graph, traced on the rotation system.

The medial graph has one 4-valent vertex per edge of G, and its strands
are the closed curves obtained by always continuing straight ahead.  On
the rotation system this is a left-right walk: a strand state is a pair
(dart, phase); crossing the edge of the dart lands on its partner, the
walk then turns with the rotation successor on phase 0 and its inverse
on phase 1, and the phase toggles at every step.  Reversing a strand
maps the state (d, p) to (alpha(d), p), so each closed curve appears as
two disjoint state orbits; components are reported once, indexed by the
smallest state they visit.

Per strand we record which edges it crosses an odd number of times: the
trace vector of the strand, a cycle of both the graph and its dual.  Per
edge we record how often all strands together cross it, which is exactly
twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedded import EmbeddedGraph
from .errors import InternalInvariantError
from .gf2 import GF2Matrix


@dataclass(frozen=True)
class MedialComponents:
    """Strands of the medial graph with their edge-trace data.

    ``trace_vectors[i]`` is the mod-2 edge indicator of strand i, and
    ``crossings[j]`` the number of times all strands together cross
    edge j.  An edgeless graph has no strands (count 0).
    """

    edge_count: int
    trace_vectors: tuple[int, ...]
    crossings: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.trace_vectors)

    def trace_matrix(self) -> GF2Matrix:
        return GF2Matrix(self.edge_count, self.trace_vectors)


def trace_medial(g: EmbeddedGraph) -> MedialComponents:
    """Trace all strands of the medial graph of ``g``."""
    m = g.edge_count
    sigma = g.sigma
    sigma_inv = g.sigma_inv
    alpha = g.alpha
    edge_of = g.dart_edge
    visited: set[tuple[int, int]] = set()
    vectors: list[int] = []
    crossings = [0] * m
    for d0 in sorted(alpha):
        for p0 in (0, 1):
            if (d0, p0) in visited:
                continue
            odd = bytearray((m + 7) // 8)  # bit j: edge j crossed an odd number of times
            orbit: list[tuple[int, int]] = []
            d, p = d0, p0
            while True:
                orbit.append((d, p))
                j = edge_of[d]
                crossings[j] += 1
                odd[j >> 3] ^= 1 << (j & 7)
                a = alpha[d]
                d = sigma[a] if p == 0 else sigma_inv[a]
                p ^= 1
                if (d, p) == (d0, p0):
                    break
            reverse = {(alpha[dd], pp) for dd, pp in orbit}
            if reverse.intersection(orbit):
                raise InternalInvariantError("medial strand coincides with its reverse")
            visited.update(orbit)
            visited.update(reverse)
            vectors.append(int.from_bytes(odd, "little"))
    return MedialComponents(m, tuple(vectors), tuple(crossings))

