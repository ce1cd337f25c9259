"""Ground truth by brute force: mark every coloring, one orbit at a time.

This module deliberately avoids the linear-algebra machinery: no rank, no
pivots, only marks in a bytearray of 2^|E| bytes.  The moves are XORs by
the generators (one per vertex and one per face), so the orbit of w is the
coset w + S, where S is the orbit of 0.  S is marked by doubling: a
generator not yet marked lies outside the span so far, and XORing it onto
every marked coloring doubles the marked set.  The census then sweeps the
colorings in ascending order and marks one coset per unmarked coloring,
walking the sums of the doubling generators without ever listing S.  The
census is an independent referee for both counting routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterator

from .embedded import EmbeddedGraph
from .errors import EdgeCapError, InternalInvariantError

DEFAULT_EDGE_CAP = 22
_LISTED = 12  # the sums of this many doubling generators are listed once per census
_REPRESENTATIVE = bytes(b == 2 for b in range(256))  # translate table: 2 -> 1, else 0


@dataclass(frozen=True)
class OrbitCensus:
    """Orbit partition of all 2^|E| colorings under the two moves.

    ``marks`` holds one byte per coloring: 2 on each class representative,
    1 on every other coloring.  It is the census's only store of the
    representatives and stays out of ``==``, ``repr`` and ``hash``.
    """

    edge_count: int
    class_count: int
    orbit_size: int
    marks: bytearray = field(compare=False, repr=False)

    def representatives(self) -> Iterator[int]:
        """The representatives in ascending order, read lazily from the marks."""
        return compress(range(len(self.marks)), self.marks.translate(_REPRESENTATIVE))


def _generators(g: EmbeddedGraph, edge_cap: int) -> list[int]:
    """The distinct nonzero move vectors, once the sweep cap is checked."""
    if g.edge_count > edge_cap:
        raise EdgeCapError(f"{g.edge_count} edges exceeds the sweep cap {edge_cap}")
    gens = set(g.incidence_matrix.rows) | set(g.dual_incidence_matrix.rows)
    gens.discard(0)
    return sorted(gens)


def _gray_walk(w: int, basis: list[int]) -> Iterator[int]:
    """w XOR each of the 2^len(basis) sums of basis, in Gray-code order."""
    yield w
    for i in range(1, 1 << len(basis)):
        w ^= basis[(i & -i).bit_length() - 1]
        yield w


def _double(gens: list[int], visited: bytearray) -> list[int]:
    """Mark the orbit of 0 in ``visited`` and return its doubling generators.

    A generator not yet marked is outside the span of those before it, so
    marking it XOR every marked coloring doubles the marked set.
    """
    visited[0] = 1
    basis: list[int] = []
    for gen in gens:
        if not visited[gen]:
            for v in _gray_walk(gen, basis):
                visited[v] = 1
            basis.append(gen)
    if visited.count(1) != 1 << len(basis):
        raise InternalInvariantError("doubling did not mark 2^k colorings for k generators")
    return basis


def enumerate_classes(g: EmbeddedGraph, edge_cap: int = DEFAULT_EDGE_CAP) -> OrbitCensus:
    """Mark the orbit of 0 by doubling, then sweep the cosets in ascending order.

    Each unmarked coloring w is a representative, the smallest of its orbit
    as an integer (equivalently, lexicographically).  Its coset w + S is
    marked as w ^ h ^ s over the sums s of the first ``_LISTED`` doubling
    generators and the sums h of the rest.  Both lists are built once per
    census by Gray-code walks, of at most 4096 and 2^(|E| - 12) ints, so S
    itself is never held and memory is the one bytearray of 2^|E| bytes,
    where each representative's mark becomes 2 once its coset is marked.
    Two counts check the marks exactly, with no test per mark: the doubling
    marks 2^k colorings for its k generators, and, as the sweep leaves
    every coloring marked and each coset writes ``orbit_size`` marks,
    ``orbit_size * class_count == 2^|E|`` holds iff no mark landed on a
    coloring already marked.
    """
    gens = _generators(g, edge_cap)
    total = 1 << g.edge_count
    visited = bytearray(total)
    basis = _double(gens, visited)
    orbit_size = 1 << len(basis)
    listed = list(_gray_walk(0, basis[:_LISTED]))
    heads = list(_gray_walk(0, basis[_LISTED:]))
    visited[0] = 2  # the doubling marked S, the coset of 0
    class_count = 1
    w = visited.find(0)
    while w >= 0:
        class_count += 1
        for h in heads:
            h ^= w
            for s in listed:
                visited[h ^ s] = 1
        visited[w] = 2
        w = visited.find(0, w + 1)
    if orbit_size * class_count != total:
        raise InternalInvariantError("orbit census does not cover the coloring space")
    return OrbitCensus(g.edge_count, class_count, orbit_size, visited)
