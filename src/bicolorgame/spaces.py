"""The linear structure of the color-switching game.

Colorings of the edges by two colors are vectors in GF(2)^{|E|}.  A vertex
move adds a row of the incidence matrix, a face move adds a row of the
dual incidence matrix, so equivalence classes are the cosets of the sum
of the two row spaces (the cocycle spaces U and U*).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from . import gf2
from .embedded import EmbeddedGraph
from .gf2 import GF2Matrix


@dataclass(frozen=True)
class SpaceSummary:
    """Dimension bookkeeping for one graph, plus the resulting class count."""

    vertex_count: int
    edge_count: int
    face_count: int
    genus: int
    dim_cocycle: int
    dim_dual_cocycle: int
    dim_cycle: int
    dim_sum: int
    dim_intersection: int
    bicycle_dim: int
    class_exponent: int

    @property
    def class_count(self) -> int:
        return 1 << self.class_exponent


def cycle_space(g: EmbeddedGraph) -> GF2Matrix:
    """Basis of the cycle space, the kernel of the incidence matrix."""
    return gf2.kernel_basis(g.incidence_matrix)


def bicycle_space(g: EmbeddedGraph) -> GF2Matrix:
    """Basis of the bicycle space, the intersection of cut and cycle space."""
    return gf2.row_space_intersection_basis(g.incidence_matrix, g.derived(cycle_space))


# Every caller asks for one graph's moves several times in a row, so one
# entry serves them all; more would only keep old graphs alive.  The
# benchmark worker (perfbench/bench_worker.py) reads cache_info() around
# every op, so this cache stays until the benchmark counts hits another way
# (ROADMAP item 1).
@lru_cache(maxsize=1)
def moves_matrix(g: EmbeddedGraph) -> GF2Matrix:
    """All move generators stacked: incidence rows over dual incidence rows."""
    return gf2.stack(g.incidence_matrix, g.dual_incidence_matrix)


def coloring_from_string(g: EmbeddedGraph, bits: str) -> int:
    if len(bits) != g.edge_count:
        raise ValueError(f"coloring must have length {g.edge_count}, got {len(bits)}")
    return gf2.vector_from_string(bits)


def coloring_to_string(g: EmbeddedGraph, w: int) -> str:
    return gf2.vector_to_string(w, g.edge_count)


def exact_decimal(value: int | Fraction) -> str:
    """A count or rational value in decimal, exact at any size.

    ``str`` of an int over 4300 digits raises under Python's default
    int-to-string limit; ``Decimal`` converts without it and leaves the
    interpreter setting alone.  A Fraction reads as ``str(Fraction)``
    prints it: the numerator, then ``/`` and the denominator unless it is 1.
    """
    if isinstance(value, Fraction):
        text = exact_decimal(value.numerator)
        return text if value.denominator == 1 else f"{text}/{exact_decimal(value.denominator)}"
    return str(Decimal(value))


def _coloring(edge_count: int, w: int) -> int:
    """w itself, once it is checked to be a coloring of ``edge_count`` edges."""
    if w < 0 or w >> edge_count:
        raise ValueError("coloring length does not match the edge count")
    return w


def _index(kind: str, i: int, count: int) -> int:
    """i itself, once it is checked to be one of ``count`` vertex or face indices."""
    if not 0 <= i < count:
        raise IndexError(f"{kind} index {i} out of range")
    return i


def apply_vertex_move(g: EmbeddedGraph, w: int, vertex: int) -> int:
    """Switch the colors of all non-loop edges at the vertex."""
    return _coloring(g.edge_count, w) ^ g.incidence_matrix.rows[_index("vertex", vertex, g.vertex_count)]


def apply_face_move(g: EmbeddedGraph, w: int, face: int) -> int:
    """Switch the colors of the edges appearing once on the face boundary."""
    return _coloring(g.edge_count, w) ^ g.dual_incidence_matrix.rows[_index("face", face, g.face_count)]


def class_exponent(g: EmbeddedGraph) -> int:
    """log2 of the class count: the codimension of U + U*.

    The one rank of ``moves_matrix``; every other reader of rank(U + U*)
    takes it from ``g.derived(class_exponent)``.
    """
    return g.edge_count - gf2.rank(moves_matrix(g))


def class_count_direct(g: EmbeddedGraph) -> int:
    """Number of equivalence classes, counted by linear algebra alone."""
    return 1 << g.derived(class_exponent)


def same_class(g: EmbeddedGraph, w1: int, w2: int) -> bool:
    """True iff the two colorings differ by a sequence of moves."""
    u = _coloring(g.edge_count, w1) ^ _coloring(g.edge_count, w2)
    return gf2.in_row_space(moves_matrix(g), u)


def signature_basis(g: EmbeddedGraph) -> GF2Matrix:
    """Canonical basis of (U + U*)^perp, the dual side of the class space.

    Taken in reduced echelon form so signatures are stable across runs.
    Its row count is the class exponent.
    """
    return gf2.rref(gf2.kernel_basis(moves_matrix(g)))[0]


def class_signature(basis: GF2Matrix, w: int) -> int:
    """Complete class invariant: inner products of w with ``basis``.

    ``basis`` is ``signature_basis(g)``, computed once for any number of
    colorings of g.  Two colorings have equal signatures iff ``same_class``
    holds.
    """
    return gf2.parities(basis, _coloring(basis.ncols, w))


def incident_faces(g: EmbeddedGraph, vertex: int) -> list[int]:
    """The faces around a vertex, ascending; every face when it has no darts."""
    face_of = g.faces.face_of_dart
    rot = g.rotations[_index("vertex", vertex, g.vertex_count)]
    return sorted({face_of[d] for d in rot}) or list(range(g.face_count))


def bot_matrix(g: EmbeddedGraph, vertex: int | None = None, face: int | None = None) -> GF2Matrix:
    """Both incidence matrices stacked with one row deleted from each.

    This is the adjacency description of the balanced overlaid Tait graph
    obtained by deleting the chosen vertex, an incident face, and their
    edges.  Deleting any incident pair leaves the row space U + U*.
    Defaults: the lowest-index vertex and its lowest-index incident face.
    """
    if vertex is None:
        vertex = 0
    incident = incident_faces(g, vertex)
    if face is None:
        face = incident[0]
    if _index("face", face, g.face_count) not in incident:
        raise ValueError(f"face {face} is not incident to vertex {vertex}")
    rows = tuple(r for i, r in enumerate(g.incidence_matrix.rows) if i != vertex)
    dual_rows = tuple(r for i, r in enumerate(g.dual_incidence_matrix.rows) if i != face)
    return GF2Matrix(g.edge_count, rows + dual_rows)


def summarize(g: EmbeddedGraph) -> SpaceSummary:
    dim_u = gf2.rank(g.incidence_matrix)
    dim_us = gf2.rank(g.dual_incidence_matrix)
    dim_sum = g.edge_count - g.derived(class_exponent)
    return SpaceSummary(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        face_count=g.face_count,
        genus=g.genus,
        dim_cocycle=dim_u,
        dim_dual_cocycle=dim_us,
        dim_cycle=g.edge_count - dim_u,
        dim_sum=dim_sum,
        dim_intersection=dim_u + dim_us - dim_sum,
        bicycle_dim=g.derived(bicycle_space).nrows,
        class_exponent=g.edge_count - dim_sum,
    )
