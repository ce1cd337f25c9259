"""Canonical class representatives for plane graphs.

For a plane graph the strand space of the medial graph equals the bicycle
space, and one can pick one edge per basis strand vector witnessing it
(an edge where that vector has a 1 and the earlier ones have 0).  The
characteristic vectors of these edges represent all 2^(c-1) classes.
Nothing of the sort is available on higher genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import xor
from typing import Iterator

from . import gf2, spaces
from .embedded import EmbeddedGraph
from .errors import InternalInvariantError, UnsupportedError
from .homology import strand_basis


@dataclass(frozen=True)
class RepresentativeSet:
    """Distinguished edges; their 2^|edges| sums represent every class once."""

    edge_count: int
    edges: tuple[int, ...]

    def colorings(self) -> Iterator[int]:
        """Item s sums the edges selected by the bits of s; 0 comes first."""
        # from s - 1 to s exactly the bits up to the lowest set bit of s flip
        flips = list(accumulate((1 << e for e in self.edges), xor))
        w = 0
        yield w
        for s in range(1, 1 << len(flips)):
            w ^= flips[(s & -s).bit_length() - 1]
            yield w


def planar_representatives(g: EmbeddedGraph) -> RepresentativeSet:
    """Pick the distinguished edge set via echelon pivots of the strand basis."""
    if g.genus != 0:
        raise UnsupportedError(
            "canonical representatives are only defined for plane graphs (genus 0)"
        )
    # both sides in reduced echelon form, which is unique to a row space
    reduced, pivots = gf2.rref(g.derived(strand_basis))
    if reduced.rows != g.derived(spaces.bicycle_space).rows:
        raise InternalInvariantError("strand space differs from the bicycle space at genus 0")
    # pivot columns: the reduced vector j has a 1 there and all others 0,
    # which is the required witness property in its strongest form
    return RepresentativeSet(g.edge_count, pivots)


def verify_representatives(g: EmbeddedGraph, rs: RepresentativeSet) -> bool:
    """Check the sums of the edges hit every class exactly once.

    Class signatures are linear, so they do exactly when there are as many
    edges as the class exponent and the edges' signatures are independent.
    The signature of edge e is column e of the signature basis, so the
    b x b matrix of edge signatures is, transposed, the basis rows cut down
    to the edges' columns.  A repeated or zero-signature edge lowers its rank.
    """
    if g.genus != 0:
        raise UnsupportedError("representative verification is defined for plane graphs")
    basis = spaces.signature_basis(g)
    if len(rs.edges) != basis.nrows or not all(0 <= e < g.edge_count for e in rs.edges):
        return False
    mask = sum({1 << e for e in rs.edges})  # OR of the edge bits
    cut = gf2.GF2Matrix(g.edge_count, tuple(r & mask for r in basis.rows))
    return gf2.rank(cut) == basis.nrows
