"""Canonical class representatives for plane graphs.

For a plane graph the strand space of the medial graph equals the bicycle
space, and one can pick one edge per basis strand vector witnessing it
(an edge where that vector has a 1 and the earlier ones have 0).  The
characteristic vectors of these edges represent all 2^(c-1) classes.
Nothing of the sort is available on higher genus.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2, spaces
from .embedded import EmbeddedGraph
from .errors import EdgeCapError, InternalInvariantError, UnsupportedError
from .medial import strand_space, trace_medial
from .oracle import DEFAULT_EDGE_CAP


@dataclass(frozen=True)
class RepresentativeSet:
    """Distinguished edges and the 2^|edges| colorings they generate.

    ``colorings[s]`` is the sum of the characteristic vectors of the
    edges selected by the bits of s, so the all-zero coloring comes first.
    """

    edge_count: int
    edges: tuple[int, ...]
    colorings: tuple[int, ...]


def planar_representatives(g: EmbeddedGraph) -> RepresentativeSet:
    """Pick the distinguished edge set via echelon pivots of the strand basis.

    The 2^(c-1) colorings are listed, so c - 1 may not exceed the orbit
    sweep's cap: beyond it :class:`EdgeCapError` is raised before any is built.
    """
    if g.genus != 0:
        raise UnsupportedError(
            "canonical representatives are only defined for plane graphs (genus 0)"
        )
    basis = strand_space(trace_medial(g))
    if not gf2.row_space_equal(basis, spaces.bicycle_space(g)):
        raise InternalInvariantError("strand space differs from the bicycle space at genus 0")
    if basis.nrows > DEFAULT_EDGE_CAP:
        raise EdgeCapError(
            f"{basis.nrows} representative edges give 2^{basis.nrows} colorings;"
            f" the cap is 2^{DEFAULT_EDGE_CAP}"
        )
    reduced, pivots = gf2.rref(basis)
    # pivot columns: the reduced vector j has a 1 there and all others 0,
    # which is the required witness property in its strongest form
    chars = tuple(1 << p for p in pivots)
    colorings = []
    for mask in range(1 << len(chars)):
        w = 0
        for i, ch in enumerate(chars):
            if (mask >> i) & 1:
                w ^= ch
        colorings.append(w)
    return RepresentativeSet(g.edge_count, pivots, tuple(colorings))


def verify_representatives(g: EmbeddedGraph, rs: RepresentativeSet) -> bool:
    """Check the set hits every class exactly once, via class signatures."""
    if g.genus != 0:
        raise UnsupportedError("representative verification is defined for plane graphs")
    if len(rs.colorings) != spaces.class_count_direct(g):
        return False
    signatures = {spaces.class_signature(g, w) for w in rs.colorings}
    return len(signatures) == len(rs.colorings)
