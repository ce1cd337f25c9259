"""Counting classes through the first homology of the surface.

A spanning tree T of the graph together with a co-tree C (a spanning tree
of the dual avoiding the duals of T) leaves exactly 2g edges.  Each
leftover edge closes a unique cycle inside the co-tree, read off one walk
of C from a root; pairing cycles of the graph with these 2g dual
fundamental cycles realizes the projection from the cycle space onto H_1
of the surface over GF(2), whose kernel is the dual cut space.  Restricted
to the strand space of the medial graph, the kernel comes from one
elimination of the strand vectors beside their images, and its dimension
b yields the class count 2^(2g + b).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from random import Random
from typing import Iterable

from . import gf2
from .embedded import EmbeddedGraph
from .errors import InternalInvariantError
from .gf2 import GF2Matrix
from .medial import trace_medial


@dataclass(frozen=True)
class TreeCotree:
    """A spanning tree, a disjoint dual spanning tree, and the 2g leftovers."""

    tree_edges: tuple[int, ...]
    cotree_edges: tuple[int, ...]
    leftover_edges: tuple[int, ...]


def tree_cotree(
    g: EmbeddedGraph,
    tree_edges: Iterable[int] | None = None,
    rng: Random | None = None,
) -> TreeCotree:
    """Choose T, C and the 2g leftover edges.

    T and C are Kruskal trees (``EmbeddedGraph.spanning_forest``) over one
    edge order, C on the dual with the edges of T left out.  By default
    the order is ascending, so T is the lowest-index spanning tree; pass
    ``tree_edges`` to replay a specific spanning tree, or ``rng`` to
    shuffle the order, which reaches every (T, C) pair.  The co-tree
    always exists for a cellular embedding; failure to span the dual is
    reported as an internal error.
    """
    nv = g.vertex_count
    order = list(range(g.edge_count))
    if rng is not None:
        rng.shuffle(order)
    if tree_edges is not None:
        supplied = list(map(operator.index, tree_edges))
        tree = sorted(set(supplied))
        if len(tree) != len(supplied):
            raise ValueError("repeated edge in the supplied spanning tree")
        for j in tree:
            if not 0 <= j < g.edge_count:
                raise ValueError(f"edge index {j} out of range")
        if len(tree) != nv - 1:
            raise ValueError(f"a spanning tree needs {nv - 1} edges, got {len(tree)}")
        if len(g.spanning_forest(tree)) != nv - 1:
            raise ValueError("supplied edges do not form a spanning tree")
    else:
        tree = g.spanning_forest(order)
        if len(tree) != nv - 1:
            raise InternalInvariantError("failed to span a connected graph")

    dual = g.dual()
    tree_set = set(tree)
    cotree = dual.spanning_forest(j for j in order if j not in tree_set)
    if len(cotree) != dual.vertex_count - 1:
        raise InternalInvariantError("co-tree failed to span the dual graph")
    used = tree_set | set(cotree)
    leftover = tuple(j for j in range(g.edge_count) if j not in used)
    if len(leftover) != 2 * g.genus:
        raise InternalInvariantError(
            f"expected {2 * g.genus} leftover edges, found {len(leftover)}"
        )
    return TreeCotree(tuple(sorted(tree)), tuple(sorted(cotree)), leftover)


def fundamental_dual_cycles(g: EmbeddedGraph, tc: TreeCotree) -> GF2Matrix:
    """Row i: the unique cycle that ``tc.leftover_edges[i]`` closes in the co-tree.

    One walk through the co-tree from dual vertex 0 records, for every
    dual vertex, the co-tree edges on its path to that root.  Leftover
    edge j with ends u, w closes ``1 << j ^ path[u] ^ path[w]``: the shared
    part of the two paths cancels, and a dual loop gives ``1 << j``.
    """
    dual = g.dual()
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(dual.vertex_count)]
    for j in tc.cotree_edges:
        u, w = dual.endpoints[j]
        adjacency[u].append((w, j))
        adjacency[w].append((u, j))
    path = [-1] * dual.vertex_count  # -1: not reached yet
    path[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for w, j in adjacency[u]:
            if path[w] < 0:
                path[w] = path[u] | (1 << j)
                stack.append(w)
    if -1 in path:
        raise InternalInvariantError("co-tree does not span the dual graph")
    cycles = []
    for j in tc.leftover_edges:
        u, w = dual.endpoints[j]
        cycles.append((1 << j) ^ path[u] ^ path[w])
    return GF2Matrix(g.edge_count, tuple(cycles))


def homology_image(g: EmbeddedGraph, cycles: GF2Matrix, u: int) -> int:
    """Image of a cycle u in H_1: inner products with the fundamental cycles.

    The formula is only well defined on the cycle space, so membership is
    checked rather than trusted, by ``EmbeddedGraph.is_cycle``.
    """
    if not g.is_cycle(u):
        raise ValueError("vector is not in the cycle space")
    return gf2.parities(cycles, u)


def strand_basis(g: EmbeddedGraph) -> GF2Matrix:
    """The first c - 1 trace vectors of ``g``'s medial trace, checked once
    per graph when read as ``g.derived(strand_basis)``.

    Any strand's vector is the sum of all the others, so these rows span
    the strand space and must be independent; each must also be a cycle
    of ``g``, since the homology image is defined only on cycles.  A
    tracing fault that breaks either raises InternalInvariantError, the
    rank first.  The rows stay in trace order: this is not an RREF basis.
    """
    basis = GF2Matrix(g.edge_count, g.derived(trace_medial).trace_vectors[:-1])
    if gf2.rank(basis) != basis.nrows:
        raise InternalInvariantError("strand trace vectors are rank deficient")
    if not all(map(g.is_cycle, basis.rows)):
        raise InternalInvariantError("a strand vector is not a cycle")
    return basis


def strand_image_matrix(g: EmbeddedGraph, cycles: GF2Matrix) -> tuple[GF2Matrix, GF2Matrix]:
    """(strand basis, its homology images against ``cycles``); rows correspond pairwise.

    ``strand_basis`` has already checked that its rows are cycles, so each
    image is the plain parity product with the fundamental cycles.
    """
    basis = g.derived(strand_basis)
    images = tuple(gf2.parities(cycles, v) for v in basis.rows)
    return basis, GF2Matrix(cycles.nrows, images)


def strand_kernel_basis(g: EmbeddedGraph, tc: TreeCotree | None = None) -> GF2Matrix:
    """Basis (in edge coordinates) of the strand vectors that die in homology.

    The canonical RREF basis of the strand vectors whose images cancel,
    from one elimination of the strands beside their images.  Without
    ``tc`` the default tree/co-tree is used, and that kernel is computed
    once per graph (``EmbeddedGraph.derived``).
    """
    if tc is None:
        return g.derived(_default_strand_kernel)
    cycles = fundamental_dual_cycles(g, tc)
    return gf2.cancelling(*strand_image_matrix(g, cycles))


def _default_strand_kernel(g: EmbeddedGraph) -> GF2Matrix:
    return strand_kernel_basis(g, g.derived(tree_cotree))


def class_count_homology(g: EmbeddedGraph) -> int:
    """Number of equivalence classes counted as 2^(2g + b)."""
    return 1 << (2 * g.genus + strand_kernel_basis(g).nrows)
