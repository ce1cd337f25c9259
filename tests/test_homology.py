"""Tree/co-tree decomposition, dual fundamental cycles, the homology count."""

from __future__ import annotations

import dataclasses
from random import Random

import pytest

from bicolorgame import gf2, spaces
from bicolorgame.embedded import EmbeddedGraph
from bicolorgame.errors import InternalInvariantError
from bicolorgame.fixtures import fixture_names, load_fixture
from bicolorgame.homology import (
    class_count_homology,
    fundamental_dual_cycles,
    homology_image,
    strand_basis,
    strand_image_matrix,
    strand_kernel_basis,
    tree_cotree,
)
from bicolorgame.medial import trace_medial


def prim_spanning_tree(
    vertex_count: int, endpoints: list[tuple[int, int]], allowed: list[int]
) -> list[int]:
    """Reference: grow a tree from vertex 0, lowest allowed frontier edge first.

    An O(V * E) Prim loop, independent of the union-find in
    ``EmbeddedGraph.spanning_forest``; a partial tree means the allowed
    edges do not span.
    """
    reached = [False] * vertex_count
    reached[0] = True
    tree: list[int] = []
    in_tree: set[int] = set()
    while len(tree) < vertex_count - 1:
        candidates = [
            j for j in allowed
            if j not in in_tree and reached[endpoints[j][0]] != reached[endpoints[j][1]]
        ]
        if not candidates:
            return tree
        j = candidates[0]
        tree.append(j)
        in_tree.add(j)
        u, w = endpoints[j]
        reached[u] = reached[w] = True
    return tree


def endpoints_of(g: EmbeddedGraph) -> list[tuple[int, int]]:
    return [g.endpoints[j] for j in range(g.edge_count)]


def prim_tree_cotree(g: EmbeddedGraph) -> tuple[tuple[int, ...], ...]:
    """Reference (T, C, leftovers): Prim trees over the edges in index order."""
    tree = prim_spanning_tree(g.vertex_count, endpoints_of(g), list(range(g.edge_count)))
    dual = g.dual()
    in_tree = set(tree)
    rest = [j for j in range(g.edge_count) if j not in in_tree]
    cotree = prim_spanning_tree(dual.vertex_count, endpoints_of(dual), rest)
    used = in_tree | set(cotree)
    leftover = tuple(j for j in range(g.edge_count) if j not in used)
    return tuple(sorted(tree)), tuple(sorted(cotree)), leftover


def assert_valid_tree_cotree(g: EmbeddedGraph, tc) -> None:
    """T spans the graph, C spans the dual without T, the rest number 2g."""
    tree, cotree = list(tc.tree_edges), list(tc.cotree_edges)
    assert len(tree) == g.vertex_count - 1
    assert len(prim_spanning_tree(g.vertex_count, endpoints_of(g), tree)) == len(tree)
    dual = g.dual()
    assert len(cotree) == dual.vertex_count - 1
    assert len(prim_spanning_tree(dual.vertex_count, endpoints_of(dual), cotree)) == len(cotree)
    assert not set(tree) & set(cotree)
    used = set(tree) | set(cotree)
    assert tc.leftover_edges == tuple(j for j in range(g.edge_count) if j not in used)
    assert len(tc.leftover_edges) == 2 * g.genus


def test_replayed_tree_choice(square_handles):
    tc = tree_cotree(square_handles, tree_edges=(0, 2, 3, 4, 6))
    assert tc.tree_edges == (0, 2, 3, 4, 6)
    assert tc.cotree_edges == (1,)
    assert tc.leftover_edges == (5, 7)


@pytest.mark.parametrize("wrap", [list, iter], ids=["list", "iterator"])
def test_replayed_tree_from_any_iterable(square_handles, wrap):
    # the supplied edges are read once, so a one-shot iterator replays too
    tc = tree_cotree(square_handles, tree_edges=wrap((0, 2, 3, 4, 6)))
    assert (tc.tree_edges, tc.cotree_edges) == ((0, 2, 3, 4, 6), (1,))


def test_fundamental_cycles_replayed_tree(square_handles):
    tc = tree_cotree(square_handles, tree_edges=(0, 2, 3, 4, 6))
    cycles = fundamental_dual_cycles(square_handles, tc)
    assert list(cycles.row_strings()) == ["00000100", "00000001"]


def test_strand_images_replayed_tree(square_handles):
    tc = tree_cotree(square_handles, tree_edges=(0, 2, 3, 4, 6))
    cycles = fundamental_dual_cycles(square_handles, tc)
    mc = trace_medial(square_handles)
    images = [
        gf2.vector_to_string(homology_image(square_handles, cycles, v), 2)
        for v in mc.trace_vectors
    ]
    assert images == ["10", "10", "01", "01"]
    _, image_matrix = strand_image_matrix(square_handles, cycles)
    assert gf2.rank(image_matrix) == 2
    assert strand_kernel_basis(square_handles, tc).nrows == 1


def test_class_counts(square_handles, torus_grid, two_triangles):
    assert class_count_homology(square_handles) == 8
    assert class_count_homology(torus_grid) == 8
    assert class_count_homology(two_triangles) == 4


def test_torus_grid_leftovers(torus_grid):
    tc = tree_cotree(torus_grid)
    assert len(tc.leftover_edges) == 2
    assert strand_kernel_basis(torus_grid).nrows == 1


def test_tree_disjointness_invariants(random_batch):
    for g in random_batch[:60]:
        tc = tree_cotree(g)
        assert len(tc.tree_edges) == g.vertex_count - 1
        assert len(tc.cotree_edges) == g.face_count - 1
        assert not set(tc.tree_edges) & set(tc.cotree_edges)
        assert len(tc.tree_edges) + len(tc.cotree_edges) + 2 * g.genus == g.edge_count


def test_tree_graph_decomposition():
    g = load_fixture("sphere_path")
    tc = tree_cotree(g)
    assert tc.tree_edges == (0, 1)
    assert tc.cotree_edges == ()
    assert tc.leftover_edges == ()
    assert fundamental_dual_cycles(g, tc).rows == ()


def test_default_tree_is_the_prim_tree(random_batch, large_graphs):
    graphs = random_batch + [load_fixture(name) for name in fixture_names()]
    graphs += list(large_graphs.values())
    for g in graphs:
        tc = tree_cotree(g)
        assert (tc.tree_edges, tc.cotree_edges, tc.leftover_edges) == prim_tree_cotree(g)


def test_shuffled_trees_are_valid_and_vary(torus_grid, random_batch):
    trees = set()
    for seed in range(6):
        tc = tree_cotree(torus_grid, rng=Random(seed))
        assert_valid_tree_cotree(torus_grid, tc)
        trees.add(tc.tree_edges)
    assert len(trees) >= 2
    rng = Random(5)
    for g in random_batch[:60]:
        assert_valid_tree_cotree(g, tree_cotree(g, rng=rng))


def test_every_tree_is_a_kruskal_tree(random_batch):
    # An order listing a spanning tree's edges first yields that tree, so
    # shuffling the order can reach every spanning tree.
    rng = Random(11)
    for g in random_batch[:60]:
        tree = list(tree_cotree(g, rng=rng).tree_edges)
        rng.shuffle(tree)
        rest = [j for j in range(g.edge_count) if j not in set(tree)]
        assert g.spanning_forest(tree + rest) == tree


def test_invalid_supplied_tree(square_handles):
    with pytest.raises(ValueError, match="spanning tree needs"):
        tree_cotree(square_handles, tree_edges=(0, 1))
    with pytest.raises(ValueError, match="do not form a spanning tree"):
        tree_cotree(square_handles, tree_edges=(0, 1, 2, 3, 6))  # contains the square cycle


def test_supplied_tree_edges_must_be_integers(torus_grid):
    # int() would read 0.9, 1.9, 2.9 as the tree (0, 1, 2)
    for edges in ([0.9, 1.9, 2.9], ["0", "1", "2"]):
        with pytest.raises(TypeError):
            tree_cotree(torus_grid, tree_edges=edges)


def test_cycles_lie_in_dual_cycle_space(random_batch):
    # Leftover edge j plus co-tree edges, and a cycle of the dual: the
    # co-tree plus j holds exactly one such cycle, so this fixes each row.
    rng = Random(0xD0A1)
    for g in random_batch:
        for tc in (tree_cotree(g), tree_cotree(g, rng=rng)):
            cycles = fundamental_dual_cycles(g, tc)
            assert cycles.nrows == len(tc.leftover_edges)
            allowed = sum(1 << e for e in tc.cotree_edges)
            for j, p in zip(tc.leftover_edges, cycles.rows):
                assert (p >> j) & 1
                assert p & ~(1 << j) & ~allowed == 0
                for row in g.dual_incidence_matrix.rows:
                    assert gf2.dot(row, p) == 0


def test_cotree_that_misses_a_dual_vertex_is_an_internal_error(torus_grid, square_handles):
    for g in (torus_grid, square_handles):
        tc = tree_cotree(g)
        short = dataclasses.replace(tc, cotree_edges=tc.cotree_edges[:-1])
        with pytest.raises(InternalInvariantError, match="does not span the dual"):
            fundamental_dual_cycles(g, short)


def test_image_kills_dual_cuts(square_handles):
    tc = tree_cotree(square_handles)
    cycles = fundamental_dual_cycles(square_handles, tc)
    for row in square_handles.dual_incidence_matrix.rows:
        assert homology_image(square_handles, cycles, row) == 0
    assert homology_image(square_handles, cycles, 0) == 0


def test_image_rejects_non_cycles(square_handles):
    tc = tree_cotree(square_handles)
    cycles = fundamental_dual_cycles(square_handles, tc)
    with pytest.raises(ValueError, match="cycle space"):
        homology_image(square_handles, cycles, 1)  # a single edge is not a cycle here


def test_image_raises_exactly_off_the_cycle_space(random_batch):
    # Random vectors, cycle-basis vectors, and cycles plus loop edges (a
    # loop is a cycle on its own), against the incidence-row definition.
    rng = Random(0xC1C)
    for g in random_batch:
        cycles = fundamental_dual_cycles(g, tree_cotree(g))
        loops = [j for j in range(g.edge_count) if len(set(g.endpoints[j])) == 1]
        kernel = gf2.kernel_basis(g.incidence_matrix).rows
        vectors = [rng.getrandbits(g.edge_count) for _ in range(8)] + list(kernel)
        for v in kernel:
            vectors += [v ^ (1 << j) for j in loops]
            vectors.append(v ^ rng.getrandbits(g.edge_count))
        for u in vectors:
            odd = any(gf2.dot(row, u) for row in g.incidence_matrix.rows)
            if odd:
                with pytest.raises(ValueError, match="not in the cycle space"):
                    homology_image(g, cycles, u)
            else:
                image = homology_image(g, cycles, u)
                assert image == sum(gf2.dot(p, u) << i for i, p in enumerate(cycles.rows))


def test_kernel_on_cycle_space_is_dual_cut_space(random_batch):
    for g in random_batch[:30]:
        tc = tree_cotree(g)
        fundamental = fundamental_dual_cycles(g, tc)
        cycles = gf2.kernel_basis(g.incidence_matrix)
        images = gf2.GF2Matrix(
            len(tc.leftover_edges),
            tuple(homology_image(g, fundamental, v) for v in cycles.rows),
        )
        kernel_dim = cycles.nrows - gf2.rank(images)
        assert kernel_dim == gf2.rank(g.dual_incidence_matrix)
        assert cycles.nrows - gf2.rank(g.dual_incidence_matrix) == 2 * g.genus


def test_kernel_equals_intersection_subspace(random_batch):
    for g in random_batch[:40]:
        if g.edge_count == 0:
            continue
        kernel = strand_kernel_basis(g)
        inter = gf2.row_space_intersection_basis(g.incidence_matrix, g.dual_incidence_matrix)
        # both are reduced echelon forms, which are unique to a row space
        assert kernel.rows == inter.rows


def test_kernel_is_every_strand_combination_with_zero_image(random_batch):
    # Brute force: all 2^(c-1) sums of strand basis vectors, the image of
    # each sum the XOR of the basis images; the zero-image sums are the kernel.
    for g in random_batch:
        cycles = fundamental_dual_cycles(g, tree_cotree(g))
        sums = [(0, 0)]
        for v in strand_basis(g).rows:
            image = homology_image(g, cycles, v)
            sums += [(w ^ v, i ^ image) for w, i in sums]
        kernel = [w for w, i in sums if i == 0]
        dim = len(kernel).bit_length() - 1
        assert len(kernel) == 1 << dim
        want, _ = gf2.rref(gf2.GF2Matrix(g.edge_count, tuple(kernel)))
        assert strand_kernel_basis(g).rows == want.rows
        assert strand_kernel_basis(g).nrows == dim == want.nrows


def test_dual_side_kernel_matches(random_batch):
    for g in random_batch[:30]:
        if g.edge_count == 0:
            continue
        assert strand_kernel_basis(g).rows == strand_kernel_basis(g.dual()).rows


def test_genus_zero_kernel_is_whole_strand_space(planar_batch):
    for g in planar_batch[:20]:
        if g.edge_count == 0:
            continue
        c = trace_medial(g).count
        assert strand_kernel_basis(g).nrows == c - 1
        assert strand_kernel_basis(g).nrows == spaces.bicycle_space(g).nrows


def test_b_independent_of_tree_choice(square_handles, torus_grid):
    for g in (square_handles, torus_grid):
        b = strand_kernel_basis(g).nrows
        for seed in range(6):
            tc = tree_cotree(g, rng=Random(seed))
            assert strand_kernel_basis(g, tc).nrows == b


def test_counts_match_direct_on_random_batch(random_batch):
    for g in random_batch:
        assert class_count_homology(g) == spaces.class_count_direct(g)
