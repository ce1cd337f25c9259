"""Ribbon polynomial enumeration, exact evaluation, and the rank oracle."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from random import Random

import pytest
from conftest import digon_chain

import bicolorgame.brt as brt_module
from bicolorgame.brt import (
    TrivariatePolynomial,
    brt_by_sweep,
    brt_polynomial,
    medial_component_count_via_brt,
    tutte_eval,
    whitney_rank_polynomial,
)
from bicolorgame.cli import main
from bicolorgame.embedded import EmbeddedGraph
from bicolorgame.errors import EdgeCapError
from bicolorgame.fixtures import fixture_names, fixture_text, load_fixture
from bicolorgame.medial import trace_medial
from bicolorgame.random_graphs import random_embedded_graph, random_planar_graph

# frozen coefficient tables for the two torus fixtures
TORUS_GRID_BRT = {
    (3, 0, 0): 1, (2, 1, 0): 4, (2, 0, 0): 9, (1, 2, 0): 6, (1, 1, 0): 36,
    (1, 0, 0): 32, (0, 4, 0): 2, (0, 3, 0): 16, (0, 2, 0): 60, (0, 1, 0): 112,
    (0, 0, 0): 48, (1, 3, 1): 2, (1, 2, 1): 8, (0, 6, 1): 1, (0, 5, 1): 9,
    (0, 4, 1): 34, (0, 3, 1): 68, (0, 2, 1): 64,
}
SQUARE_HANDLES_BRT = {
    (5, 0, 0): 1, (4, 0, 0): 8, (3, 0, 0): 28, (2, 1, 0): 5, (2, 0, 0): 56,
    (1, 2, 0): 2, (1, 1, 0): 20, (1, 0, 0): 65, (0, 3, 1): 1, (0, 2, 1): 4,
    (0, 2, 0): 4, (0, 1, 0): 26, (0, 0, 0): 36,
}


def test_torus_grid_polynomial(torus_grid):
    p = brt_polynomial(torus_grid)
    assert dict(p.coeffs) == TORUS_GRID_BRT


def test_square_handles_polynomial(square_handles):
    p = brt_polynomial(square_handles)
    assert dict(p.coeffs) == SQUARE_HANDLES_BRT


def test_fixture_point_evaluations(torus_grid, square_handles):
    point = (Fraction(-2), Fraction(-2), Fraction(1, 4))
    assert brt_polynomial(torus_grid).evaluate(*point) == -4
    assert brt_polynomial(square_handles).evaluate(*point) == -8


def test_single_bridge():
    g = load_fixture("sphere_edge")
    p = brt_polynomial(g)
    assert dict(p.coeffs) == {(1, 0, 0): 1, (0, 0, 0): 1}  # x + 1
    assert tutte_eval(g, -1, -1) == -1
    assert tutte_eval(g, 2, 2) == 2


def test_single_loop():
    g = load_fixture("sphere_loop")
    assert tutte_eval(g, 2, 2) == 2  # T = y


def test_rose_by_hand_enumeration(torus_rose):
    # four subsets: {} -> 1, each single loop -> y (planar), both -> y^2 z
    p = brt_polynomial(torus_rose)
    assert dict(p.coeffs) == {(0, 0, 0): 1, (0, 1, 0): 2, (0, 2, 1): 1}
    assert medial_component_count_via_brt(torus_rose) == 2


def test_constant_term_and_eval_zero(torus_grid):
    p = brt_polynomial(torus_grid)
    assert p.evaluate(Fraction(0), Fraction(0), Fraction(0)) == p.coeffs[(0, 0, 0)] == 48


def test_component_counts_via_polynomial(torus_grid, square_handles, two_triangles):
    assert medial_component_count_via_brt(torus_grid) == 3
    assert medial_component_count_via_brt(square_handles) == 4
    assert medial_component_count_via_brt(two_triangles) == 3


def test_two_triangles_tutte(two_triangles):
    assert abs(tutte_eval(two_triangles, -1, -1)) == 4


def test_exponent_ranges(torus_grid, square_handles):
    for g in (torus_grid, square_handles):
        p = brt_polynomial(g)
        for (a, b, c) in p.coeffs:
            assert a >= 0 and b >= 0
            assert 0 <= c <= g.genus
        assert sum(p.coeffs.values()) == 2**g.edge_count


def test_edge_cap(monkeypatch, torus_grid, tmp_path, capsys):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the cap")

    # the cap is tested before any subset is enumerated, on every route
    monkeypatch.setattr(EmbeddedGraph, "subset_counter", no_enumeration)
    monkeypatch.setattr(brt_module, "_subset_census", no_enumeration)
    message = "9 edges exceeds the enumeration cap 8"
    for enumerate_subsets in (brt_polynomial, brt_by_sweep, whitney_rank_polynomial):
        with pytest.raises(EdgeCapError, match=message):
            enumerate_subsets(torus_grid, edge_cap=8)
    path = tmp_path / "torus_grid.rot"
    path.write_text(fixture_text("torus_grid"), encoding="utf-8")
    capsys.readouterr()
    for argv in (["brt", "--cap", "8"], ["tutte", "--eval", "1", "1", "--cap", "8"]):
        assert main([*argv, str(path)]) == 4
        assert capsys.readouterr().err == f"cap exceeded: {message}\n"
    monkeypatch.undo()
    assert dict(brt_polynomial(torus_grid, edge_cap=9).coeffs) == TORUS_GRID_BRT
    want = TrivariatePolynomial(TORUS_GRID_BRT).specialize_z_one()
    assert whitney_rank_polynomial(torus_grid, edge_cap=9) == want


# hand-built degenerate rotation systems: (rotations, edge darts)
DEGENERATE = {
    "one vertex, no edges": ([[]], []),
    "three nested loops": ([[0, 1, 2, 3, 4, 5]], [(0, 5), (1, 4), (2, 3)]),
    "three interleaved loops": ([[0, 1, 2, 3, 4, 5]], [(0, 3), (1, 4), (2, 5)]),
    "three parallel edges": ([[0, 2, 4], [5, 1, 3]], [(0, 1), (2, 3), (4, 5)]),
    "path": ([[0], [1, 2], [3, 4], [5]], [(0, 1), (2, 3), (4, 5)]),
    "bridge between two loops": ([[90, 7, 1000], [3, 41, 12]], [(7, 90), (1000, 3), (12, 41)]),
}


def test_z_one_specialization_matches_rank_oracle(random_batch, planar_batch):
    # the depth-first BRT must equal the per-mask sweep in all three
    # variables, and the rank polynomial must equal the sweep at z = 1
    degenerate = [EmbeddedGraph(rot, darts) for rot, darts in DEGENERATE.values()]
    fixtures = [load_fixture(name) for name in fixture_names()]
    for g in [*fixtures, *degenerate, *random_batch, *planar_batch]:
        swept = brt_by_sweep(g)
        assert brt_polynomial(g) == swept
        assert whitney_rank_polynomial(g) == swept.specialize_z_one()


def test_degenerate_polynomials():
    def coeffs(name):
        return dict(brt_polynomial(EmbeddedGraph(*DEGENERATE[name])).coeffs)

    assert coeffs("one vertex, no edges") == {(0, 0, 0): 1}
    # three nested loops are planar: (1 + y)^3
    assert coeffs("three nested loops") == {(0, 0, 0): 1, (0, 1, 0): 3, (0, 2, 0): 3, (0, 3, 0): 1}
    # any two interleaved loops form a torus: 1 + 3y + 3y^2 z + y^3 z
    assert coeffs("three interleaved loops") == {
        (0, 0, 0): 1, (0, 1, 0): 3, (0, 2, 1): 3, (0, 3, 1): 1,
    }
    assert coeffs("path") == {(3, 0, 0): 1, (2, 0, 0): 3, (1, 0, 0): 3, (0, 0, 0): 1}
    assert coeffs("bridge between two loops") == {
        (1, 0, 0): 1, (1, 1, 0): 2, (1, 2, 0): 1, (0, 0, 0): 1, (0, 1, 0): 2, (0, 2, 0): 1,
    }


def test_theorem_strand_count_random(random_batch):
    for g in random_batch[:60]:
        if g.edge_count == 0:
            continue
        assert medial_component_count_via_brt(g) == trace_medial(g).count


def test_planar_tutte_counts_bicycles(planar_batch):
    from bicolorgame import spaces

    for g in planar_batch[:30]:
        b = spaces.bicycle_space(g).nrows
        assert abs(tutte_eval(g, -1, -1)) == 1 << b


def test_tutte_routes_agree(torus_grid, random_batch):
    # tutte_eval enumerates the rank polynomial; the BRT polynomial at z = 1 is its check
    rng = Random(3)
    for g in [torus_grid, *random_batch[:60]]:
        brt = brt_polynomial(g)
        for _ in range(5):
            x = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            y = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            assert tutte_eval(g, x, y) == brt.evaluate(x - 1, y - 1, 1)


def test_tutte_traces_no_faces(monkeypatch, torus_grid, tmp_path, capsys):
    want = brt_polynomial(torus_grid).evaluate(Fraction(-2), Fraction(-2), Fraction(1))

    def no_face_tracing(self):
        raise AssertionError("tutte_eval traced sub-ribbon faces")

    monkeypatch.setattr(EmbeddedGraph, "subset_counter", no_face_tracing)
    assert tutte_eval(torus_grid, -1, -1) == want
    path = tmp_path / "torus_grid.rot"
    path.write_text(fixture_text("torus_grid"), encoding="utf-8")
    assert main(["tutte", "--eval", "-1", "-1", str(path)]) == 0
    assert capsys.readouterr().out == f"{want}\n"


def test_brt_traces_no_per_subset_faces(monkeypatch, torus_grid, tmp_path, capsys):
    def no_face_tracing(self):
        raise AssertionError("a subset's faces were re-traced")

    monkeypatch.setattr(EmbeddedGraph, "subset_counter", no_face_tracing)
    assert dict(brt_polynomial(torus_grid).coeffs) == TORUS_GRID_BRT
    assert medial_component_count_via_brt(torus_grid) == 3
    path = tmp_path / "torus_grid.rot"
    path.write_text(fixture_text("torus_grid"), encoding="utf-8")
    assert main(["brt", str(path), "--eval", "-2", "-2", "1/4"]) == 0
    assert capsys.readouterr().out == "-4\n"


def test_polynomial_string():
    p = TrivariatePolynomial({(1, 0, 0): 1, (0, 0, 0): 1})
    assert str(p) == "x + 1"
    q = TrivariatePolynomial({(0, 2, 1): 1, (0, 1, 0): 2, (0, 0, 0): 1})
    assert str(q) == "y^2 z + 2 y + 1"
    assert str(TrivariatePolynomial({})) == "0"
    assert str(TrivariatePolynomial({(0, 0, 0): -3, (2, 0, 0): 1})) == "x^2 - 3"


def test_rejects_negative_exponents():
    with pytest.raises(ValueError):
        TrivariatePolynomial({(-1, 0, 0): 1})


# -- peeling bridges and trivial loops ---------------------------------------------


def rank_polynomial(g, census):
    """Whitney's rank polynomial from a census by (k, |H|, 0)."""
    nv = g.vertex_count
    return TrivariatePolynomial({(k - 1, e - nv + k, 0): n for (k, e, _), n in census.items()})


def test_walk_matches_sweep_unpeeled(random_batch):
    # peeling takes most loops and every bridge away from the walk, so its
    # loop branches are checked here on graphs it sees whole
    graphs = [EmbeddedGraph(rot, darts) for rot, darts in DEGENERATE.values()]
    graphs += [load_fixture("sphere_loop"), load_fixture("sphere_edge"), *random_batch[:60]]
    for g in graphs:
        swept = brt_by_sweep(g)
        assert brt_module._ribbon_polynomial(g, brt_module._walk(g, faces=True)) == swept
        assert rank_polynomial(g, brt_module._walk(g, faces=False)) == swept.specialize_z_one()


@pytest.fixture
def core_sizes(monkeypatch):
    """Edge counts of the cores walked, in call order."""
    sizes = []
    walk = brt_module._walk

    def recording_walk(g, faces):
        sizes.append(g.edge_count)
        return walk(g, faces)

    monkeypatch.setattr(brt_module, "_walk", recording_walk)
    return sizes


def peeled_cores(g, sizes):
    """(core E with faces, core E without), each polynomial checked against the sweep."""
    sizes.clear()
    swept = brt_by_sweep(g)
    assert brt_polynomial(g) == swept
    assert whitney_rank_polynomial(g) == swept.specialize_z_one()
    return tuple(sizes)


def test_tree_peels_to_a_point(core_sizes):
    rng = Random(11)
    pairs = [(rng.randrange(v), v) for v in range(1, 12)]
    rotations = [[] for _ in range(12)]
    for j, (u, w) in enumerate(pairs):
        rotations[u].append(2 * j)
        rotations[w].append(2 * j + 1)
    for rot in rotations:
        rng.shuffle(rot)
    tree = EmbeddedGraph(rotations, [(2 * j, 2 * j + 1) for j in range(11)])
    for g in (tree, EmbeddedGraph(*DEGENERATE["path"])):
        assert peeled_cores(g, core_sizes) == (0, 0)
        m = g.edge_count
        assert dict(brt_polynomial(g).coeffs) == {(i, 0, 0): comb(m, i) for i in range(m + 1)}


def test_plane_graph_with_pendant_trees_and_nested_loops(core_sizes):
    # a triangle 0-1-2; at vertex 0 two nested loops around a pendant path
    # 0-3-4 whose leaf carries a loop; at vertex 1 an adjacent loop around
    # which a nested loop sits, and a pendant edge to vertex 5
    g = EmbeddedGraph(
        [
            [0, 10, 12, 6, 13, 11, 5],
            [1, 20, 14, 15, 21, 22, 2],
            [3, 4],
            [7, 8],
            [9, 16, 17],
            [23],
        ],
        [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15),
         (16, 17), (20, 21), (22, 23)],
    )
    assert g.genus == 0
    assert peeled_cores(g, core_sizes) == (3, 3)


def test_pendant_bridge_between_loop_darts_cascades(core_sizes):
    # loop (0, 1) has the pendant edge 2-3 between its darts, and loop
    # (4, 5) has that loop and the pendant edge 6-7 between its darts:
    # each becomes adjacent only once what it encloses is peeled
    cascade = EmbeddedGraph([[4, 0, 2, 1, 5, 6], [3], [7]], [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert peeled_cores(cascade, core_sizes) == (0, 0)
    want = {(a, b, 0): comb(2, a) * comb(2, b) for a in range(3) for b in range(3)}
    assert dict(brt_polynomial(cascade).coeffs) == want  # (1+x)^2 (1+y)^2
    # the same around two interleaved loops, which stay with faces
    rotation = [4, 0, 2, 1, 5, 6, 7, 8, 9]
    g = EmbeddedGraph([rotation, [3]], [(0, 1), (2, 3), (4, 5), (6, 8), (7, 9)])
    assert peeled_cores(g, core_sizes) == (2, 0)


def test_digon_chain_with_pendant_loops(core_sizes):
    k = 3
    chain = digon_chain(k)
    rotations = [list(rot) for rot in chain.rotations]
    edges = list(chain.edge_darts)
    dart = 4 * k
    for rot in rotations:  # a trivial loop at each vertex
        rot[:0] = [dart, dart + 1]
        edges.append((dart, dart + 1))
        dart += 2
    # a loop around one digon dart: not trivial, so it stays with faces
    rotations[1][2:3] = [dart, rotations[1][2], dart + 1]
    edges.append((dart, dart + 1))
    # a pendant edge from the last vertex to a leaf that carries a loop
    rotations[k].append(dart + 2)
    rotations.append([dart + 3, dart + 4, dart + 5])
    edges += [(dart + 2, dart + 3), (dart + 4, dart + 5)]
    g = EmbeddedGraph(rotations, edges)
    assert peeled_cores(g, core_sizes) == (2 * k + 1, 2 * k)


# The depth-first walk before peeling and leaves, kept as the reference.


def reference_census(g, faces):
    nv = g.vertex_count
    m = g.edge_count
    index_of = {d: i for i, d in enumerate(sorted(g.alpha))}
    alpha = [index_of[g.alpha[d]] for d in index_of]
    sigma_inv = [index_of[g.sigma_inv[d]] for d in index_of]
    dv = g.dart_vertex
    ends = [(dv[a], dv[b], index_of[a], index_of[b]) for a, b in g.edge_darts]
    parent = list(range(nv))
    rank = [0] * nv
    nxt = [-1] * len(alpha)
    prv = [-1] * len(alpha)
    degree = [0] * nv
    se = nv + m + 1 if faces else 1
    sk = (m + 1) * se
    census = [0] * ((nv + 1) * sk)

    def before(d):
        p = sigma_inv[d]
        while nxt[p] < 0:
            p = sigma_inv[p]
        return p

    def insert(d, p):
        if p < 0:
            nxt[d] = prv[d] = d
        else:
            s = nxt[p]
            nxt[p] = d
            prv[d] = p
            nxt[d] = s
            prv[s] = d

    def unlink(d):
        p, s = prv[d], nxt[d]
        nxt[p] = s
        prv[s] = p
        nxt[d] = -1

    def one_face(x, y):
        cx, cy = x, y
        while x != cy:
            x = nxt[alpha[x]]
            if x == cx:
                return False
            y = nxt[alpha[y]]
            if y == cx:
                return True
            if y == cy:
                return False
        return True

    def visit(first, index):
        for j in range(first, m):
            u, w, a, b = ends[j]
            ru = u
            while parent[ru] != ru:
                ru = parent[ru]
            rw = w
            while parent[rw] != rw:
                rw = parent[rw]
            joined = ru != rw
            if joined:
                if rank[ru] < rank[rw]:
                    ru, rw = rw, ru
                parent[rw] = ru
                bumped = rank[ru] == rank[rw]
                if bumped:
                    rank[ru] += 1
                step = se - sk
            else:
                step = se
            if faces:
                pa = before(a) if degree[u] else -1
                pb = before(b) if degree[w] else -1
                if not joined and (pa < 0 or one_face(nxt[pa], nxt[pb])):
                    step += 1
                else:
                    step -= 1
                insert(a, pa)
                degree[u] += 1
                if u == w and pa == pb:
                    pb = before(b)
                insert(b, pb)
                degree[w] += 1
            census[index + step] += 1
            if j + 1 < m:
                visit(j + 1, index + step)
            if faces:
                unlink(b)
                degree[w] -= 1
                unlink(a)
                degree[u] -= 1
            if joined:
                parent[rw] = rw
                if bumped:
                    rank[ru] -= 1

    root = nv * sk + (nv if faces else 0)
    census[root] = 1
    visit(0, root)
    out = {}
    for index, count in enumerate(census):
        if count:
            k, rest = divmod(index, sk)
            e, f = divmod(rest, se)
            out[(k, e, f)] = count
    return out


def draw(make, edges=18):
    """The first draw of ``make`` with the given edge count."""
    while True:
        g = make()
        if g.edge_count == edges:
            return g


def test_census_matches_the_reference_walk_at_e18(core_sizes):
    rng = Random(17)
    mixed = [draw(lambda: random_embedded_graph(rng, max_vertices=8, max_edges=18)) for _ in range(2)]
    plane = draw(lambda: random_planar_graph(rng, max_edges=18))
    for g in (*mixed, plane):
        for faces in (True, False):
            assert brt_module._subset_census(g, faces) == reference_census(g, faces)
    # the draws cover a core left whole with faces, and cores that peel
    assert core_sizes == [18, 17, 15, 13, 9, 8]
