"""Ribbon polynomial enumeration, exact evaluation, and the rank oracle."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from random import Random

import pytest
from conftest import (
    WORST_BOUQUET,
    WORST_SIMPLE_GRAPH,
    digon_chain,
    interlaced_bouquet,
    random_bouquet,
    random_simple_graph,
    shuffled_torus_grid,
)

import bicolorgame.brt as brt_module
from bicolorgame import spaces
from bicolorgame.brt import (
    TrivariatePolynomial,
    brt_by_sweep,
    brt_polynomial,
    medial_component_count_via_brt,
    tutte_eval,
    whitney_rank_polynomial,
)
from bicolorgame.cli import main
from bicolorgame.embedded import EmbeddedGraph, format_rotation_system
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
    monkeypatch.setattr(brt_module, "brt_by_sweep", no_enumeration)
    monkeypatch.setattr(brt_module, "_transfer", no_enumeration)
    message = "9 edges exceeds the enumeration cap 8"
    for enumerate_subsets in (brt_polynomial, whitney_rank_polynomial):
        with pytest.raises(EdgeCapError, match=message):
            enumerate_subsets(torus_grid, edge_cap=8)
    # the sweep oracle takes no cap: it always checks the default one,
    # before it reads the darts
    with monkeypatch.context() as m, pytest.raises(EdgeCapError, match=message):
        m.setattr(brt_module, "DEFAULT_EDGE_CAP", 8)
        m.setattr(EmbeddedGraph, "alpha", property(no_enumeration))
        brt_by_sweep(torus_grid)
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
    # the transfer's BRT must equal the Gray-code sweep in all three
    # variables, and the rank polynomial must equal the sweep at z = 1;
    # at E = 20 the bouquet's one vertex of degree 40 gives the sweep its
    # longest corner walks, and the genus-5 draw on 5 vertices its
    # component searches
    degenerate = [EmbeddedGraph(rot, darts) for rot, darts in DEGENERATE.values()]
    fixtures = [load_fixture(name) for name in fixture_names()]
    large = [
        interlaced_bouquet(10),
        random_embedded_graph(Random(383), max_vertices=6, max_edges=20),
    ]
    assert [(g.edge_count, g.genus) for g in large] == [(20, 10), (20, 5)]
    for g in [*fixtures, *degenerate, interlaced_bouquet(8), *large, *random_batch, *planar_batch]:
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


def test_planar_tutte_counts_bicycles(planar_batch, random_batch):
    # |T(-1,-1)| = 2^(bicycle dim) holds on every surface, not only the plane
    graphs = planar_batch[:30] + [g for g in random_batch if g.genus > 0]
    for g in graphs:
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


def _evaluate_term_by_term(p: TrivariatePolynomial, x, y, z) -> Fraction:
    """Reference: one Fraction product per monomial, summed in Fractions."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    total = Fraction(0)
    for (a, b, c), coeff in p.coeffs.items():
        total += coeff * x**a * y**b * z**c
    return total


def test_evaluate_over_one_denominator_matches_the_fraction_sum(torus_grid):
    rng = Random(21)
    nines = Fraction("9" * 1000)
    points = [
        Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 4), Fraction(-7, 3),
        Fraction(5, -6), nines, -nines, 1 / nines, nines / 7,
    ]
    polynomials = [
        TrivariatePolynomial({}),
        TrivariatePolynomial({(0, 0, 0): 5}),
        TrivariatePolynomial({(0, 2, 0): -3, (1, 0, 4): 2}),
        TrivariatePolynomial(TORUS_GRID_BRT),
    ]
    for _ in range(40):
        terms = rng.randint(1, 8)
        polynomials.append(TrivariatePolynomial({
            (rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)): rng.randint(-50, 50)
            for _ in range(terms)
        }))
    for p in polynomials:
        for _ in range(6):
            point = [rng.choice(points) for _ in range(3)]
            value = p.evaluate(*point)
            assert type(value) is Fraction
            assert value == _evaluate_term_by_term(p, *point)
    # exponent 0 at x = 0 is 0^0 = 1, and the empty polynomial is 0
    assert TrivariatePolynomial({(0, 1, 0): 3}).evaluate(0, 2, 0) == 6
    assert TrivariatePolynomial({(1, 0, 0): 3, (0, 0, 0): -1}).evaluate(0, 0, 0) == -1
    assert TrivariatePolynomial({}).evaluate(nines, -nines, Fraction(1, 4)) == 0
    assert type(TrivariatePolynomial({}).evaluate(1, 1, 1)) is Fraction
    assert brt_polynomial(torus_grid).evaluate(nines, nines, 1) == _evaluate_term_by_term(
        brt_polynomial(torus_grid), nines, nines, 1
    )


def test_tutte_traces_no_faces(monkeypatch, torus_grid, tmp_path, capsys):
    want = brt_polynomial(torus_grid).evaluate(Fraction(-2), Fraction(-2), Fraction(1))

    def no_face_tracing(g):
        raise AssertionError("tutte_eval traced sub-ribbon faces")

    monkeypatch.setattr(brt_module, "brt_by_sweep", no_face_tracing)
    assert tutte_eval(torus_grid, -1, -1) == want
    path = tmp_path / "torus_grid.rot"
    path.write_text(fixture_text("torus_grid"), encoding="utf-8")
    assert main(["tutte", "--eval", "-1", "-1", str(path)]) == 0
    assert capsys.readouterr().out == f"{want}\n"


def test_brt_traces_no_per_subset_faces(monkeypatch, torus_grid, tmp_path, capsys):
    def no_face_tracing(g):
        raise AssertionError("a subset's faces were re-traced")

    monkeypatch.setattr(brt_module, "brt_by_sweep", no_face_tracing)
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


def test_coefficients_must_be_integers():
    # int() would keep 2.5 as 2
    for coeff in (2.5, "2"):
        with pytest.raises(TypeError):
            TrivariatePolynomial({(0, 0, 0): coeff})
    assert TrivariatePolynomial({(0, 0, 0): True}).coeffs == {(0, 0, 0): 1}


def test_exponents_must_be_integers():
    # 0.5 would be kept and print as x, failing only in evaluate
    for key in ((0.5, 0, 0), (0, "1", 0), (0, 0, 1.0)):
        with pytest.raises(TypeError):
            TrivariatePolynomial({key: 1})
    assert TrivariatePolynomial({(True, 0, 0): 1}).coeffs == {(1, 0, 0): 1}


# -- bridges and loops, decided by the transfer like any other edge ----------------


def random_tree(rng: Random, vertices: int) -> EmbeddedGraph:
    """A tree on ``vertices`` vertices, each joined to an earlier one drawn
    by ``rng``, with shuffled rotations."""
    rotations: list[list[int]] = [[] for _ in range(vertices)]
    for v in range(1, vertices):
        rotations[rng.randrange(v)].append(2 * v - 2)
        rotations[v].append(2 * v - 1)
    for rot in rotations:
        rng.shuffle(rot)
    return EmbeddedGraph(rotations, [(2 * j, 2 * j + 1) for j in range(vertices - 1)])


def bouquet_with_pendants(seed: int, loops: int, pendants: int) -> EmbeddedGraph:
    """``random_bouquet(seed, loops)`` with ``pendants`` pendant edges, each
    to its own leaf, their darts inserted into the rotation by ``Random(seed)``."""
    rng = Random(seed)
    rotation = list(random_bouquet(seed, loops).rotations[0])
    edges = [(2 * j, 2 * j + 1) for j in range(loops + pendants)]
    for j in range(loops, loops + pendants):
        rotation.insert(rng.randrange(len(rotation) + 1), 2 * j)
    leaves = [(2 * j + 1,) for j in range(loops, loops + pendants)]
    return EmbeddedGraph([rotation, *leaves], edges)


def digon_chain_with_pendant_loops(k: int) -> EmbeddedGraph:
    """``digon_chain(k)`` with an adjacent loop at each vertex, a loop around
    one digon dart, and a pendant edge from the last vertex to a leaf that
    carries a loop."""
    chain = digon_chain(k)
    rotations = [list(rot) for rot in chain.rotations]
    edges = list(chain.edge_darts)
    dart = 4 * k
    for rot in rotations:
        rot[:0] = [dart, dart + 1]
        edges.append((dart, dart + 1))
        dart += 2
    rotations[1][2:3] = [dart, rotations[1][2], dart + 1]
    edges.append((dart, dart + 1))
    rotations[k].append(dart + 2)
    rotations.append([dart + 3, dart + 4, dart + 5])
    edges += [(dart + 2, dart + 3), (dart + 4, dart + 5)]
    return EmbeddedGraph(rotations, edges)


def test_transfer_matches_sweep_on_bridges_and_loops():
    # bridges, pendant trees, and loops nested around pendant edges and
    # around other loops, each decided by the transfer like any other edge
    tree = random_tree(Random(11), 12)
    path = EmbeddedGraph(*DEGENERATE["path"])
    # a triangle 0-1-2; at vertex 0 two nested loops around a pendant path
    # 0-3-4 whose leaf carries a loop; at vertex 1 an adjacent loop around
    # which a nested loop sits, and a pendant edge to vertex 5
    plane = EmbeddedGraph(
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
    assert plane.genus == 0
    # loop (0, 1) has the pendant edge 2-3 between its darts, and loop
    # (4, 5) has that loop and the pendant edge 6-7 between its darts
    cascade = EmbeddedGraph([[4, 0, 2, 1, 5, 6], [3], [7]], [(0, 1), (2, 3), (4, 5), (6, 7)])
    # the same around two interleaved loops
    interleaved = EmbeddedGraph(
        [[4, 0, 2, 1, 5, 6, 7, 8, 9], [3]], [(0, 1), (2, 3), (4, 5), (6, 8), (7, 9)]
    )
    # the bouquets' loops reach the sweep's second corner walk, and the
    # simple graphs its component searches
    draws = [random_bouquet(s, 12) for s in range(40)]
    draws += [random_simple_graph(s, 7, 14) for s in range(40)]
    for g in (tree, path, plane, cascade, interleaved, digon_chain_with_pendant_loops(3), *draws):
        swept = brt_by_sweep(g)
        assert brt_polynomial(g) == swept
        assert whitney_rank_polynomial(g) == swept.specialize_z_one()
    for g in (tree, path):
        m = g.edge_count
        assert dict(brt_polynomial(g).coeffs) == {(i, 0, 0): comb(m, i) for i in range(m + 1)}
    want = {(a, b, 0): comb(2, a) * comb(2, b) for a in range(3) for b in range(3)}
    assert dict(brt_polynomial(cascade).coeffs) == want  # (1+x)^2 (1+y)^2


# The counter that the Gray-code sweep replaced, kept as its reference.


def reference_subset_counter(g):
    """Reference: the counter that rebuilds sigma_H and re-traces every dart, per mask."""
    index_of = {d: i for i, d in enumerate(sorted(g.alpha))}
    alpha_ix = [index_of[g.alpha[d]] for d in index_of]
    edge_ix = [g.dart_edge[d] for d in index_of]
    rot_ix = [[index_of[d] for d in rot] for rot in g.rotations]
    endpoints = [g.endpoints[j] for j in range(g.edge_count)]
    nv = g.vertex_count
    nd = len(alpha_ix)
    sigma_sub = [0] * nd
    seen = [0] * nd
    parent = list(range(nv))
    stamp = 0

    def count(mask: int) -> tuple[int, int]:
        nonlocal stamp
        stamp += 1
        # component count via union-find over all vertices
        parent[:] = range(nv)
        k = nv
        for j, (u, w) in enumerate(endpoints):
            if not (mask >> j) & 1:
                continue
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            if u != w:
                parent[u] = w
                k -= 1
        # restricted rotation successor and isolated-vertex faces
        faces = 0
        for rot in rot_ix:
            first = -1
            prev = -1
            for d in rot:
                if (mask >> edge_ix[d]) & 1:
                    if first < 0:
                        first = d
                    else:
                        sigma_sub[prev] = d
                    prev = d
            if first < 0:
                faces += 1
            else:
                sigma_sub[prev] = first
        # face orbits of d -> sigma_sub(alpha(d)) over present darts
        for start in range(nd):
            if not (mask >> edge_ix[start]) & 1 or seen[start] == stamp:
                continue
            d = start
            while seen[d] != stamp:
                seen[d] = stamp
                d = sigma_sub[alpha_ix[d]]
            faces += 1
        return k, faces

    return count


def sweep_census(g):
    """The sweep's subset counts by (k, |H|, f), read back from its polynomial.

    A term x^a y^b z^c counts the subsets with k = a + 1 components,
    |H| = b + V - k edges and f = 2k - V + |H| - 2c faces.
    """
    nv = g.vertex_count
    census = {}
    for (a, b, c), count in brt_by_sweep(g).coeffs.items():
        k = a + 1
        e = b + nv - k
        census[(k, e, 2 * k - nv + e - 2 * c)] = count
    return census


# The depth-first walk that the transfer replaced, kept as the reference.


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


def test_census_matches_the_reference_walk_at_e18():
    rng = Random(17)
    mixed = [draw(lambda: random_embedded_graph(rng, max_vertices=8, max_edges=18)) for _ in range(2)]
    plane = draw(lambda: random_planar_graph(rng, max_edges=18))
    for g in (*mixed, plane):
        for faces in (True, False):
            assert brt_module._transfer(g, faces) == reference_census(g, faces)


def relabelled(g: EmbeddedGraph, rng: Random) -> tuple[EmbeddedGraph, dict[int, int]]:
    """``g`` with new dart labels, its vertices and edges listed in a new
    order, each edge's darts in either order and each rotation started at
    a new dart: the same embedded graph.  Also the map of the dart labels."""
    darts = sorted(g.alpha)
    label = dict(zip(darts, rng.sample(range(3 * len(darts)), len(darts))))
    rotations = []
    for rot in g.rotations:
        i = rng.randrange(len(rot)) if rot else 0
        rotations.append([label[d] for d in rot[i:] + rot[:i]])
    rng.shuffle(rotations)
    edges = [(label[a], label[b])[:: rng.choice((1, -1))] for a, b in g.edge_darts]
    rng.shuffle(edges)
    return EmbeddedGraph(rotations, edges), label


def test_relabelling_changes_the_order_but_not_the_polynomials(random_batch):
    rng = Random(0x1AB)
    graphs = [EmbeddedGraph(rot, darts) for rot, darts in DEGENERATE.values()] + random_batch
    reordered = 0
    for g in graphs:
        h, label = relabelled(g, rng)
        assert brt_polynomial(h) == brt_polynomial(g)
        assert whitney_rank_polynomial(h) == whitney_rank_polynomial(g)
        # h's order in g's edges: the tie-breaks by index now fall elsewhere
        back = {new: old for old, new in label.items()}
        order = [g.dart_edge[back[h.edge_darts[j][0]]] for j in brt_module._order(h)]
        reordered += order != brt_module._order(g)
    assert reordered > len(graphs) // 4


def rotated(g: EmbeddedGraph) -> EmbeddedGraph:
    """``g`` with every rotation started one dart later: the same embedding
    and the same edge order, with another first dart at every vertex of
    degree two or more."""
    return EmbeddedGraph(tuple(rot[1:] + rot[:1] for rot in g.rotations), g.edge_darts)


def test_where_a_rotation_starts_changes_no_polynomial(random_batch):
    # A fresh vertex enters the transfer as its rotation as stored.  At the
    # cap, where a sweep of 2^26 subsets is too slow here, the shifted
    # graph is checked against the transfer on the graph as drawn.
    fixtures = [load_fixture(name) for name in fixture_names()]
    for g in random_batch + fixtures:
        h = rotated(g)
        assert brt_polynomial(h) == brt_polynomial(g) == brt_by_sweep(h)
        assert whitney_rank_polynomial(h) == whitney_rank_polynomial(g)
    for g in (random_bouquet(*WORST_BOUQUET), random_simple_graph(*WORST_SIMPLE_GRAPH)):
        h = rotated(g)
        assert h.rotations != g.rotations
        assert brt_polynomial(h) == brt_polynomial(g)
        assert whitney_rank_polynomial(h) == whitney_rank_polynomial(g)


def test_routes_agree_at_the_edge_cap():
    # 2^26 subsets each: the sum, the strand count and the bicycle count
    # checked where no sweep reaches, on the worst graphs found for the
    # transfer and on bridges and pendant edges among loops
    rng = Random(89)
    graphs = [
        digon_chain(13),
        interlaced_bouquet(13),
        random_bouquet(*WORST_BOUQUET),
        random_simple_graph(*WORST_SIMPLE_GRAPH),
        draw(lambda: random_embedded_graph(rng, max_vertices=12, max_edges=26), edges=26),
        random_tree(Random(26), 27),
        bouquet_with_pendants(20, 20, 6),
    ]
    for g in graphs:
        brt = brt_polynomial(g)
        rank = whitney_rank_polynomial(g)
        assert sum(brt.coeffs.values()) == sum(rank.coeffs.values()) == 1 << 26
        strands = trace_medial(g).count
        assert abs(brt.evaluate(-2, -2, Fraction(1, 4))) == 1 << (strands - 1)
        assert abs(tutte_eval(g, -1, -1)) == 1 << spaces.summarize(g).bicycle_dim


def test_transfer_above_the_cap_on_tables_of_many_states():
    # one table per step above the cap, of up to 5682 BRT states on the
    # 4x4 torus grid and 23784 rank states on the 5x5 grid
    g = shuffled_torus_grid(Random(4), 4)
    p = brt_polynomial(g, edge_cap=32)
    assert sum(p.coeffs.values()) == 1 << 32
    assert abs(p.evaluate(-2, -2, Fraction(1, 4))) == 1 << (trace_medial(g).count - 1)
    assert p.specialize_z_one() == whitney_rank_polynomial(g, edge_cap=32)
    g = shuffled_torus_grid(Random(5), 5)
    r = whitney_rank_polynomial(g, edge_cap=50)
    assert sum(r.coeffs.values()) == 1 << 50
    assert abs(r.evaluate(-2, -2, 1)) == 1 << spaces.summarize(g).bicycle_dim


def test_transfer_above_the_cap_matches_the_digon_chain_closed_form():
    # One digon gives x + 2 + y and one-point joins multiply, so a plane
    # chain of k digons has BRT = (x + 2 + y)^k: the coefficient of x^a y^b
    # is k! / (a! b! (k - a - b)!) * 2^(k - a - b), and no term has z.
    k = 80
    want = {
        (a, b, 0): factorial(k) // (factorial(a) * factorial(b) * factorial(k - a - b)) << (k - a - b)
        for a in range(k + 1) for b in range(k + 1 - a)
    }
    g = digon_chain(k)
    assert brt_polynomial(g, edge_cap=2 * k).coeffs == want
    assert whitney_rank_polynomial(g, edge_cap=2 * k).coeffs == want


def test_transfer_above_the_cap_in_bounded_memory(tmp_path):
    # the census holds only the indices reached: a dense one over
    # (V + 1)(E + 1)(V + E + 1) slots outgrows 256 MB at E = 400
    resource = pytest.importorskip("resource")
    p = tmp_path / "digons.rot"
    p.write_text(format_rotation_system(digon_chain(200)), encoding="utf-8")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from bicolorgame.brt import brt_polynomial\n"
        "from bicolorgame.embedded import parse_rotation_system\n"
        "with open(sys.argv[1], encoding='utf-8') as fh:\n"
        "    g = parse_rotation_system(fh.read())\n"
        "print(brt_polynomial(g, edge_cap=400).evaluate(-2, -2, Fraction(1, 4)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(p)],
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-1024:]
    assert abs(int(proc.stdout)) == 1 << 200
