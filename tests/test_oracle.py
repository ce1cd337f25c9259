"""Brute-force orbit sweep: the referee for both counting routes."""

from __future__ import annotations

from itertools import count
from random import Random

import pytest

from bicolorgame import oracle, spaces
from bicolorgame.errors import EdgeCapError, InternalInvariantError
from bicolorgame.fixtures import fixture_names, load_fixture
from bicolorgame.homology import class_count_homology
from bicolorgame.oracle import enumerate_classes
from bicolorgame.random_graphs import random_planar_graph


def move_generators(g) -> list[int]:
    return sorted((set(g.incidence_matrix.rows) | set(g.dual_incidence_matrix.rows)) - {0})


def reference_orbit(g, w: int) -> set[int]:
    """Reference: BFS closure that holds the whole orbit in a set."""
    gens = move_generators(g)
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for gen in gens:
                v = u ^ gen
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def reference_census(g) -> tuple[int, int, tuple[int, ...]]:
    """Reference: (class count, orbit size, representatives) by an ascending sweep."""
    gens = move_generators(g)
    total = 1 << g.edge_count
    visited = bytearray(total)
    representatives = []
    sizes = set()
    for w in range(total):
        if visited[w]:
            continue
        representatives.append(w)
        size = 0
        frontier = [w]
        visited[w] = 1
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
        sizes.add(size)
    (orbit_size,) = sizes
    return len(representatives), orbit_size, tuple(representatives)


def test_census_and_orbits_match_the_reference(random_batch, planar_batch):
    graphs = [load_fixture(name) for name in fixture_names()] + random_batch + planar_batch
    for g in graphs:
        census = enumerate_classes(g)
        expected = reference_census(g)
        assert (census.class_count, census.orbit_size, tuple(census.representatives())) == expected


def test_torus_grid_census(torus_grid):
    census = enumerate_classes(torus_grid)
    assert census.class_count == 8
    assert census.orbit_size == 2**6
    assert len(list(census.representatives())) == 8


def test_square_handles_census(square_handles):
    census = enumerate_classes(square_handles)
    assert census.class_count == 8
    assert census.orbit_size == 2**5


def test_single_vertex_census():
    census = enumerate_classes(load_fixture("single_vertex"))
    assert census.class_count == 1
    assert census.orbit_size == 1
    assert list(census.representatives()) == [0]


def test_the_marks_are_the_census(torus_grid):
    # 2 on each representative, 1 elsewhere; read back twice, and kept out of == and hash
    census = enumerate_classes(torus_grid)
    marks, total = census.marks, 1 << torus_grid.edge_count
    assert len(marks) == total
    assert marks.count(2) == 8 and marks.count(1) == total - 8
    assert list(census.representatives()) == [w for w, m in enumerate(marks) if m == 2]
    assert list(census.representatives()) == list(census.representatives())
    again = enumerate_classes(torus_grid)
    assert again == census and hash(again) == hash(census)
    assert again.marks is not marks
    assert repr(census) == "OrbitCensus(edge_count=9, class_count=8, orbit_size=64)"


def test_representatives_minimal_and_inequivalent(torus_grid):
    representatives = list(enumerate_classes(torus_grid).representatives())
    for i, w in enumerate(representatives):
        assert w == min(reference_orbit(torus_grid, w))
        for w2 in representatives[i + 1:]:
            assert not spaces.same_class(torus_grid, w, w2)


def test_orbits_are_cosets(small_random_batch):
    rng = Random(17)
    for g in small_random_batch[:12]:
        span = {0}
        for row in g.incidence_matrix.rows + g.dual_incidence_matrix.rows:
            span |= {s ^ row for s in span}
        for _ in range(3):
            w = rng.randrange(1 << g.edge_count)
            orbit = reference_orbit(g, w)
            assert orbit == {w ^ s for s in span}
            # same_class agrees with orbit membership
            probe = rng.randrange(1 << g.edge_count)
            assert (probe in orbit) == spaces.same_class(g, w, probe)


def test_orbit_law_exhaustive(two_triangles):
    # every one of the 2^8 colorings has orbit exactly its move-space coset
    g = two_triangles
    span = {0}
    for row in g.incidence_matrix.rows + g.dual_incidence_matrix.rows:
        span |= {s ^ row for s in span}
    for w in range(1 << g.edge_count):
        assert reference_orbit(g, w) == {w ^ s for s in span}


def test_census_agrees_with_both_routes(small_random_batch):
    for g in small_random_batch:
        census = enumerate_classes(g)
        assert census.class_count == spaces.class_count_direct(g)
        assert census.class_count == class_count_homology(g)
        assert census.class_count * census.orbit_size == 1 << g.edge_count


def test_cap(torus_grid):
    with pytest.raises(EdgeCapError):
        enumerate_classes(torus_grid, edge_cap=5)


def test_census_independent_of_generator_order(two_triangles):
    # re-run the closure with the generators in reverse and the sweep
    # descending: the partition (sizes and class membership) must agree
    g = two_triangles
    gens = sorted(
        (set(g.incidence_matrix.rows) | set(g.dual_incidence_matrix.rows)) - {0},
        reverse=True,
    )
    total = 1 << g.edge_count
    visited = bytearray(total)
    orbits = []
    for w in range(total - 1, -1, -1):
        if visited[w]:
            continue
        orbit = {w}
        frontier = [w]
        visited[w] = 1
        while frontier:
            nxt = []
            for u in frontier:
                for gen in gens:
                    v = u ^ gen
                    if not visited[v]:
                        visited[v] = 1
                        orbit.add(v)
                        nxt.append(v)
            frontier = nxt
        orbits.append(frozenset(orbit))
    census = enumerate_classes(g)
    assert len(orbits) == census.class_count
    assert {min(o) for o in orbits} == set(census.representatives())
    assert all(len(o) == census.orbit_size for o in orbits)


@pytest.fixture(scope="module")
def wide_orbits() -> list:
    """Two plane graphs with E = 17 and orbits of 2^16 and 2^15: more
    doubling generators than the sweep lists, so it also walks the rest."""
    rng = Random(17)
    graphs = []
    while len(graphs) < 2:
        g = random_planar_graph(rng, max_edges=17)
        if g.edge_count == 17 and spaces.class_count_direct(g) > 1:
            graphs.append(g)
    return graphs


def test_census_and_orbits_match_the_reference_beyond_the_listed_sums(wide_orbits):
    for g in wide_orbits:
        census = enumerate_classes(g)
        expected = reference_census(g)
        assert (census.class_count, census.orbit_size, tuple(census.representatives())) == expected
        assert census.orbit_size >= 1 << 15


def _repeating(real, mutate=lambda call: True):
    """A Gray walk that yields its first sum again in place of its last."""
    calls = count()

    def walk(w, basis):
        sums = list(real(w, basis))
        if mutate(next(calls)) and len(sums) > 1:
            sums[-1] = sums[0]
        return iter(sums)

    return walk


def test_a_repeated_sum_in_the_doubling_is_caught(monkeypatch, torus_grid):
    monkeypatch.setattr(oracle, "_gray_walk", _repeating(oracle._gray_walk))
    with pytest.raises(InternalInvariantError, match="doubling did not mark"):
        enumerate_classes(torus_grid)


@pytest.mark.parametrize("part", [0, 1], ids=["listed", "walked"])
def test_a_repeated_sum_in_the_sweep_is_caught(monkeypatch, wide_orbits, part):
    # the doubling runs as is; then only the walk of one part repeats a sum
    real_walk, real_double = oracle._gray_walk, oracle._double

    def double_then_mutate(gens, visited):
        basis = real_double(gens, visited)
        monkeypatch.setattr(oracle, "_gray_walk", _repeating(real_walk, part.__eq__))
        return basis

    monkeypatch.setattr(oracle, "_double", double_then_mutate)
    with pytest.raises(InternalInvariantError, match="does not cover the coloring space"):
        enumerate_classes(wide_orbits[1])
