"""Brute-force orbit sweep: the referee for both counting routes."""

from __future__ import annotations

from itertools import count
from random import Random

import pytest

from bicolorgame import oracle, spaces
from bicolorgame.errors import EdgeCapError, InternalInvariantError
from bicolorgame.fixtures import fixture_names, load_fixture
from bicolorgame.homology import class_count_homology
from bicolorgame.oracle import enumerate_classes, orbit_of
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
    rng = Random(23)
    graphs = [load_fixture(name) for name in fixture_names()] + random_batch + planar_batch
    for g in graphs:
        census = enumerate_classes(g)
        expected = reference_census(g)
        assert (census.class_count, census.orbit_size, census.representatives) == expected
        probes = census.representatives[:4] + (rng.randrange(1 << g.edge_count),)
        for w in probes:
            assert orbit_of(g, w) == reference_orbit(g, w)


def test_torus_grid_census(torus_grid):
    census = enumerate_classes(torus_grid)
    assert census.class_count == 8
    assert census.orbit_size == 2**6
    assert len(census.representatives) == 8


def test_square_handles_census(square_handles):
    census = enumerate_classes(square_handles)
    assert census.class_count == 8
    assert census.orbit_size == 2**5


def test_single_vertex_census():
    census = enumerate_classes(load_fixture("single_vertex"))
    assert census.class_count == 1
    assert census.orbit_size == 1
    assert census.representatives == (0,)
    assert orbit_of(load_fixture("single_vertex"), 0) == {0}


def test_orbit_of_zero(torus_grid):
    orbit = orbit_of(torus_grid, 0)
    assert len(orbit) == 64
    # the orbit is exactly the span of the move generators
    span = {0}
    for row in torus_grid.incidence_matrix.rows + torus_grid.dual_incidence_matrix.rows:
        span |= {s ^ row for s in span}
    assert orbit == span


def test_representatives_minimal_and_inequivalent(torus_grid):
    census = enumerate_classes(torus_grid)
    for i, w in enumerate(census.representatives):
        assert w == min(orbit_of(torus_grid, w))
        for w2 in census.representatives[i + 1:]:
            assert not spaces.same_class(torus_grid, w, w2)


def test_orbits_are_cosets(small_random_batch):
    rng = Random(17)
    for g in small_random_batch[:12]:
        span = {0}
        for row in g.incidence_matrix.rows + g.dual_incidence_matrix.rows:
            span |= {s ^ row for s in span}
        for _ in range(3):
            w = rng.randrange(1 << g.edge_count)
            orbit = orbit_of(g, w)
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
        assert orbit_of(g, w) == {w ^ s for s in span}


def test_census_agrees_with_both_routes(small_random_batch):
    for g in small_random_batch:
        census = enumerate_classes(g)
        assert census.class_count == spaces.class_count_direct(g)
        assert census.class_count == class_count_homology(g)
        assert census.class_count * census.orbit_size == 1 << g.edge_count


def test_cap(torus_grid):
    with pytest.raises(EdgeCapError):
        enumerate_classes(torus_grid, edge_cap=5)
    with pytest.raises(EdgeCapError):
        orbit_of(torus_grid, 0, edge_cap=5)


def test_coloring_length_check(torus_grid):
    with pytest.raises(ValueError):
        orbit_of(torus_grid, 1 << 9)


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
    assert {min(o) for o in orbits} == set(census.representatives)
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
    rng = Random(29)
    for g in wide_orbits:
        census = enumerate_classes(g)
        expected = reference_census(g)
        assert (census.class_count, census.orbit_size, census.representatives) == expected
        assert census.orbit_size >= 1 << 15
        for w in (census.representatives[-1], rng.randrange(1 << g.edge_count)):
            assert orbit_of(g, w) == reference_orbit(g, w)


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
    with pytest.raises(InternalInvariantError, match="doubling did not mark"):
        orbit_of(torus_grid, 0)


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
