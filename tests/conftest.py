"""Shared fixtures: the bundled graphs and seeded random rotation systems."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from bicolorgame.embedded import EmbeddedGraph
from bicolorgame.fixtures import load_fixture
from bicolorgame.random_graphs import random_embedded_graph, random_planar_graph


@pytest.fixture(scope="session")
def torus_grid() -> EmbeddedGraph:
    return load_fixture("torus_grid")


@pytest.fixture(scope="session")
def square_handles() -> EmbeddedGraph:
    return load_fixture("torus_square_handles")


@pytest.fixture(scope="session")
def two_triangles() -> EmbeddedGraph:
    return load_fixture("plane_two_triangles")


@pytest.fixture(scope="session")
def torus_rose() -> EmbeddedGraph:
    return load_fixture("torus_rose")


@pytest.fixture(scope="session")
def random_batch() -> list[EmbeddedGraph]:
    """208 random connected rotation systems, |E| <= 12, mixed genus."""
    rng = Random(0xB1C0)
    return [random_embedded_graph(rng, max_vertices=6, max_edges=12) for _ in range(208)]


@pytest.fixture(scope="session")
def planar_batch() -> list[EmbeddedGraph]:
    """56 random planar rotation systems, |E| <= 12."""
    rng = Random(0x9E45)
    return [random_planar_graph(rng, max_edges=12) for _ in range(56)]


@pytest.fixture(scope="session")
def small_random_batch(random_batch) -> list[EmbeddedGraph]:
    """Subset with few enough edges for exhaustive coloring sweeps."""
    return [g for g in random_batch if g.edge_count <= 10][:40]


def shuffled_torus_grid(rng: Random, n: int) -> EmbeddedGraph:
    """The n x n grid on the torus with its edges relabelled at random.

    Edge j joins darts 2j (tail) and 2j + 1 (head); every vertex sees its
    east, north, west and south edges in that order.
    """
    label = list(range(2 * n * n))
    rng.shuffle(label)
    rotations = []
    for i in range(n):
        for k in range(n):
            east = label[2 * (i * n + k)]
            north = label[2 * (i * n + k) + 1]
            west = label[2 * (i * n + (k - 1) % n)]
            south = label[2 * (((i - 1) % n) * n + k) + 1]
            rotations.append((2 * east, 2 * north, 2 * west + 1, 2 * south + 1))
    return EmbeddedGraph(tuple(rotations), tuple((2 * j, 2 * j + 1) for j in range(2 * n * n)))


def digon_chain(k: int) -> EmbeddedGraph:
    """k digons in a row in the plane: vertices 0..k, two parallel edges
    between i and i + 1, so 2^k classes and 2k edges."""
    rotations: list[list[int]] = [[] for _ in range(k + 1)]
    for i in range(k):
        a, b = 4 * i, 4 * i + 2
        rotations[i] += [a, b]
        rotations[i + 1] += [b + 1, a + 1]
    edge_darts = tuple((d, d + 1) for d in range(0, 4 * k, 2))
    return EmbeddedGraph(tuple(map(tuple, rotations)), edge_darts)


def interlaced_bouquet(pairs: int) -> EmbeddedGraph:
    """One vertex with ``pairs`` interlaced loop pairs: genus ``pairs``, one
    face, no moves, so 2^(2 * pairs) classes.

    Pair k is edges 2k and 2k + 1 on darts 4k..4k + 3, in rotation order
    a b a' b'.
    """
    edge_darts = []
    for k in range(pairs):
        edge_darts += [(4 * k, 4 * k + 2), (4 * k + 1, 4 * k + 3)]
    return EmbeddedGraph((tuple(range(4 * pairs)),), tuple(edge_darts))


def long_decimal(value: int | Fraction) -> str:
    """Reference rendering of an int or Fraction, as str() would give it
    with no digit limit: 18 digits at a time, each chunk far below it."""
    value = Fraction(value)
    sign, rest, chunks = "-" * (value < 0), abs(value.numerator), []
    while True:
        rest, low = divmod(rest, 10**18)
        chunks.append(low)
        if not rest:
            break
    text = sign + str(chunks[-1]) + "".join(f"{c:018d}" for c in reversed(chunks[:-1]))
    return text if value.denominator == 1 else f"{text}/{long_decimal(value.denominator)}"


def high_genus_graph(rng: Random) -> EmbeddedGraph:
    """The first ``random_embedded_graph`` draw with E >= 1000."""
    while True:
        g = random_embedded_graph(rng, max_vertices=300, max_edges=1200)
        if g.edge_count >= 1000:
            return g


@pytest.fixture(scope="session")
def large_graphs() -> dict[str, EmbeddedGraph]:
    """A shuffled 32x32 torus grid (E = 2048) and a high-genus draw (E = 1139)."""
    return {
        "torus-grid-32": shuffled_torus_grid(Random(32), 32),
        "random-high-genus": high_genus_graph(Random(1000)),
    }
