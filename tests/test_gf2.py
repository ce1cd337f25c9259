"""GF(2) linear algebra: elimination, kernels, sums and intersections."""

from __future__ import annotations

from random import Random

import pytest

from bicolorgame import gf2
from bicolorgame.gf2 import GF2Matrix


def mat(rows, ncols=None):
    return GF2Matrix.from_strings(("".join(map(str, bits)) for bits in rows), ncols)


def random_matrix(rng: Random, nrows: int, ncols: int) -> GF2Matrix:
    return GF2Matrix(ncols, tuple(rng.getrandbits(ncols) for _ in range(nrows)))


def test_rank_identity():
    assert gf2.rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_zero_matrix():
    assert gf2.rank(GF2Matrix(5, (0, 0))) == 0
    assert gf2.rank(GF2Matrix(0, ())) == 0


def test_rank_figure_matrices(torus_grid, square_handles):
    assert gf2.rank(torus_grid.incidence_matrix) == 3
    assert gf2.rank(square_handles.incidence_matrix) == 5


def test_rref_identity():
    m = mat([[1, 0], [0, 1]])
    red, pivots = gf2.rref(m)
    assert red.rows == m.rows
    assert pivots == (0, 1)


def test_rref_repeated_rows(square_handles):
    red, pivots = gf2.rref(square_handles.dual_incidence_matrix)
    assert list(red.row_strings()) == ["11110000"]
    assert pivots == (0,)


def test_rref_idempotent_and_rank_preserving():
    rng = Random(7)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(0, 8), rng.randint(1, 12))
        red, pivots = gf2.rref(m)
        assert gf2.rank(red) == gf2.rank(m) == len(pivots)
        again, _ = gf2.rref(red)
        assert again.rows == red.rows
        assert list(pivots) == sorted(pivots)


def test_kernel_basis_dimensions(torus_grid, square_handles):
    assert gf2.kernel_basis(torus_grid.incidence_matrix).nrows == 6
    assert gf2.kernel_basis(square_handles.incidence_matrix).nrows == 3
    assert gf2.kernel_basis(mat([[1, 0], [0, 1]])).nrows == 0


def test_rank_nullity_and_kernel_orthogonality():
    rng = Random(11)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(0, 7), rng.randint(1, 14))
        ker = gf2.kernel_basis(m)
        assert gf2.rank(m) + ker.nrows == m.ncols
        for v in ker.rows:
            assert all(gf2.dot(row, v) == 0 for row in m.rows)
        # exhaustive converse on small kernels: members of the kernel space
        # are exactly the vectors annihilated by every row
        if ker.nrows <= 6:
            span = {0}
            for v in ker.rows:
                span |= {s ^ v for s in span}
            annihilated = {
                v for v in range(1 << m.ncols) if all(gf2.dot(r, v) == 0 for r in m.rows)
            } if m.ncols <= 10 else None
            if annihilated is not None:
                assert span == annihilated


def test_row_space_sum_dim(torus_grid, square_handles):
    assert gf2.rank(gf2.stack(torus_grid.incidence_matrix, torus_grid.dual_incidence_matrix)) == 6
    assert (
        gf2.rank(gf2.stack(square_handles.incidence_matrix, square_handles.dual_incidence_matrix))
        == 5
    )
    m = mat([[1, 1, 0], [0, 1, 1]])
    assert gf2.rank(gf2.stack(m, m)) == gf2.rank(m)


def test_row_space_sum_dim_mismatch():
    with pytest.raises(ValueError):
        gf2.stack(GF2Matrix(3, (1,)), GF2Matrix(4, (1,)))


def test_intersection_basis_fixtures(torus_grid, square_handles):
    inter = gf2.row_space_intersection_basis(
        torus_grid.incidence_matrix, torus_grid.dual_incidence_matrix
    )
    assert inter.nrows == 1
    inter5 = gf2.row_space_intersection_basis(
        square_handles.incidence_matrix, square_handles.dual_incidence_matrix
    )
    assert inter5.nrows == 1


def test_intersection_with_itself():
    m = mat([[1, 0, 1], [0, 1, 1]])
    assert gf2.row_space_intersection_basis(m, m).nrows == gf2.rank(m)


def test_intersection_dimension_identity():
    rng = Random(23)
    for _ in range(50):
        n = rng.randint(1, 10)
        a = random_matrix(rng, rng.randint(0, 6), n)
        b = random_matrix(rng, rng.randint(0, 6), n)
        inter = gf2.row_space_intersection_basis(a, b)
        assert gf2.rank(gf2.stack(a, b)) == gf2.rank(a) + gf2.rank(b) - inter.nrows
        for v in inter.rows:
            assert gf2.in_row_space(a, v) and gf2.in_row_space(b, v)


def test_in_row_space(torus_grid, square_handles):
    inc = torus_grid.incidence_matrix
    assert gf2.in_row_space(inc, 0)
    others = GF2Matrix(inc.ncols, inc.rows[1:])
    assert gf2.in_row_space(others, inc.rows[0])
    # first standard basis vector vs the dual rows of the 6-vertex fixture:
    # its row space is {0, 11110000}, checked exhaustively
    dual = square_handles.dual_incidence_matrix
    combos = {0}
    for r in dual.rows:
        combos |= {c ^ r for c in combos}
    assert 1 not in combos
    assert not gf2.in_row_space(dual, 1)


def test_in_row_space_length_check():
    with pytest.raises(ValueError):
        gf2.in_row_space(GF2Matrix(3, (0b101,)), 1 << 5)


def test_vector_string_roundtrip():
    assert gf2.vector_from_string("1101") == 0b1011
    assert gf2.vector_to_string(0b1011, 4) == "1101"
    with pytest.raises(ValueError):
        gf2.vector_from_string("10x")
    with pytest.raises(ValueError):
        gf2.vector_to_string(0b100, 2)


def test_from_strings():
    m = GF2Matrix.from_strings(["110", "011"])
    assert list(m.row_strings()) == ["110", "011"]
    with pytest.raises(ValueError):
        GF2Matrix.from_strings(["10", "011"])
    assert GF2Matrix.from_strings([], ncols=4).nrows == 0


def test_matrix_rejects_out_of_range_rows():
    with pytest.raises(ValueError):
        GF2Matrix(2, (0b100,))


def test_matrix_rows_must_be_integers():
    # int() would read "101" as decimal 101, the row 1010011
    for row in ("101", 5.0):
        with pytest.raises(TypeError):
            GF2Matrix(7, (row,))
    assert GF2Matrix(2, (True, 2)).rows == (1, 2)


def test_matrix_column_count_must_be_an_integer():
    for ncols in (2.5, "2"):
        with pytest.raises(TypeError):
            GF2Matrix(ncols, ())
    assert GF2Matrix(True, (1,)).ncols == 1


# -- the elimination kernel against the column sweep it replaced ------------------


def sweep_rref(m: GF2Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reference: the column-sweep elimination, kept as the oracle."""
    work = list(m.rows)
    reduced: list[int] = []
    pivots: list[int] = []
    for col in range(m.ncols):
        mask = 1 << col
        pivot_row = None
        for i, r in enumerate(work):
            if r & mask:
                pivot_row = work.pop(i)
                break
        if pivot_row is None:
            continue
        for i, r in enumerate(work):
            if r & mask:
                work[i] = r ^ pivot_row
        for i, r in enumerate(reduced):
            if r & mask:
                reduced[i] = r ^ pivot_row
        reduced.append(pivot_row)
        pivots.append(col)
        if not work:
            break
    return tuple(reduced), tuple(pivots)


def sweep_kernel(m: GF2Matrix) -> tuple[int, ...]:
    """Reference: one kernel vector per free column, read off the oracle's RREF."""
    rows, pivots = sweep_rref(m)
    basis = []
    for col in range(m.ncols):
        if col in pivots:
            continue
        v = 1 << col
        for row, p in zip(rows, pivots):
            if (row >> col) & 1:
                v |= 1 << p
        basis.append(v)
    return tuple(basis)


def span(m: GF2Matrix) -> set[int]:
    out = {0}
    for r in m.rows:
        out |= {s ^ r for s in out}
    return out


def incidence_like(rng: Random, nrows: int, ncols: int) -> GF2Matrix:
    """Rows of a multigraph's incidence matrix: each column joins two rows (or none: a loop)."""
    rows = [0] * nrows
    for col in range(ncols):
        u, w = rng.randrange(nrows), rng.randrange(nrows)
        if u != w:
            rows[u] |= 1 << col
            rows[w] |= 1 << col
    return GF2Matrix(ncols, tuple(rows))


def kernel_cases():
    """Seeded matrices of every shape the kernel must handle."""
    rng = Random(0x6F2)
    yield GF2Matrix(0, ())
    yield GF2Matrix(0, (0, 0, 0))
    yield GF2Matrix(5, ())
    for ncols in (1, 63, 64, 65, 200):
        for nrows in (1, ncols // 2 + 1, ncols, ncols + 7):
            m = random_matrix(rng, nrows, ncols)
            yield m
            sparse = tuple(r & rng.getrandbits(ncols) & rng.getrandbits(ncols) for r in m.rows)
            yield GF2Matrix(ncols, sparse)
            yield GF2Matrix(ncols, m.rows[: nrows // 2] + (0,) * 3 + m.rows[: nrows // 2 + 1])
            if nrows > 1:
                yield incidence_like(rng, nrows, ncols)


def sum_rows(rows) -> int:
    total = 0
    for r in rows:
        total ^= r
    return total


def zassenhaus_layouts():
    """The intersection's stacked [y | 0] and [x | x] rows, in both orders."""
    rng = Random(0x2A55)
    for n in (1, 8, 63, 64, 65, 120):
        for _ in range(3):
            a = incidence_like(rng, rng.randint(2, n + 2), n)
            # half of b's rows are sums of a's rows, so the intersection is not trivial
            b = []
            for _ in range(rng.randint(0, n)):
                picks = [x for x in a.rows if rng.random() < 0.5]
                b.append(sum_rows(picks) if rng.random() < 0.5 else rng.getrandbits(n))
            right = tuple(x | (x << n) for x in a.rows)
            yield GF2Matrix(2 * n, tuple(b) + right)
            yield GF2Matrix(2 * n, right + tuple(b))


def rref_cases():
    """``kernel_cases`` with their rows reversed and shuffled, and Zassenhaus layouts.

    The elimination sorts its input rows, so every row order must give
    the same canonical result.
    """
    rng = Random(0x5EED)
    for m in kernel_cases():
        yield m
        yield GF2Matrix(m.ncols, m.rows[::-1])
        shuffled = list(m.rows)
        rng.shuffle(shuffled)
        yield GF2Matrix(m.ncols, tuple(shuffled))
    yield from zassenhaus_layouts()


def test_rref_equals_column_sweep():
    for m in rref_cases():
        red, pivots = gf2.rref(m)
        assert (red.rows, pivots) == sweep_rref(m), m
        assert red.ncols == m.ncols


def test_kernel_basis_equals_column_sweep():
    for m in kernel_cases():
        ker = gf2.kernel_basis(m)
        assert ker.rows == sweep_kernel(m) and ker.ncols == m.ncols
        assert all(gf2.dot(row, v) == 0 for row in m.rows for v in ker.rows)


def test_intersection_is_symmetric_and_equals_span_intersection():
    rng = Random(0x1A7)
    for _ in range(200):
        n = rng.randint(1, 8)
        a = random_matrix(rng, rng.randint(0, 5), n)
        b = incidence_like(rng, rng.randint(2, 5), n) if rng.random() < 0.5 else (
            random_matrix(rng, rng.randint(0, 5), n)
        )
        inter = gf2.row_space_intersection_basis(a, b)
        assert inter == gf2.row_space_intersection_basis(b, a)
        common = GF2Matrix(n, tuple(sorted(span(a) & span(b))))
        assert inter.rows == sweep_rref(common)[0]


def test_cancelling_equals_enumeration():
    rng = Random(0xCA7)
    for _ in range(300):
        n, k, m = rng.randint(0, 7), rng.randint(0, 4), rng.randint(0, 6)
        vectors = [rng.getrandbits(n) for _ in range(m)]
        images = [rng.getrandbits(k) if rng.random() < 0.6 else 0 for _ in range(m)]
        if m > 2 and rng.random() < 0.5:  # a dependent vector with its image
            vectors[-1], images[-1] = vectors[0] ^ vectors[1], images[0] ^ images[1]
        got = gf2.cancelling(GF2Matrix(n, tuple(vectors)), GF2Matrix(k, tuple(images)))
        sums = set()
        for coeffs in range(1 << m):
            picks = [i for i in range(m) if coeffs >> i & 1]
            if not sum_rows(images[i] for i in picks):
                sums.add(sum_rows(vectors[i] for i in picks))
        assert span(got) == sums
        assert gf2.rref(got)[0] == got


def test_cancelling_pairs_rows():
    with pytest.raises(ValueError):
        gf2.cancelling(GF2Matrix(3, (1, 2)), GF2Matrix(2, (1,)))


def test_parities_equal_the_dot_products():
    rng = Random(0xD07)
    for ncols in (0, 1, 63, 64, 65, 130):
        m = random_matrix(rng, rng.randint(0, 12), ncols)
        for v in (0, rng.getrandbits(ncols), (1 << ncols) - 1):
            expected = sum(gf2.dot(row, v) << i for i, row in enumerate(m.rows))
            assert gf2.parities(m, v) == expected


def test_in_row_space_equals_span_membership():
    rng = Random(0x5B)
    for _ in range(100):
        n = rng.randint(0, 8)
        a = random_matrix(rng, rng.randint(0, 5), n)
        members = span(a)
        assert all(gf2.in_row_space(a, v) == (v in members) for v in range(1 << n))


def test_vector_to_string_at_word_boundaries():
    rng = Random(3)
    for length in (0, 1, 63, 64, 65, 200):
        for v in (0, (1 << length) - 1, rng.getrandbits(length) if length else 0):
            text = gf2.vector_to_string(v, length)
            assert text == "".join("1" if (v >> j) & 1 else "0" for j in range(length))
            assert gf2.vector_from_string(text) == v
    with pytest.raises(ValueError):
        gf2.vector_to_string(1, 0)
    with pytest.raises(ValueError):
        gf2.vector_to_string(-1, 4)
