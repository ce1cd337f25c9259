"""Linear algebra over GF(2) with bit-packed integer rows.

Vectors are plain Python ints used as bitsets: bit j is coordinate j.
Matrices are immutable rows of such ints plus an explicit column count.
XOR and AND on ints work a machine word at a time, so a row of a few
thousand columns costs a few dozen word operations.

Every query (rank, kernel, membership, sum and intersection of row
spaces, the cancelling sums of paired rows) goes through one
elimination, ``rref``.  It inserts the rows in ascending order of their
lowest set bit into a basis keyed by pivot column, reducing a row
against the basis row that owns its lowest bit until the bit is new,
then back-substitutes from the highest pivot down.
Work grows with the fill-in, not with rows x columns, which keeps sparse
incidence matrices cheap.  The presort lowers the fill-in, and keying by
the column index keeps each lookup cheap: a key of ``v & -v`` would be an
int as wide as the row, which CPython hashes in a pass over its words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def dot(u: int, v: int) -> int:
    """Inner product over GF(2): parity of the shared 1-bits."""
    return (u & v).bit_count() & 1


def parities(m: GF2Matrix, v: int) -> int:
    """The products of v with every row of m: bit i is ``dot(m.rows[i], v)``."""
    out = 0
    for i, row in enumerate(m.rows):
        if dot(row, v):
            out |= 1 << i
    return out


def vector_from_string(bits: str) -> int:
    """Parse a 0/1 string into a bitset int (character j = coordinate j)."""
    value = 0
    for j, ch in enumerate(bits):
        if ch == "1":
            value |= 1 << j
        elif ch != "0":
            raise ValueError(f"invalid bit character {ch!r} at position {j}")
    return value


def vector_to_string(v: int, length: int) -> str:
    """Render a bitset int as a 0/1 string of the given length."""
    if v < 0 or v >> length:
        raise ValueError("vector has bits beyond the stated length")
    return format(v, f"0{length}b")[::-1] if length else ""


@dataclass(frozen=True)
class GF2Matrix:
    """Matrix over GF(2); ``rows[i]`` is an int bitset with bit j = entry (i, j)."""

    ncols: int
    rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(int(r) for r in self.rows))
        if self.ncols < 0:
            raise ValueError("negative column count")
        for r in self.rows:
            if r < 0 or r >> self.ncols:
                raise ValueError("row has bits outside the column range")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_strings(cls, bit_rows: Iterable[str], ncols: int | None = None) -> "GF2Matrix":
        rows = []
        for s in bit_rows:
            if ncols is None:
                ncols = len(s)
            elif len(s) != ncols:
                raise ValueError("rows have inconsistent lengths")
            rows.append(vector_from_string(s))
        if ncols is None:
            raise ValueError("column count required for an empty matrix")
        return cls(ncols, tuple(rows))

    def row_strings(self) -> list[str]:
        return [vector_to_string(r, self.ncols) for r in self.rows]


def stack(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    if a.ncols != b.ncols:
        raise ValueError(f"column mismatch: {a.ncols} vs {b.ncols}")
    return GF2Matrix(a.ncols, a.rows + b.rows)


def rref(m: GF2Matrix) -> tuple[GF2Matrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns.

    The reduced form of a row space is unique, so the output is
    canonical: rows in ascending pivot order, each pivot the row's
    lowest set bit and absent from every other row; zero rows are dropped.
    Hence the input order is free: rows go in by ascending lowest set bit,
    into a basis keyed by pivot column (the index of that bit).
    """
    basis: dict[int, int] = {}  # pivot column -> row
    for v in sorted(m.rows, key=lambda r: r & -r):
        while v:
            col = (v & -v).bit_length() - 1
            row = basis.get(col)
            if row is None:
                basis[col] = v
                break
            v ^= row
    # Back-substitution from the highest pivot down: a reduced row holds
    # no pivot bit but its own, so each XOR clears exactly one bit of hit.
    pivots = sorted(basis)
    done = 0
    for col in reversed(pivots):
        r = basis[col]
        hit = r & done
        while hit:
            bit = hit & -hit
            r ^= basis[bit.bit_length() - 1]
            hit ^= bit
        basis[col] = r
        done |= 1 << col
    return GF2Matrix(m.ncols, tuple(basis[col] for col in pivots)), tuple(pivots)


def rank(m: GF2Matrix) -> int:
    return rref(m)[0].nrows


def _bits(v: int) -> Iterator[int]:
    """Positions of the set bits of v, ascending."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def kernel_basis(m: GF2Matrix) -> GF2Matrix:
    """Basis of the right kernel {v : m v = 0}, one row per free column."""
    red, pivots = rref(m)
    free = ((1 << m.ncols) - 1) ^ sum(1 << p for p in pivots)
    fill = dict.fromkeys(_bits(free), 0)  # free column -> its pivot coordinates
    for row, p in zip(red.rows, pivots):
        for col in _bits(row & free):
            fill[col] |= 1 << p
    return GF2Matrix(m.ncols, tuple((1 << col) | v for col, v in fill.items()))


def cancelling(vectors: GF2Matrix, images: GF2Matrix) -> GF2Matrix:
    """RREF basis of the sums of vectors whose paired images sum to zero.

    ``vectors.rows[i]`` is paired with ``images.rows[i]``.  One elimination
    of the rows ``image | vector << k``, k = ``images.ncols``: the reduced
    rows whose low k bits are zero, shifted down by k, span the result.
    They are already its RREF, since each such row's lowest bit is its
    pivot and no other row holds that bit.
    """
    if vectors.nrows != images.nrows:
        raise ValueError(f"row mismatch: {vectors.nrows} vs {images.nrows}")
    k = images.ncols
    rows = tuple(image | (v << k) for image, v in zip(images.rows, vectors.rows))
    red, _ = rref(GF2Matrix(k + vectors.ncols, rows))
    low = (1 << k) - 1
    return GF2Matrix(vectors.ncols, tuple(r >> k for r in red.rows if not (r & low)))


def row_space_intersection_basis(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Basis of (row space of a) ∩ (row space of b), via the Zassenhaus layout.

    Rows [y | 0] for b and [x | x] for a are reduced together: the sums of
    a's rows that cancel against b's rows are the intersection.
    """
    inter = cancelling(GF2Matrix(a.ncols, (0,) * b.nrows + a.rows), stack(b, a))
    # ``inter`` is already in RREF.  This second elimination stays while
    # perfbench/test_perfbench.py pins ``info`` at six (ROADMAP item 1).
    return rref(inter)[0]


def in_row_space(a: GF2Matrix, v: int) -> bool:
    """True iff v is a GF(2) combination of the rows of a."""
    if v < 0 or v >> a.ncols:
        raise ValueError("vector length does not match the matrix")
    red, pivots = rref(a)
    for row, p in zip(red.rows, pivots):
        if (v >> p) & 1:
            v ^= row
    return v == 0


def row_space_equal(a: GF2Matrix, b: GF2Matrix) -> bool:
    """True iff a and b span the same subspace."""
    if a.ncols != b.ncols:
        raise ValueError(f"column mismatch: {a.ncols} vs {b.ncols}")
    return rref(a)[0].rows == rref(b)[0].rows
