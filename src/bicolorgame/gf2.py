"""Dense linear algebra over GF(2) with bit-packed integer rows.

Vectors are plain Python ints used as bitsets: bit j is coordinate j.
Matrices are immutable rows of such ints plus an explicit column count.
At the scales this package works with (tens of columns) word-parallel
XOR on ints beats any array representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def dot(u: int, v: int) -> int:
    """Inner product over GF(2): parity of the shared 1-bits."""
    return (u & v).bit_count() & 1


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
    return "".join("1" if (v >> j) & 1 else "0" for j in range(length))


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
    def from_bits(cls, bit_rows: Sequence[Sequence[int]], ncols: int | None = None) -> "GF2Matrix":
        """Build a matrix from rows given as sequences of 0/1 entries."""
        rows = []
        for bits in bit_rows:
            if ncols is None:
                ncols = len(bits)
            elif len(bits) != ncols:
                raise ValueError("rows have inconsistent lengths")
            rows.append(sum(1 << j for j, b in enumerate(bits) if b))
        if ncols is None:
            raise ValueError("column count required for an empty matrix")
        return cls(ncols, tuple(rows))

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

    Pivots are chosen lowest column first, lowest row first, so the
    output is canonical for a given row space; zero rows are dropped.
    """
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
    return GF2Matrix(m.ncols, tuple(reduced)), tuple(pivots)


def rank(m: GF2Matrix) -> int:
    return rref(m)[0].nrows


def kernel_basis(m: GF2Matrix) -> GF2Matrix:
    """Basis of the right kernel {v : m v = 0}, one row per free column."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for col in range(m.ncols):
        if col in pivot_set:
            continue
        v = 1 << col
        for row, p in zip(red.rows, pivots):
            if (row >> col) & 1:
                v |= 1 << p
        basis.append(v)
    return GF2Matrix(m.ncols, tuple(basis))


def transpose(m: GF2Matrix) -> GF2Matrix:
    rows = []
    for col in range(m.ncols):
        v = 0
        for i, r in enumerate(m.rows):
            if (r >> col) & 1:
                v |= 1 << i
        rows.append(v)
    return GF2Matrix(m.nrows, tuple(rows))


def row_space_intersection_basis(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Basis of (row space of a) ∩ (row space of b), via the Zassenhaus layout.

    Rows [x | x] for a and [y | 0] for b are reduced together; surviving
    rows whose left block vanished carry the intersection in the right block.
    """
    if a.ncols != b.ncols:
        raise ValueError(f"column mismatch: {a.ncols} vs {b.ncols}")
    n = a.ncols
    ext_rows = [r | (r << n) for r in a.rows] + list(b.rows)
    red, _ = rref(GF2Matrix(2 * n, tuple(ext_rows)))
    low_mask = (1 << n) - 1
    inter = [row >> n for row in red.rows if not (row & low_mask)]
    out, _ = rref(GF2Matrix(n, tuple(inter)))
    return out


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
