"""The Bollobás-Riordan-Tutte polynomial by spanning-subgraph enumeration.

For a connected graph embedded on an orientable surface,

    BRT(x, y, z) = sum over edge subsets H of x^(k(H)-1) y^(n(H)) z^(g(H)),

where k is the component count of the spanning subgraph, n = e - v + k its
nullity, and g its genus as a ribbon subgraph (faces re-traced from the
restricted rotations).  The x variable is shifted by one relative to the
oldest convention, so the Tutte polynomial is T(x, y) = BRT(x-1, y-1, 1),
which is Whitney's rank polynomial at (x-1, y-1): Tutte values need
component counts only and come from :func:`whitney_rank_polynomial`.

Evaluations use exact rational arithmetic throughout; the interesting
evaluation point z = 1/4 makes floating point unacceptable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .embedded import EmbeddedGraph
from .errors import EdgeCapError, InternalInvariantError

DEFAULT_EDGE_CAP = 26

Rational = Fraction


@dataclass(frozen=True, eq=False)
class TrivariatePolynomial:
    """Integer polynomial in x, y, z keyed by exponent triples (a, b, c)."""

    coeffs: Mapping[tuple[int, int, int], int]

    def __post_init__(self) -> None:
        clean = {k: int(v) for k, v in self.coeffs.items() if v}
        for a, b, c in clean:
            if a < 0 or b < 0 or c < 0:
                raise ValueError("negative exponent")
        object.__setattr__(self, "coeffs", clean)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def coefficient(self, a: int, b: int, c: int) -> int:
        return self.coeffs.get((a, b, c), 0)

    def evaluate(self, x: Rational, y: Rational, z: Rational) -> Rational:
        x, y, z = Fraction(x), Fraction(y), Fraction(z)
        total = Fraction(0)
        for (a, b, c), coeff in self.coeffs.items():
            total += coeff * x**a * y**b * z**c
        return total

    def specialize_z_one(self) -> "TrivariatePolynomial":
        """Collapse the z variable at z = 1."""
        out: dict[tuple[int, int, int], int] = {}
        for (a, b, c), coeff in self.coeffs.items():
            key = (a, b, 0)
            out[key] = out.get(key, 0) + coeff
        return TrivariatePolynomial(out)

    def total_coefficient_sum(self) -> int:
        return sum(self.coeffs.values())

    def __str__(self) -> str:
        """Canonical rendering, monomials in descending (a, b, c) lex order."""
        if not self.coeffs:
            return "0"
        parts = []
        for a, b, c in sorted(self.coeffs, reverse=True):
            coeff = self.coeffs[(a, b, c)]
            names = [f"{n}^{e}" if e > 1 else n for n, e in (("x", a), ("y", b), ("z", c)) if e]
            body = " ".join(names)
            if not body:
                term = str(abs(coeff))
            elif abs(coeff) == 1:
                term = body
            else:
                term = f"{abs(coeff)} {body}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


def brt_polynomial(g: EmbeddedGraph, edge_cap: int = DEFAULT_EDGE_CAP) -> TrivariatePolynomial:
    """Enumerate all 2^|E| spanning sub-ribbons of ``g``."""
    m = g.edge_count
    if m > edge_cap:
        raise EdgeCapError(f"{m} edges exceeds the enumeration cap {edge_cap}")
    nv = g.vertex_count
    genus_total = g.genus
    count = g.subset_counter()
    coeffs: dict[tuple[int, int, int], int] = {}
    for mask in range(1 << m):
        k, f = count(mask)
        e_sub = mask.bit_count()
        two_genus = 2 * k - nv + e_sub - f
        if two_genus < 0 or two_genus % 2:
            raise InternalInvariantError("sub-ribbon Euler count is inconsistent")
        genus_sub = two_genus // 2
        if genus_sub > genus_total or k < 1:
            raise InternalInvariantError("sub-ribbon exponents out of range")
        key = (k - 1, e_sub - nv + k, genus_sub)
        coeffs[key] = coeffs.get(key, 0) + 1
    return TrivariatePolynomial(coeffs)


def whitney_rank_polynomial(g: EmbeddedGraph, edge_cap: int = DEFAULT_EDGE_CAP) -> TrivariatePolynomial:
    """Whitney's rank polynomial: the z = 1 specialization of the BRT polynomial.

    Computes sum over subsets of x^(k(H)-1) y^(n(H)) using only component
    counts (union-find); no face tracing is involved.  This is the
    production path for Tutte values (:func:`tutte_eval`).  Setting z = 1
    erases the genus exponent, so its agreement with
    ``brt_polynomial(...).specialize_z_one()`` (``check_rank_oracle``)
    checks only the component count k(H) of ``subset_counter``; its face
    count f(H) is checked there only through the exponent range that
    ``brt_polynomial`` enforces (2g(H) even and 0 <= g(H) <= g).
    """
    m = g.edge_count
    if m > edge_cap:
        raise EdgeCapError(f"{m} edges exceeds the enumeration cap {edge_cap}")
    nv = g.vertex_count
    endpoints = [g.edge_endpoints(j) for j in range(m)]
    parent = list(range(nv))
    coeffs: dict[tuple[int, int, int], int] = {}
    for mask in range(1 << m):
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
        key = (k - 1, mask.bit_count() - nv + k, 0)
        coeffs[key] = coeffs.get(key, 0) + 1
    return TrivariatePolynomial(coeffs)


def tutte_eval(
    g: EmbeddedGraph, x: Rational, y: Rational, edge_cap: int = DEFAULT_EDGE_CAP
) -> Rational:
    """Tutte polynomial value T(x, y) = R(x-1, y-1), R the rank polynomial.

    T(x, y) = BRT(x-1, y-1, 1), and z = 1 erases the genus exponent, so
    only component counts matter and no sub-ribbon faces are traced.
    ``check_rank_oracle`` cross-checks the rank polynomial against the
    BRT sweep at z = 1.
    """
    p = whitney_rank_polynomial(g, edge_cap)
    return p.evaluate(Fraction(x) - 1, Fraction(y) - 1, Fraction(1))


def medial_component_count_via_brt(g: EmbeddedGraph, edge_cap: int = DEFAULT_EDGE_CAP) -> int:
    """Strand count of the medial graph read off |BRT(-2, -2, 1/4)| = 2^(c-1)."""
    value = brt_polynomial(g, edge_cap).evaluate(
        Fraction(-2), Fraction(-2), Fraction(1, 4)
    )
    magnitude = abs(value)
    if magnitude.denominator != 1:
        raise InternalInvariantError(f"|BRT(-2,-2,1/4)| = {magnitude} is not an integer")
    n = magnitude.numerator
    if n == 0 or n & (n - 1):
        raise InternalInvariantError(f"|BRT(-2,-2,1/4)| = {n} is not a power of two")
    return n.bit_length()
