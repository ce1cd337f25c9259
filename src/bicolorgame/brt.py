"""The Bollobás-Riordan-Tutte polynomial by spanning-subgraph enumeration.

For a connected graph embedded on an orientable surface,

    BRT(x, y, z) = sum over edge subsets H of x^(k(H)-1) y^(n(H)) z^(g(H)),

where k is the component count of the spanning subgraph, n = e - v + k its
nullity, and g its genus as a ribbon subgraph.  Bridges and trivial loops
are factored out first: a bridge contributes a factor (1 + x) and a loop
whose darts are adjacent in its rotation a factor (1 + y), since BRT is
multiplicative over one-point joins (Bollobás & Riordan, Math. Ann. 2002).
The subsets of what is left are enumerated depth first, one edge added per
level and undone on the way back, and each level updates k and the face
count by a local rule instead of re-tracing faces; :func:`brt_by_sweep`
re-traces every subset of the whole graph and is the oracle.  The
x variable is shifted by one relative to the oldest convention, so the
Tutte polynomial is T(x, y) = BRT(x-1, y-1, 1), which is Whitney's rank
polynomial at (x-1, y-1): Tutte values need component counts only and come
from :func:`whitney_rank_polynomial`.

Evaluations use exact rational arithmetic throughout, over one common
denominator; the interesting evaluation point z = 1/4 makes floating
point unacceptable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping

from .embedded import EmbeddedGraph
from .errors import EdgeCapError, InternalInvariantError

DEFAULT_EDGE_CAP = 26


@dataclass(frozen=True)
class TrivariatePolynomial:
    """Integer polynomial in x, y, z keyed by exponent triples (a, b, c)."""

    coeffs: Mapping[tuple[int, int, int], int]

    def __post_init__(self) -> None:
        clean = {k: int(v) for k, v in self.coeffs.items() if v}
        for a, b, c in clean:
            if a < 0 or b < 0 or c < 0:
                raise ValueError("negative exponent")
        object.__setattr__(self, "coeffs", clean)

    def evaluate(self, x: Fraction, y: Fraction, z: Fraction) -> Fraction:
        """The exact value at (x, y, z), over one common denominator.

        With n/d for a variable and A its highest exponent, the table
        entry for exponent a is n^a d^(A-a), an integer; the integer sum
        of coeff times the three entries is divided once by the product
        of the d^A.
        """
        if not self.coeffs:
            return Fraction(0)
        tables, denominator = [], 1
        for value, top in zip((x, y, z), map(max, zip(*self.coeffs))):
            value = Fraction(value)
            n, d = value.numerator, value.denominator
            n_powers, d_powers = [1], [1]
            for _ in range(top):
                n_powers.append(n_powers[-1] * n)
                d_powers.append(d_powers[-1] * d)
            tables.append([n_powers[a] * d_powers[top - a] for a in range(top + 1)])
            denominator *= d_powers[top]
        tx, ty, tz = tables
        total = sum(coeff * tx[a] * ty[b] * tz[c] for (a, b, c), coeff in self.coeffs.items())
        return Fraction(total, denominator)

    def specialize_z_one(self) -> "TrivariatePolynomial":
        """Collapse the z variable at z = 1."""
        out: dict[tuple[int, int, int], int] = {}
        for (a, b, c), coeff in self.coeffs.items():
            key = (a, b, 0)
            out[key] = out.get(key, 0) + coeff
        return TrivariatePolynomial(out)

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


def _check_cap(m: int, edge_cap: int) -> None:
    if m > edge_cap:
        raise EdgeCapError(f"{m} edges exceeds the enumeration cap {edge_cap}")


def _subset_census(g: EmbeddedGraph, faces: bool) -> dict[tuple[int, int, int], int]:
    """Count the 2^|E| spanning subsets H by (k(H), |H|, f(H)).

    Bridges and trivial loops are peeled off first (:func:`_peel`), the
    core's subsets are counted depth first (:func:`_walk`), and the counts
    are expanded back to ``g``.  A bridge in H adds one edge; a bridge not
    in H adds a component and a face, since its two sides are then joined
    at one point in the core.  A trivial loop in H adds an edge and a face
    (it splits the face of its corner); a loop not in H adds nothing.
    Without ``faces`` every loop is trivial and f(H) is reported as 0.
    The walk counts each subset whose highest edge is the core's last by
    the rule that updates k and f alone, without adding that edge, so half
    of the core's 2^|E| subsets are never built.
    """
    core, bridges, loops = _peel(g, faces)
    out: dict[tuple[int, int, int], int] = {}
    for (k, e, f), count in _walk(core, faces).items():
        for i in range(bridges + 1):  # bridges in H
            for j in range(loops + 1):  # loops in H
                key = (k + bridges - i, e + i + j, f + bridges - i + j if faces else 0)
                out[key] = out.get(key, 0) + count * comb(bridges, i) * comb(loops, j)
    return out


def _peel(g: EmbeddedGraph, faces: bool) -> tuple[EmbeddedGraph, int, int]:
    """The core left by peeling ``g``, with the numbers of bridges and loops peeled.

    Every bridge is contracted: for its darts a at u and b at w, the merged
    rotation is u's darts after a, then w's darts after b.  Then, with
    ``faces``, each loop whose two darts are adjacent in the cyclic rotation
    of their vertex is deleted, until none is left; without ``faces`` every
    loop is deleted.  Contracting a bridge or deleting a loop never makes
    or unmakes a bridge, so bridges are found once, and no bridge becomes a
    loop.
    """
    nv, m = g.vertex_count, g.edge_count
    alpha = g.alpha
    home = dict(g.dart_vertex)
    rotations: list[list[int] | None] = [list(rot) for rot in g.rotations]
    bridges = [
        j for j in g.spanning_forest(range(m))
        if len(g.spanning_forest(i for i in range(m) if i != j)) < nv - 1
    ]
    for j in bridges:
        a, b = g.edge_darts[j]
        u, w = home[a], home[b]
        ru, rw = rotations[u], rotations[w]
        i, k = ru.index(a), rw.index(b)
        rotations[u] = ru[i + 1:] + ru[:i] + rw[k + 1:] + rw[:k]
        rotations[w] = None
        for d in rw:
            home[d] = u
    core = []
    for rot in rotations:
        if rot is None:  # merged into another vertex
            continue
        if faces:
            # reduce the cyclic dart word: deleting an adjacent loop can
            # make the loop around it adjacent, on the stack or across the wrap
            kept: list[int] = []
            for d in rot:
                if kept and kept[-1] == alpha[d]:
                    kept.pop()
                else:
                    kept.append(d)
            while len(kept) > 1 and kept[0] == alpha[kept[-1]]:
                kept = kept[1:-1]
        else:
            kept = [d for d in rot if home[alpha[d]] != home[d]]
        core.append(tuple(kept))
    left = {d for rot in core for d in rot}
    edges = tuple(pair for pair in g.edge_darts if pair[0] in left)
    return EmbeddedGraph(tuple(core), edges), len(bridges), m - len(bridges) - len(edges)


def _walk(g: EmbeddedGraph, faces: bool) -> dict[tuple[int, int, int], int]:
    """Count the 2^|E| spanning subsets H of ``g`` by (k(H), |H|, f(H)), depth first.

    Each node of the enumeration adds one edge of higher index than those
    already in H, so every subset is visited once, and each level is
    undone on the way back: a union-find with union by rank and no path
    compression, and per vertex a doubly linked sub-rotation into which a
    dart is inserted after its nearest present predecessor in the full
    rotation.  Faces are counted by rule, never re-traced: an edge joining
    two components merges two faces; an edge inside one component splits
    a face when its two corners lie on one face and otherwise merges two
    (raising the genus by one).  A face is the orbit of
    phi(d) = sigma_H(alpha(d)), and a corner is named by the dart after
    it, which lies on its face.  A subset whose highest edge is the last
    one is a leaf: it is counted by that rule alone and never built.
    With ``faces`` false f(H) is reported as 0 and no sub-rotation is kept.
    """
    nv = g.vertex_count
    m = g.edge_count
    index_of = {d: i for i, d in enumerate(sorted(g.alpha))}
    alpha = [index_of[g.alpha[d]] for d in index_of]
    sigma_inv = [index_of[g.sigma_inv[d]] for d in index_of]
    dv = g.dart_vertex
    ends = [(dv[a], dv[b], index_of[a], index_of[b]) for a, b in g.edge_darts]
    parent = list(range(nv))
    rank = [0] * nv
    nxt = [-1] * len(alpha)  # sub-rotation successor; -1 marks an absent dart
    prv = [-1] * len(alpha)
    degree = [0] * nv  # darts present at each vertex
    # census index k * sk + |H| * se + f, with f <= nv + |H|
    se = nv + m + 1 if faces else 1
    sk = (m + 1) * se
    census = [0] * ((nv + 1) * sk)

    def before(d: int) -> int:
        """Nearest present dart before ``d`` in its full rotation."""
        p = sigma_inv[d]
        while nxt[p] < 0:
            p = sigma_inv[p]
        return p

    def insert(d: int, p: int) -> None:
        if p < 0:
            nxt[d] = prv[d] = d
        else:
            s = nxt[p]
            nxt[p] = d
            prv[d] = p
            nxt[d] = s
            prv[s] = d

    def unlink(d: int) -> None:
        p, s = prv[d], nxt[d]
        nxt[p] = s
        prv[s] = p
        nxt[d] = -1

    def one_face(x: int, y: int) -> bool:
        """Whether darts x and y share a face; walks both, so costs the shorter."""
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

    index = nv * sk + (nv if faces else 0)
    census[index] = 1
    # the edges in H, each with H's census index before it and what undoes it
    path: list[tuple[int, int, int, int]] = []
    j = 0
    while True:
        if j < m:  # the child H + j
            u, w, a, b = ends[j]
            ru = u
            while parent[ru] != ru:
                ru = parent[ru]
            rw = w
            while parent[rw] != rw:
                rw = parent[rw]
            joined = ru != rw
            step = se - sk if joined else se
            if faces:
                pa = before(a) if degree[u] else -1
                pb = before(b) if degree[w] else -1
                # a loop at an isolated vertex has both corners on its one face
                if not joined and (pa < 0 or one_face(nxt[pa], nxt[pb])):
                    step += 1
                else:
                    step -= 1
            census[index + step] += 1
            if j + 1 < m:  # H + j has children, so build it; a leaf is only counted
                merged = bumped = -1
                if joined:
                    if rank[ru] < rank[rw]:
                        ru, rw = rw, ru
                    parent[rw] = ru
                    merged = rw
                    if rank[ru] == rank[rw]:
                        rank[ru] += 1
                        bumped = ru
                if faces:
                    insert(a, pa)
                    degree[u] += 1
                    if u == w and pa == pb:
                        pb = before(b)
                    insert(b, pb)
                    degree[w] += 1
                path.append((j, index, merged, bumped))
                index += step
                j += 1
                continue
        # undo the highest edge of H and go on to its next sibling
        if not path:
            break
        j, index, merged, bumped = path.pop()
        if faces:
            u, w, a, b = ends[j]
            unlink(b)
            degree[w] -= 1
            unlink(a)
            degree[u] -= 1
        if merged >= 0:
            parent[merged] = merged
            if bumped >= 0:
                rank[bumped] -= 1
        j += 1
    return _unpack(census, sk, se)


def _unpack(census: list[int], sk: int, se: int) -> dict[tuple[int, int, int], int]:
    """The nonzero counts of a flat census indexed k * sk + |H| * se + f, by (k, |H|, f)."""
    out: dict[tuple[int, int, int], int] = {}
    for index, count in enumerate(census):
        if count:
            k, rest = divmod(index, sk)
            e, f = divmod(rest, se)
            out[(k, e, f)] = count
    return out


def _ribbon_polynomial(
    g: EmbeddedGraph, census: Mapping[tuple[int, int, int], int]
) -> TrivariatePolynomial:
    """BRT coefficients from subset counts by (k, |H|, f), every triple checked."""
    nv = g.vertex_count
    genus_total = g.genus
    coeffs: dict[tuple[int, int, int], int] = {}
    for (k, e_sub, f), count in census.items():
        two_genus = 2 * k - nv + e_sub - f
        if two_genus < 0 or two_genus % 2:
            raise InternalInvariantError("sub-ribbon Euler count is inconsistent")
        genus_sub = two_genus // 2
        if genus_sub > genus_total or k < 1:
            raise InternalInvariantError("sub-ribbon exponents out of range")
        key = (k - 1, e_sub - nv + k, genus_sub)
        coeffs[key] = coeffs.get(key, 0) + count
    return TrivariatePolynomial(coeffs)


def brt_polynomial(g: EmbeddedGraph, edge_cap: int = DEFAULT_EDGE_CAP) -> TrivariatePolynomial:
    """Enumerate all 2^|E| spanning sub-ribbons of ``g``, depth first."""
    _check_cap(g.edge_count, edge_cap)
    return _ribbon_polynomial(g, _subset_census(g, faces=True))


def brt_by_sweep(g: EmbeddedGraph) -> TrivariatePolynomial:
    """The BRT polynomial with every subset rebuilt and its faces re-traced.

    The plain per-mask sweep over ``EmbeddedGraph.subset_counter``, kept
    as the oracle for :func:`brt_polynomial` in ``selfcheck`` and the tests.
    Each mask is rebuilt and re-traced on its own; with :func:`_walk` it
    shares only the flat census layout k * sk + |H| * se + f, where
    f <= nv + |H|, and :func:`_unpack`.
    """
    m = g.edge_count
    _check_cap(m, DEFAULT_EDGE_CAP)
    count = g.subset_counter()
    nv = g.vertex_count
    se = nv + m + 1
    sk = (m + 1) * se
    census = [0] * ((nv + 1) * sk)
    for mask in range(1 << m):
        k, f = count(mask)
        census[k * sk + mask.bit_count() * se + f] += 1
    return _ribbon_polynomial(g, _unpack(census, sk, se))


def whitney_rank_polynomial(g: EmbeddedGraph, edge_cap: int = DEFAULT_EDGE_CAP) -> TrivariatePolynomial:
    """Whitney's rank polynomial: the z = 1 specialization of the BRT polynomial.

    Sums x^(k(H)-1) y^(n(H)) over the subsets H with the depth-first
    enumeration of :func:`brt_polynomial`, keeping only its union-find:
    component counts alone, no sub-rotations and no faces.  This is the
    production path for Tutte values (:func:`tutte_eval`);
    ``check_rank_oracle`` compares it with ``brt_by_sweep`` at z = 1.
    """
    _check_cap(g.edge_count, edge_cap)
    nv = g.vertex_count
    coeffs: dict[tuple[int, int, int], int] = {}
    for (k, e_sub, _), count in _subset_census(g, faces=False).items():
        coeffs[(k - 1, e_sub - nv + k, 0)] = count
    return TrivariatePolynomial(coeffs)


def tutte_eval(
    g: EmbeddedGraph, x: Fraction, y: Fraction, edge_cap: int = DEFAULT_EDGE_CAP
) -> Fraction:
    """Tutte polynomial value T(x, y) = R(x-1, y-1), R the rank polynomial.

    T(x, y) = BRT(x-1, y-1, 1), and z = 1 erases the genus exponent, so
    only component counts matter and no sub-ribbon faces are traced.
    ``check_rank_oracle`` cross-checks the rank polynomial against the
    BRT sweep at z = 1.  At the default cap the polynomial is enumerated
    once per graph (``EmbeddedGraph.derived``).
    """
    if edge_cap == DEFAULT_EDGE_CAP:
        p = g.derived(whitney_rank_polynomial)
    else:
        p = whitney_rank_polynomial(g, edge_cap)
    return p.evaluate(Fraction(x) - 1, Fraction(y) - 1, Fraction(1))


def medial_component_count_via_brt(g: EmbeddedGraph) -> int:
    """Strand count of the medial graph read off |BRT(-2, -2, 1/4)| = 2^(c-1)."""
    value = g.derived(brt_polynomial).evaluate(Fraction(-2), Fraction(-2), Fraction(1, 4))
    magnitude = abs(value)
    if magnitude.denominator != 1:
        raise InternalInvariantError(f"|BRT(-2,-2,1/4)| = {magnitude} is not an integer")
    n = magnitude.numerator
    if n == 0 or n & (n - 1):
        raise InternalInvariantError(f"|BRT(-2,-2,1/4)| = {n} is not a power of two")
    return n.bit_length()
