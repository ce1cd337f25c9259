"""The Bollobás-Riordan-Tutte polynomial by a transfer over spanning subgraphs.

For a connected graph embedded on an orientable surface,

    BRT(x, y, z) = sum over edge subsets H of x^(k(H)-1) y^(n(H)) z^(g(H)),

where k is the component count of the spanning subgraph, n = e - v + k its
nullity, and g its genus as a ribbon subgraph.  The subsets are counted by
a transfer: the edges are decided absent or present one at a time, and the
subsets decided so far are grouped by a state, the boundary curves of the
ribbon surface they span with their components, so each state is carried
once with its counts (the partition states of Sekine, Imai & Tani, ISAAC
1995, extended to ribbon faces).  A bridge or a loop is decided like any
other edge.  :func:`brt_by_sweep` is the oracle: it visits every subset of
the whole graph in Gray-code order, one edge toggle and one face walk from
the last.  The x variable is shifted by one relative to the oldest
convention, so the Tutte polynomial is T(x, y) = BRT(x-1, y-1, 1), which
is Whitney's rank polynomial at (x-1, y-1): Tutte values need component
counts only and come from :func:`whitney_rank_polynomial`.

Evaluations use exact rational arithmetic throughout, over one common
denominator; the interesting evaluation point z = 1/4 makes floating
point unacceptable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .embedded import EmbeddedGraph
from .errors import EdgeCapError, InternalInvariantError

DEFAULT_EDGE_CAP = 26


@dataclass(frozen=True)
class TrivariatePolynomial:
    """Integer polynomial in x, y, z keyed by exponent triples (a, b, c).

    An exponent or coefficient that is not an integer (a ``str`` or
    ``float``) raises ``TypeError``; zero coefficients are dropped.
    """

    coeffs: Mapping[tuple[int, int, int], int]

    def __post_init__(self) -> None:
        index = operator.index
        clean = {tuple(map(index, k)): index(v) for k, v in self.coeffs.items() if v}
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


def _order(g: EmbeddedGraph) -> list[int]:
    """The edges of ``g`` in the order :func:`_transfer` decides them.

    A run is a maximal block of undecided darts, consecutive in the
    rotation of a vertex with a decided dart.  No edge is attached between
    two darts of a run, so a run lies whole on one boundary curve of a
    transfer state, and the run count bounds the number of distinct
    states.  Each next edge is the one after which the run count can rise
    least in two steps; ties go to the edge that brings fewer new darts
    into the state, then to the one that raises the run count less
    itself, then to the loop with fewer undecided darts between its two on
    the shorter side, then to the lower index.
    """
    sigma, sigma_inv, de = g.sigma, g.sigma_inv, g.dart_edge
    # A run starts at each undecided dart whose predecessor is decided, so
    # deciding edge j raises the run count by rise[j], and lowers rise[k]
    # by one for each rotation neighbour of k's darts that is a dart of j.
    rise = {}
    near: list[dict[int, int]] = []
    for j, (a, b) in enumerate(g.edge_darts):
        rise[j] = (sigma[a] != a) + (sigma[b] not in (a, b)) - (sigma_inv[b] == a)
        counts: dict[int, int] = {}
        for x in (sigma[a], sigma_inv[a], sigma[b], sigma_inv[b]):
            if de[x] != j:
                counts[de[x]] = counts.get(de[x], 0) + 1
        near.append(counts)
    degree = [len(rot) for rot in g.rotations]
    undecided = degree[:]
    decided: set[int] = set()
    order = []
    while rise:
        ranked = sorted(rise, key=rise.__getitem__)
        best: tuple[int, ...] | None = None
        for j in rise:  # ascending, so ties go to the lower index
            then = min([rise[k] - c for k, c in near[j].items() if k in rise] or [2])
            for k in ranked:
                if k != j and k not in near[j]:
                    then = min(then, rise[k])
                    break
            u, w = g.endpoints[j]
            fresh = (undecided[u] == degree[u]) * degree[u]
            fresh += (w != u and undecided[w] == degree[w]) * degree[w]
            cost = (rise[j] + then, fresh, rise[j])
            if best is not None and cost > best[:3]:
                continue
            span = 0
            if u == w:
                a, b = g.edge_darts[j]
                d = sigma[a]
                while d != b:
                    span += d not in decided
                    d = sigma[d]
                span = min(span, undecided[u] - 2 - span)
            if best is None or (*cost, span) < best:
                best, pick = (*cost, span), j
        del rise[pick]
        for k, c in near[pick].items():
            if k in rise:
                rise[k] -= c
        order.append(pick)
        decided.update(g.edge_darts[pick])
        u, w = g.endpoints[pick]
        undecided[u] -= 1
        undecided[w] -= 1
    return order


def _transfer(g: EmbeddedGraph, faces: bool) -> dict[tuple[int, int, int], int]:
    """Count the 2^|E| spanning subsets H of ``g`` by (k(H), |H|, f(H)), edge by edge.

    The edges are decided absent or present in the order of :func:`_order`,
    which both modes read once per graph through ``g.derived``, and a
    table maps each state to the counts of the decided subsets that
    reach it, in the flat census layout k * sk + |H| * se + f, where k and
    f count the components and faces already closed.  The census holds
    only the indices reached, so its size follows the counts the states
    carry, not the (nv + 1) * sk slots of the layout.  A state lists the
    boundary curves of the surface made of the touched vertex discs and
    the present decided edges: each curve is the cyclic sequence of the
    undecided darts along it, from its least dart, with the label of its
    component.  Deciding edge (a, b) absent drops a and b.  Present, with
    both darts on one curve a X b Y it leaves two curves X and Y; with its
    darts on two curves a X and b Y it leaves one curve X Y and merges
    their components.  An emptied curve adds one closed face, and a
    component with no open curve left adds one closed component.  A vertex
    enters as its rotation when it is first touched, and a vertex never
    touched counts one component and one face.  With ``faces`` false f(H)
    is reported as 0 and a state is only the partition, into components,
    of the touched vertices that still have undecided edges.
    """
    nv, m = g.vertex_count, g.edge_count
    order = g.derived(_order)
    # census index k * sk + |H| * se + f, with f <= nv + |H|, for the indices reached
    se = nv + m + 1 if faces else 1
    sk = (m + 1) * se
    untouched = sum(not rot for rot in g.rotations)
    start = untouched * (sk + faces)
    touched: set[int] = set()
    steps = []
    if faces:
        for j in order:
            a, b = g.edge_darts[j]
            fresh = []
            for v in dict.fromkeys(g.endpoints[j]):
                if v not in touched:
                    touched.add(v)
                    rot = g.rotations[v]
                    i = rot.index(min(rot))
                    fresh.append(rot[i:] + rot[:i])
            steps.append((a, b, tuple(fresh), se, sk))
        decide = _decide_curves
    else:
        remaining = [len(rot) for rot in g.rotations]
        frontier: list[int] = []
        for j in order:
            u, w = g.endpoints[j]
            fresh = [v for v in dict.fromkeys((u, w)) if v not in touched]
            touched.update(fresh)
            frontier += fresh
            remaining[u] -= 1
            remaining[w] -= 1
            kept = tuple(i for i, v in enumerate(frontier) if remaining[v])
            gone = tuple(i for i, v in enumerate(frontier) if not remaining[v])
            steps.append((frontier.index(u), frontier.index(w), len(fresh), kept, gone, sk))
            frontier = [frontier[i] for i in kept]
        decide = _decide_blocks
    table: dict = {((), ()) if faces else (): {start: 1}}
    for step in steps:
        out: dict = {}
        for state, counts in table.items():
            for key, delta in decide(state, *step):
                dst = out.get(key)
                if dst is None:
                    out[key] = {x + delta: n for x, n in counts.items()}
                else:
                    for x, n in counts.items():
                        dst[x + delta] = dst.get(x + delta, 0) + n
        table = out
    census: dict[int, int] = {}
    for counts in table.values():
        for x, n in counts.items():
            census[x] = census.get(x, 0) + n
    return _unpack(census.items(), sk, se)


Curves = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


def _decide_curves(
    state: Curves, a: int, b: int, fresh: tuple[tuple[int, ...], ...], se: int, sk: int
) -> list[tuple[Curves, int]]:
    """The states and census steps of edge (a, b) absent and present."""
    curves, labels = state
    if fresh:
        top = max(labels, default=-1) + 1
        curves += fresh
        labels += tuple(range(top, top + len(fresh)))
    for i, c in enumerate(curves):
        if a in c:
            ia = i
        if b in c:
            ib = i
    ca, la, lb = curves[ia], labels[ia], labels[ib]
    i = ca.index(a)
    x = ca[i + 1:] + ca[:i]  # the curve from after a round to before a
    if ia == ib:
        k = x.index(b)
        absent = [(x[:k] + x[k + 1:], la)]
        present = [(x[:k], la), (x[k + 1:], la)]
    else:
        cb = curves[ib]
        k = cb.index(b)
        y = cb[k + 1:] + cb[:k]
        absent = [(x, la), (y, lb)]
        present = [(x + y, la)]
    rest = [(c, l) for i, (c, l) in enumerate(zip(curves, labels)) if i != ia and i != ib]
    return [_settle(rest, absent, 0, sk), _settle(rest, present, se, sk, lb, la)]


def _settle(
    rest: list[tuple[tuple[int, ...], int]], changed: list[tuple[tuple[int, ...], int]],
    step: int, sk: int, merged: int = -1, into: int = -1,
) -> tuple[Curves, int]:
    """The canonical state of the curves ``rest`` and ``changed``, the label
    ``merged`` renamed ``into``, with the step that counts what closed."""
    if merged != into:
        rest = [(c, into if l == merged else l) for c, l in rest]
    else:
        rest = rest[:]
    closing = set()
    for c, l in changed:
        if c:
            i = c.index(min(c))
            rest.append((c[i:] + c[:i], l))
        else:  # a closed face, and perhaps the last open curve of its component
            step += 1
            closing.add(l)
    if closing:
        step += sk * len(closing.difference(l for _, l in rest))
    rest.sort()
    relabel: dict[int, int] = {}
    return (tuple(c for c, _ in rest), tuple(relabel.setdefault(l, len(relabel)) for _, l in rest)), step


def _decide_blocks(
    state: tuple[int, ...], iu: int, iw: int, fresh: int,
    kept: tuple[int, ...], gone: tuple[int, ...], sk: int,
) -> list[tuple[tuple[int, ...], int]]:
    """The states and census steps of an edge, absent and present, without faces."""
    if fresh:
        top = max(state, default=-1) + 1
        state += tuple(range(top, top + fresh))
    out = []
    lu, lw = state[iu], state[iw]
    for labels, step in ((state, 0), (tuple(lu if l == lw else l for l in state), 1)):
        keep = [labels[i] for i in kept]
        closed = {labels[i] for i in gone}.difference(keep)
        relabel: dict[int, int] = {}
        out.append((tuple(relabel.setdefault(l, len(relabel)) for l in keep), step + sk * len(closed)))
    return out


def _unpack(census: Iterable[tuple[int, int]], sk: int, se: int) -> dict[tuple[int, int, int], int]:
    """The nonzero counts of (index, count) pairs of a flat census indexed
    k * sk + |H| * se + f, by (k, |H|, f): the one decoder of both tallies."""
    out: dict[tuple[int, int, int], int] = {}
    for index, count in census:
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
    """Count all 2^|E| spanning sub-ribbons of ``g`` by genus, with the transfer."""
    _check_cap(g.edge_count, edge_cap)
    return _ribbon_polynomial(g, _transfer(g, faces=True))


def brt_by_sweep(g: EmbeddedGraph) -> TrivariatePolynomial:
    """The BRT polynomial from every subset of the whole graph, one at a time.

    The oracle for :func:`brt_polynomial` in ``selfcheck`` and the tests.
    It visits all 2^E edge subsets H in reflected Gray-code order: step i
    toggles edge ``(i & -i).bit_length() - 1``, so every mask comes once,
    one edge away from the last.  It keeps the census index
    k(H) * sk + |H| * se + f(H) of :func:`_transfer`, where f <= nv + |H|,
    and moves it by se per toggled edge, by 1 per face split or merge and
    by sk per component change.  k(H) counts the components of the
    spanning subgraph (all vertices kept) and f(H) its faces as a ribbon
    subgraph, with one face per isolated vertex, so the sweep opens at
    (k, |H|, f) = (V, 0, V).  A face is an orbit of
    phi_H(d) = sigma_H(alpha(d)), where sigma_H, the rotation successor
    among the present darts, is kept as a doubly linked list.  Each step
    applies one of two local rules of orientable ribbon graphs
    (Bollobás & Riordan, Math. Ann. 2002; Ellis-Monaghan & Moffatt,
    Graphs on Surfaces, 2013):

    * Adding e = (a, b): a enters the corner before the first present
      dart after it in its rotation, found by walking the rotation
      successor from a, and likewise b.  At a vertex with no present dart
      the corner is that vertex's own face.  If both corners lie on one
      phi_H-orbit, that face splits: f + 1 and k is unchanged.  Otherwise
      two faces merge: f - 1, and k - 1 exactly when a search over H's
      present edges finds the endpoints in different components (at once
      when an endpoint was isolated).
    * Removing e: walk the phi_H-orbit from a.  If it meets b, one face
      lies on both sides of e and splits: f + 1, and k + 1 exactly when
      the endpoints are disconnected in H - e.  Otherwise f - 1 and k is
      unchanged: an edge between two faces is no bridge.

    A step costs one face walk, two corner walks when it adds, and, where
    k may change, one search of a component.  With :func:`_transfer` it
    shares only the census layout and :func:`_unpack`.  The transfer's
    census holds only the indices reached; this one is a dense list,
    which the edge cap bounds and which tallies 2^E masks fastest.
    """
    _check_cap(g.edge_count, DEFAULT_EDGE_CAP)
    m, nv = g.edge_count, g.vertex_count
    se = nv + m + 1
    sk = (m + 1) * se
    census = [0] * ((nv + 1) * sk)
    index_of = {d: i for i, d in enumerate(sorted(g.alpha))}
    bit = [1 << g.dart_edge[d] for d in index_of]
    alpha = [index_of[g.alpha[d]] for d in index_of]
    sigma = [index_of[g.sigma[d]] for d in index_of]
    succ = list(range(len(bit)))  # sigma_H, and its inverse
    pred = list(range(len(bit)))
    # per vertex, the bit and far end of each incident non-loop edge
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    edges = []
    for j, ((da, db), (u, w)) in enumerate(zip(g.edge_darts, g.endpoints)):
        if u != w:
            neighbours[u].append((1 << j, w))
            neighbours[w].append((1 << j, u))
        edges.append((1 << j, u, w, index_of[da], index_of[db]))

    def joined(u: int, w: int, mask: int) -> bool:
        seen = 1 << u
        stack = [u]
        while stack:
            for edge_bit, x in neighbours[stack.pop()]:
                if edge_bit & mask and not seen >> x & 1:
                    if x == w:
                        return True
                    seen |= 1 << x
                    stack.append(x)
        return False

    mask = 0
    at = nv * sk + nv
    census[at] = 1
    for step in range(1, 1 << m):
        ebit, u, w, a, b = edges[(step & -step).bit_length() - 1]
        if mask & ebit:
            mask ^= ebit
            at -= se
            x = succ[b]
            while x != a and x != b:
                x = succ[alpha[x]]
            if x == b:
                at += 1
                if u != w and (succ[a] == a or succ[b] == b or not joined(u, w, mask)):
                    at += sk
            else:
                at -= 1
            for x in (a, b):
                p, s = pred[x], succ[x]
                succ[p] = s
                pred[s] = p
        else:
            # the first present dart after a, or a itself when none is
            s = sigma[a]
            while s != a and not bit[s] & mask:
                s = sigma[s]
            t = sigma[b]
            while t != b and not bit[t] & mask:
                t = sigma[t]
            if s == a or t == b:
                # an isolated endpoint's own face meets the other corner's
                # face only when e is a loop there
                at += 1 if u == w else -1 - sk
            else:
                x = s
                while x != t:
                    x = succ[alpha[x]]
                    if x == s:
                        break
                if x == t:
                    at += 1
                else:
                    at -= 1
                    if u != w and not joined(u, w, mask):
                        at -= sk
            mask |= ebit
            at += se
            if u == w:
                # b's corner again, now that a is in the rotation
                t = sigma[b]
                while not bit[t] & mask:
                    t = sigma[t]
            for x, s in ((a, s), (b, t)):
                if s == x:
                    succ[x] = pred[x] = x
                else:
                    p = pred[s]
                    succ[p] = pred[s] = x
                    pred[x] = p
                    succ[x] = s
        census[at] += 1
    return _ribbon_polynomial(g, _unpack(enumerate(census), sk, se))


def whitney_rank_polynomial(g: EmbeddedGraph, edge_cap: int = DEFAULT_EDGE_CAP) -> TrivariatePolynomial:
    """Whitney's rank polynomial: the z = 1 specialization of the BRT polynomial.

    Sums x^(k(H)-1) y^(n(H)) over the subsets H with the transfer of
    :func:`brt_polynomial`, its states reduced to the partition of the
    frontier vertices into components: no curves and no faces.  This is
    the production path for Tutte values (:func:`tutte_eval`);
    ``check_rank_oracle`` compares it with ``brt_by_sweep`` at z = 1.
    """
    _check_cap(g.edge_count, edge_cap)
    nv = g.vertex_count
    coeffs: dict[tuple[int, int, int], int] = {}
    for (k, e_sub, _), count in _transfer(g, faces=False).items():
        coeffs[(k - 1, e_sub - nv + k, 0)] = count
    return TrivariatePolynomial(coeffs)


def tutte_eval(
    g: EmbeddedGraph, x: Fraction, y: Fraction, edge_cap: int = DEFAULT_EDGE_CAP
) -> Fraction:
    """Tutte polynomial value T(x, y) = R(x-1, y-1), R the rank polynomial.

    T(x, y) = BRT(x-1, y-1, 1), and z = 1 erases the genus exponent, so
    only component counts matter and the transfer carries no boundary
    curves.  ``check_rank_oracle`` cross-checks the rank polynomial against
    the BRT sweep at z = 1.  At the default cap the polynomial is counted
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
