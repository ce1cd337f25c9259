"""Cross-validation suite runnable on any graph; backs the CLI selftest.

Each check verifies one identity tying independent computation routes
together.  A graph passing all of them has consistent face tracing,
linear algebra, medial tracing, polynomial enumeration and homology.
An identity that needs an enumeration is reported as passed and
"skipped (...)" where the graph is beyond that enumeration's cap: the
check calls the enumerator, and :func:`_check` turns the
``EdgeCapError`` it raises into the skip, so each cap and its message
have one owner and one rule makes a skip of them.  A check that reports
other legs as well catches the error around its capped leg alone.  The
plane representatives need none: one rank verifies them at every size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from random import Random
from typing import Callable, Iterable

from . import gf2, oracle, spaces
from .brt import (
    brt_by_sweep,
    brt_polynomial,
    medial_component_count_via_brt,
    tutte_eval,
    whitney_rank_polynomial,
)
from .embedded import EmbeddedGraph
from .errors import EdgeCapError, InternalInvariantError, InvalidGraphError
from .homology import class_count_homology, strand_basis, strand_kernel_basis, tree_cotree
from .medial import trace_medial
from .representatives import planar_representatives, verify_representatives


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


Verdict = tuple[bool, str]  # (ok, detail) of one check, before it is named
Check = Callable[[EmbeddedGraph], CheckResult]


def _check(name: str) -> Callable[[Callable[[EmbeddedGraph], Verdict]], Check]:
    """Name a function's verdict: fail it on a broken graph, skip it above a cap.

    A graph whose faces break Euler's formula makes ``g.genus`` raise
    :class:`InternalInvariantError` and rebuilding its dual raise
    :class:`InvalidGraphError`; either fails the check, with the error in
    the detail, so every check still reports.  An :class:`EdgeCapError`
    that escapes the check passes it as "skipped (...)" with the
    enumerator's own message: this is the one place a cap becomes a skip.
    """

    def named(verdict: Callable[[EmbeddedGraph], Verdict]) -> Check:
        @wraps(verdict)
        def check(g: EmbeddedGraph) -> CheckResult:
            try:
                ok, detail = verdict(g)
            except (InternalInvariantError, InvalidGraphError) as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            except EdgeCapError as exc:
                ok, detail = True, f"skipped ({exc})"
            return CheckResult(name, ok, detail)

        return check

    return named


def _xor_sum(vectors: Iterable[int]) -> int:
    total = 0
    for v in vectors:
        total ^= v
    return total


@_check("euler-genus")
def check_euler(g: EmbeddedGraph) -> Verdict:
    v, e, f = g.vertex_count, g.edge_count, g.face_count
    try:
        genus = g.genus
    except InternalInvariantError as exc:
        return False, f"v={v} e={e} f={f}: {exc}"
    ok = v - e + f == 2 - 2 * genus and genus >= 0
    return ok, f"v={v} e={e} f={f} genus={genus}"


@_check("incidence-columns")
def check_incidence_shape(g: EmbeddedGraph) -> Verdict:
    """Every column of both incidence matrices holds 0 or 2 ones.

    One pass per matrix keeps the columns met at least once, twice and
    three times; only the first bad column is recounted for the report.
    """
    for mat in (g.incidence_matrix, g.dual_incidence_matrix):
        once = twice = more = 0
        for r in mat.rows:
            more |= twice & r
            twice |= once & r
            once |= r
        bad = once ^ twice | more
        if bad:
            col = (bad & -bad).bit_length() - 1
            ones = sum((r >> col) & 1 for r in mat.rows)
            return False, f"column {col} has {ones} ones"
    return True, ""


@_check("dual-involution")
def check_dual_involution(g: EmbeddedGraph) -> Verdict:
    d = g.dual()
    dd = d.dual()
    ok = (
        d.vertex_count == g.face_count
        and d.face_count == g.vertex_count
        and dd.vertex_count == g.vertex_count
        and dd.face_count == g.face_count
        and sorted(dd.incidence_matrix.rows) == sorted(g.incidence_matrix.rows)
        and d.incidence_matrix.rows == g.dual_incidence_matrix.rows
        and d.genus == g.genus
    )
    return ok, ""


@_check("dual-cuts-are-cycles")
def check_orthogonality(g: EmbeddedGraph) -> Verdict:
    """Every face row is a cycle of g, so it is orthogonal to every vertex row.

    The walk of face row s leaves vertex v the parity dot(r_v, s); a loop
    adds 0 to both.
    """
    ok = all(map(g.is_cycle, g.dual_incidence_matrix.rows))
    return ok, "" if ok else "a face row meets a vertex row oddly"


@_check("dimension-identities")
def check_dimension_identities(g: EmbeddedGraph) -> Verdict:
    s = g.derived(spaces.summarize)
    ok = (
        s.dim_cocycle == max(g.vertex_count - 1, 0)
        and s.dim_dual_cocycle == max(g.face_count - 1, 0)
        and s.dim_intersection == g.cocycle_intersection.nrows
        and s.class_exponent == 2 * s.genus + s.dim_intersection
        and (g.edge_count - s.dim_cocycle) - s.dim_dual_cocycle == 2 * s.genus
    )
    detail = f"exponent={s.class_exponent}"
    # |T(-1,-1)| = 2^(bicycle dim) on every surface (Rosenstiehl and Read)
    try:
        t_value = tutte_eval(g, Fraction(-1), Fraction(-1))
    except EdgeCapError as exc:
        return ok, f"{detail}; T(-1,-1) skipped ({exc})"
    if abs(t_value) != 1 << s.bicycle_dim:
        return False, f"|T(-1,-1)|={abs(t_value)} vs 2^{s.bicycle_dim}"
    return ok, detail


@_check("three-route-count")
def check_counts_agree(g: EmbeddedGraph) -> Verdict:
    direct = spaces.class_count_direct(g)
    homological = class_count_homology(g)
    exact = spaces.exact_decimal
    detail = f"direct={exact(direct)} homology={exact(homological)}"
    ok = direct == homological
    if ok:
        try:
            swept = oracle.enumerate_classes(g).class_count
        except EdgeCapError as exc:
            detail += f" oracle skipped ({exc})"
        else:
            detail += f" oracle={swept}"
            ok = swept == direct
    return ok, detail


@_check("strand-lemma")
def check_strand_lemma(g: EmbeddedGraph) -> Verdict:
    mc = g.derived(trace_medial)
    if g.edge_count == 0:
        return mc.count == 0, ""
    if _xor_sum(mc.trace_vectors):
        return False, "trace vectors do not sum to zero"
    for j in range(g.edge_count):
        if mc.crossings[j] != 2:
            return False, f"edge {j} not crossed exactly twice"
    # The basis checks that the first c - 1 vectors are independent cycles of
    # g; with the zero sum that covers all c at g's vertices, so only the
    # faces are walked here.
    g.derived(strand_basis)
    if not all(map(g.dual().is_cycle, mc.trace_vectors)):
        return False, "a trace vector is not a bi-directional cycle"
    return True, f"c={mc.count}"


@_check("polynomial-strand-count")
def check_component_count_identity(g: EmbeddedGraph) -> Verdict:
    if g.edge_count == 0:
        return True, "skipped (edgeless)"
    c_poly = medial_component_count_via_brt(g)
    c_trace = g.derived(trace_medial).count
    return c_poly == c_trace, f"poly={c_poly} trace={c_trace}"


@_check("inclusion-chain")
def check_inclusions(g: EmbeddedGraph) -> Verdict:
    strands = g.derived(strand_basis)
    # strands is a basis, so adding U cap U* raises the rank unless it lies inside
    ok = gf2.rank(gf2.stack(strands, g.cocycle_intersection)) == strands.nrows
    return ok, "" if ok else "U cap U* not inside the strand space"


@_check("homology-kernel")
def check_kernel_subspace(g: EmbeddedGraph) -> Verdict:
    # all three bases are in reduced echelon form, unique to a row space
    kernel = strand_kernel_basis(g).rows
    if kernel != g.cocycle_intersection.rows:
        return False, "ker on strands differs from U cap U*"
    if kernel != strand_kernel_basis(g.dual()).rows:
        return False, "primal and dual kernels differ"
    return True, ""


@_check("tree-choice-invariance")
def check_tree_choice_invariance(g: EmbeddedGraph) -> Verdict:
    b = strand_kernel_basis(g).nrows
    for seed in range(3):
        if strand_kernel_basis(g, tree_cotree(g, rng=Random(seed))).nrows != b:
            return False, f"seed {seed} changed b"
    return True, f"b={b}"


@_check("bot-rank")
def check_bot_rank(g: EmbeddedGraph) -> Verdict:
    """Deleting any incident (vertex, face) pair leaves the row space U + U*.

    Every column of both incidence matrices holds 0 or 2 ones, so the
    vertex rows sum to zero and so do the face rows: any one row of a
    family is the sum of the others, and deleting one row of each keeps
    the span, whichever pair is deleted.  The check verifies the two sums,
    then ranks the one pair that the ``bot`` command prints.
    """
    for family, mat in (("vertex", g.incidence_matrix), ("face", g.dual_incidence_matrix)):
        if _xor_sum(mat.rows):
            return False, f"{family} rows do not sum to zero"
    want = g.edge_count - g.derived(spaces.class_exponent)
    f = spaces.incident_faces(g, 0)[0]
    if gf2.rank(spaces.bot_matrix(g, 0, f)) != want:
        return False, f"pair (v=0, f={f})"
    return True, f"rank={want}"


@_check("whitney-specialization")
def check_rank_oracle(g: EmbeddedGraph) -> Verdict:
    """Both transfer counts against the Gray-code sweep of every subset.

    ``brt_by_sweep`` moves each subset's census index (components, edges
    and faces) on from the last subset's; with the transfer it shares only
    the census layout and its decoding.  The three-variable
    comparison checks the face counts of ``brt_polynomial``; z = 1 checks
    the component counts of the rank polynomial.
    """
    swept = brt_by_sweep(g)
    if g.derived(brt_polynomial) != swept:
        return False, "BRT differs from the sweep"
    return swept.specialize_z_one() == g.derived(whitney_rank_polynomial), ""


@_check("plane-structure")
def check_genus_zero(g: EmbeddedGraph) -> Verdict:
    if g.genus != 0:
        return True, "skipped (genus > 0)"
    if not gf2.row_space_equal(g.dual_incidence_matrix, g.derived(spaces.cycle_space)):
        return False, "dual cut space differs from cycle space"
    if not verify_representatives(g, planar_representatives(g)):
        return False, "representatives failed verification"
    return True, f"bicycle dim={g.derived(spaces.summarize).bicycle_dim}"


ALL_CHECKS: tuple[Check, ...] = (
    check_euler,
    check_incidence_shape,
    check_dual_involution,
    check_orthogonality,
    check_dimension_identities,
    check_counts_agree,
    check_strand_lemma,
    check_component_count_identity,
    check_inclusions,
    check_kernel_subspace,
    check_tree_choice_invariance,
    check_bot_rank,
    check_rank_oracle,
    check_genus_zero,
)


def run_all_checks(g: EmbeddedGraph) -> list[CheckResult]:
    return [check(g) for check in ALL_CHECKS]


def failed_checks(results: Iterable[CheckResult]) -> list[CheckResult]:
    return [r for r in results if not r.ok]
