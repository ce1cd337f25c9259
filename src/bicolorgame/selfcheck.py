"""Cross-validation suite runnable on any graph; backs the CLI selftest.

Each check verifies one identity tying independent computation routes
together.  A graph passing all of them has consistent face tracing,
linear algebra, medial tracing, polynomial enumeration and homology.
An identity that needs an enumeration is reported as passed and
"skipped (...)" where the graph is beyond that enumeration's cap: the
check calls the enumerator and reports the ``EdgeCapError`` it raises,
so each cap and its message have one owner.  The plane representatives
need none: one rank verifies them at every size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .errors import EdgeCapError, InternalInvariantError
from .homology import class_count_homology, strand_kernel_basis, strand_kernel_dim, tree_cotree
from .medial import strand_space, trace_medial
from .representatives import planar_representatives, verify_representatives


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _xor_sum(vectors: Iterable[int]) -> int:
    total = 0
    for v in vectors:
        total ^= v
    return total


def _all_double_cycles(g: EmbeddedGraph, vectors: Iterable[int]) -> bool:
    """True iff every vector is a cycle of g and of its dual.

    Each test is one parity walk over the vector's edges: at g's vertices,
    then at the dual's, which are g's faces.
    """
    d = g.dual()
    return all(g.is_cycle(v) and d.is_cycle(v) for v in vectors)


def check_euler(g: EmbeddedGraph) -> CheckResult:
    v, e, f = g.vertex_count, g.edge_count, g.face_count
    try:
        genus = g.genus
    except InternalInvariantError as exc:
        return CheckResult("euler-genus", False, f"v={v} e={e} f={f}: {exc}")
    ok = v - e + f == 2 - 2 * genus and genus >= 0
    return CheckResult("euler-genus", ok, f"v={v} e={e} f={f} genus={genus}")


def check_incidence_shape(g: EmbeddedGraph) -> CheckResult:
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
            return CheckResult("incidence-columns", False, f"column {col} has {ones} ones")
    return CheckResult("incidence-columns", True)


def check_dual_involution(g: EmbeddedGraph) -> CheckResult:
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
    return CheckResult("dual-involution", ok)


def check_orthogonality(g: EmbeddedGraph) -> CheckResult:
    """Every face row is a cycle of g, so it is orthogonal to every vertex row.

    The walk of face row s leaves vertex v the parity dot(r_v, s); a loop
    adds 0 to both.
    """
    ok = all(map(g.is_cycle, g.dual_incidence_matrix.rows))
    return CheckResult("dual-cuts-are-cycles", ok, "" if ok else "a face row meets a vertex row oddly")


def check_dimension_identities(g: EmbeddedGraph) -> CheckResult:
    s = spaces.summarize(g)
    ok = (
        s.dim_cocycle == max(g.vertex_count - 1, 0)
        and s.dim_dual_cocycle == max(g.face_count - 1, 0)
        and s.dim_intersection == g.cocycle_intersection.nrows
        and s.class_exponent == 2 * s.genus + s.dim_intersection
        and (g.edge_count - s.dim_cocycle) - s.dim_dual_cocycle == 2 * s.genus
    )
    return CheckResult("dimension-identities", ok, f"exponent={s.class_exponent}")


def check_counts_agree(g: EmbeddedGraph) -> CheckResult:
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
    return CheckResult("three-route-count", ok, detail)


def check_strand_lemma(g: EmbeddedGraph) -> CheckResult:
    mc = trace_medial(g)
    if g.edge_count == 0:
        return CheckResult("strand-lemma", mc.count == 0)
    if _xor_sum(mc.trace_vectors):
        return CheckResult("strand-lemma", False, "trace vectors do not sum to zero")
    for j in range(g.edge_count):
        if mc.crossings[j] != 2:
            return CheckResult("strand-lemma", False, f"edge {j} not crossed exactly twice")
    if gf2.rank(mc.trace_matrix()) != mc.count - 1:
        return CheckResult("strand-lemma", False, "strand space has wrong dimension")
    if not _all_double_cycles(g, mc.trace_vectors):
        return CheckResult("strand-lemma", False, "a trace vector is not a bi-directional cycle")
    return CheckResult("strand-lemma", True, f"c={mc.count}")


def check_component_count_identity(g: EmbeddedGraph) -> CheckResult:
    if g.edge_count == 0:
        return CheckResult("polynomial-strand-count", True, "skipped (edgeless)")
    try:
        c_poly = medial_component_count_via_brt(g)
    except EdgeCapError as exc:
        return CheckResult("polynomial-strand-count", True, f"skipped ({exc})")
    c_trace = trace_medial(g).count
    return CheckResult(
        "polynomial-strand-count", c_poly == c_trace, f"poly={c_poly} trace={c_trace}"
    )


def check_inclusions(g: EmbeddedGraph) -> CheckResult:
    mc = trace_medial(g)
    try:
        strands = strand_space(mc)
    except InternalInvariantError as exc:
        return CheckResult("inclusion-chain", False, f"no strand space: {exc}")
    # strands is a basis, so adding U cap U* raises the rank unless it lies inside
    if gf2.rank(gf2.stack(strands, g.cocycle_intersection)) != strands.nrows:
        return CheckResult("inclusion-chain", False, "U cap U* not inside the strand space")
    if not _all_double_cycles(g, strands.rows):
        return CheckResult("inclusion-chain", False, "strand space leaves the double cycle space")
    return CheckResult("inclusion-chain", True)


def check_kernel_subspace(g: EmbeddedGraph) -> CheckResult:
    kernel = strand_kernel_basis(g)
    if not gf2.row_space_equal(kernel, g.cocycle_intersection):
        return CheckResult("homology-kernel", False, "ker on strands differs from U cap U*")
    dual_kernel = strand_kernel_basis(g.dual())
    if not gf2.row_space_equal(kernel, dual_kernel):
        return CheckResult("homology-kernel", False, "primal and dual kernels differ")
    return CheckResult("homology-kernel", True)


def check_tree_choice_invariance(g: EmbeddedGraph) -> CheckResult:
    b = strand_kernel_dim(g)
    for seed in range(3):
        if strand_kernel_dim(g, tree_cotree(g, rng=Random(seed))) != b:
            return CheckResult("tree-choice-invariance", False, f"seed {seed} changed b")
    return CheckResult("tree-choice-invariance", True, f"b={b}")


def check_bot_rank(g: EmbeddedGraph) -> CheckResult:
    """Deleting any incident (vertex, face) pair leaves the row space U + U*.

    Every column of both incidence matrices holds 0 or 2 ones, so the
    vertex rows sum to zero and so do the face rows: any one row of a
    family is the sum of the others, and deleting one row of each keeps
    the span, whichever pair is deleted.  The check verifies the two sums,
    then ranks the one pair that the ``bot`` command prints.
    """
    for family, mat in (("vertex", g.incidence_matrix), ("face", g.dual_incidence_matrix)):
        if _xor_sum(mat.rows):
            return CheckResult("bot-rank", False, f"{family} rows do not sum to zero")
    want = gf2.rank(spaces.moves_matrix(g))
    f = spaces.incident_faces(g, 0)[0]
    if gf2.rank(spaces.bot_matrix(g, 0, f)) != want:
        return CheckResult("bot-rank", False, f"pair (v=0, f={f})")
    return CheckResult("bot-rank", True, f"rank={want}")


def check_rank_oracle(g: EmbeddedGraph) -> CheckResult:
    """Both depth-first enumerations against the per-mask sweep.

    The three-variable comparison checks the face counts of
    ``brt_polynomial``; z = 1 checks the component counts of the rank
    polynomial.
    """
    try:
        swept = brt_by_sweep(g)
    except EdgeCapError as exc:
        return CheckResult("whitney-specialization", True, f"skipped ({exc})")
    if brt_polynomial(g) != swept:
        return CheckResult("whitney-specialization", False, "BRT differs from the sweep")
    ok = swept.specialize_z_one() == whitney_rank_polynomial(g)
    return CheckResult("whitney-specialization", ok)


def check_genus_zero(g: EmbeddedGraph) -> CheckResult:
    if g.genus != 0:
        return CheckResult("plane-structure", True, "skipped (genus > 0)")
    if not gf2.row_space_equal(g.dual_incidence_matrix, spaces.cycle_space(g)):
        return CheckResult("plane-structure", False, "dual cut space differs from cycle space")
    b = spaces.bicycle_space(g).nrows
    detail = f"bicycle dim={b}"
    try:
        t_value = tutte_eval(g, Fraction(-1), Fraction(-1))
    except EdgeCapError as exc:
        detail += f"; T(-1,-1) skipped ({exc})"
    else:
        if abs(t_value) != 1 << b:
            return CheckResult("plane-structure", False, f"|T(-1,-1)|={abs(t_value)} vs 2^{b}")
    if not verify_representatives(g, planar_representatives(g)):
        return CheckResult("plane-structure", False, "representatives failed verification")
    return CheckResult("plane-structure", True, detail)


ALL_CHECKS: tuple[Callable[[EmbeddedGraph], CheckResult], ...] = (
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
