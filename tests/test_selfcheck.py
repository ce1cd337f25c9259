"""Mutation tests for the shared identity list in ``selfcheck``.

Acceptance criterion 4 and ``selftest`` both trust ``run_all_checks``, so a
check that always passes would hide a broken route.  Each case breaks one
input a check consumes and requires the check to report ``ok=False``.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from random import Random
from types import SimpleNamespace

import pytest
from conftest import digon_chain, long_decimal, shuffled_torus_grid

from bicolorgame import brt, cli, gf2, homology, medial, selfcheck, spaces
from bicolorgame.brt import TrivariatePolynomial
from bicolorgame.embedded import FaceSet
from bicolorgame.errors import InternalInvariantError
from bicolorgame.fixtures import fixture_names, fixture_text, load_fixture
from bicolorgame.gf2 import GF2Matrix
from bicolorgame.random_graphs import random_embedded_graph, random_planar_graph


def _euler_face_count_off(monkeypatch, g):
    return SimpleNamespace(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        face_count=g.face_count + 2,
        genus=g.genus,
    )


def _face_row_meets_a_vertex_once(monkeypatch, g):
    first_row = g.incidence_matrix.rows[0]
    lowest_edge_bit = first_row & -first_row
    # the check walks g's edges, so the fake face row goes into g itself;
    # monkeypatch restores the cached matrix afterwards
    fake = GF2Matrix(g.edge_count, (lowest_edge_bit,))
    monkeypatch.setitem(g.__dict__, "dual_incidence_matrix", fake)
    return g


def _intersection_dim_off(monkeypatch, g):
    real = spaces.summarize

    def summarize(h):
        s = real(h)
        return dataclasses.replace(s, dim_intersection=s.dim_intersection + 1)

    monkeypatch.setattr(spaces, "summarize", summarize)
    return g


def _bicycle_dim_off(monkeypatch, g):
    # every other field agrees, so only |T(-1,-1)| = 2^(bicycle dim) can tell
    real = spaces.summarize

    def summarize(h):
        s = real(h)
        return dataclasses.replace(s, bicycle_dim=s.bicycle_dim + 1)

    monkeypatch.setattr(spaces, "summarize", summarize)
    return g


def _sum_rank_off(monkeypatch, g):
    # rank of U + U* one too high, and every field derived from it moved to
    # agree, so only a second computation of U cap U* can tell
    real = spaces.summarize

    def summarize(h):
        s = real(h)
        return dataclasses.replace(
            s,
            dim_sum=s.dim_sum + 1,
            dim_intersection=s.dim_intersection - 1,
            class_exponent=s.class_exponent - 1,
        )

    monkeypatch.setattr(spaces, "summarize", summarize)
    return g


def _polynomial_strand_count_off(monkeypatch, g):
    real = selfcheck.medial_component_count_via_brt
    monkeypatch.setattr(selfcheck, "medial_component_count_via_brt", lambda h: real(h) + 1)
    return g


def _strand_dropped(monkeypatch, g):
    real = selfcheck.trace_medial

    def trace_medial(h):
        mc = real(h)
        return dataclasses.replace(mc, trace_vectors=mc.trace_vectors[:-1])

    monkeypatch.setattr(selfcheck, "trace_medial", trace_medial)
    return g


def _strand_basis_emptied(monkeypatch, g):
    monkeypatch.setattr(selfcheck, "strand_basis", lambda h: GF2Matrix(h.edge_count))
    return g


def _strand_kernel_emptied(monkeypatch, g):
    monkeypatch.setattr(selfcheck, "strand_kernel_basis", lambda h: GF2Matrix(h.edge_count))
    return g


def _dual_kernel_emptied(monkeypatch, g):
    # the primal kernel still equals U cap U*, so only the dual leg can tell
    real = selfcheck.strand_kernel_basis

    def strand_kernel_basis(h, tc=None):
        return real(h, tc) if h is g else GF2Matrix(h.edge_count)

    monkeypatch.setattr(selfcheck, "strand_kernel_basis", strand_kernel_basis)
    return g


def _homology_count_doubled(monkeypatch, g):
    real = selfcheck.class_count_homology
    monkeypatch.setattr(selfcheck, "class_count_homology", lambda h: 2 * real(h))
    return g


def _whitney_shifted(monkeypatch, g):
    real = selfcheck.whitney_rank_polynomial

    def whitney(h):
        return TrivariatePolynomial({(a + 1, b, c): k for (a, b, c), k in real(h).coeffs.items()})

    monkeypatch.setattr(selfcheck, "whitney_rank_polynomial", whitney)
    return g


def _kernel_dim_depends_on_tree(monkeypatch, g):
    real = selfcheck.strand_kernel_basis

    def strand_kernel_basis(h, tc=None):
        kernel = real(h, tc)
        return kernel if tc is None else gf2.stack(kernel, GF2Matrix(h.edge_count, (0,)))

    monkeypatch.setattr(selfcheck, "strand_kernel_basis", strand_kernel_basis)
    return g


def _bot_matrix_emptied(monkeypatch, g):
    monkeypatch.setattr(spaces, "bot_matrix", lambda h, v, f: GF2Matrix(h.edge_count))
    return g


def _tutte_doubled(monkeypatch, g):
    real = selfcheck.tutte_eval
    monkeypatch.setattr(selfcheck, "tutte_eval", lambda h, x, y: 2 * real(h, x, y))
    return g


def _cycle_space_emptied(monkeypatch, g):
    monkeypatch.setattr(spaces, "cycle_space", lambda h: GF2Matrix(h.edge_count))
    return g


# (check, graph fixture, mutation); the mutation returns the graph to check
MUTATIONS = [
    (selfcheck.check_euler, "torus_grid", _euler_face_count_off),
    (selfcheck.check_orthogonality, "torus_grid", _face_row_meets_a_vertex_once),
    (selfcheck.check_dimension_identities, "torus_grid", _intersection_dim_off),
    (selfcheck.check_dimension_identities, "torus_grid", _sum_rank_off),
    (selfcheck.check_dimension_identities, "torus_grid", _bicycle_dim_off),
    (selfcheck.check_dimension_identities, "two_triangles", _tutte_doubled),
    (selfcheck.check_component_count_identity, "torus_grid", _polynomial_strand_count_off),
    (selfcheck.check_strand_lemma, "torus_grid", _strand_dropped),
    (selfcheck.check_inclusions, "torus_grid", _strand_basis_emptied),
    (selfcheck.check_kernel_subspace, "torus_grid", _strand_kernel_emptied),
    (selfcheck.check_kernel_subspace, "torus_grid", _dual_kernel_emptied),
    (selfcheck.check_counts_agree, "torus_grid", _homology_count_doubled),
    (selfcheck.check_rank_oracle, "torus_grid", _whitney_shifted),
    (selfcheck.check_tree_choice_invariance, "torus_grid", _kernel_dim_depends_on_tree),
    (selfcheck.check_bot_rank, "torus_grid", _bot_matrix_emptied),
    (selfcheck.check_genus_zero, "two_triangles", _cycle_space_emptied),
]


def _case_ids(cases):
    """The check's name; a check's later cases add their mutation's name."""
    seen = set()
    for check, _, mutate in cases:
        name = check.__name__
        yield f"{name}-{mutate.__name__.lstrip('_')}" if name in seen else name
        seen.add(name)


@pytest.mark.parametrize("check, fixture, mutate", MUTATIONS, ids=list(_case_ids(MUTATIONS)))
def test_check_fails_on_broken_input(check, fixture, mutate, monkeypatch, request):
    g = request.getfixturevalue(fixture)
    assert check(g).ok, "the unbroken graph must pass, or the mutation shows nothing"
    assert not check(mutate(monkeypatch, g)).ok


def test_kernel_subspace_names_its_dual_leg(monkeypatch, torus_grid):
    result = selfcheck.check_kernel_subspace(_dual_kernel_emptied(monkeypatch, torus_grid))
    assert (result.ok, result.detail) == (False, "primal and dual kernels differ")


def test_strand_lemma_fails_on_an_edge_crossed_three_times(monkeypatch, torus_grid):
    real = selfcheck.trace_medial

    def trace_medial(h):
        mc = real(h)
        return dataclasses.replace(mc, crossings=(3,) + mc.crossings[1:])

    assert selfcheck.check_strand_lemma(torus_grid).ok
    monkeypatch.setattr(selfcheck, "trace_medial", trace_medial)
    result = selfcheck.check_strand_lemma(torus_grid)
    assert not result.ok
    assert result.detail == "edge 0 not crossed exactly twice"


def _plant_abab(monkeypatch):
    """Plant the trace (a, b, a, b) wherever a module reads the medial trace.

    It sums to zero and crosses every edge twice, but spans only two
    dimensions where four strands need three.
    """

    def trace_medial(h):
        mc = medial.trace_medial(h)
        a, b = mc.trace_vectors[:2]
        return dataclasses.replace(mc, trace_vectors=(a, b, a, b))

    monkeypatch.setattr(homology, "trace_medial", trace_medial)
    monkeypatch.setattr(selfcheck, "trace_medial", trace_medial)


RANK_DEFICIENT = "InternalInvariantError: strand trace vectors are rank deficient"


def test_strand_lemma_reports_rank_deficient_strands(monkeypatch):
    # fresh graphs: the strand basis is memoised per graph
    assert selfcheck.check_strand_lemma(load_fixture("torus_grid")).ok
    _plant_abab(monkeypatch)
    result = selfcheck.check_strand_lemma(load_fixture("torus_grid"))
    assert (result.ok, result.detail) == (False, RANK_DEFICIENT)


def test_rank_deficient_strands_fail_checks_instead_of_aborting_the_run(monkeypatch):
    # The (a, b, a, b) trace above: strand_basis raises on it, every reader
    # of the basis sees that, and the run must report it as failed checks
    # rather than abort.
    assert not selfcheck.failed_checks(selfcheck.run_all_checks(load_fixture("torus_grid")))
    _plant_abab(monkeypatch)
    results = selfcheck.run_all_checks(load_fixture("torus_grid"))
    assert len(results) == len(selfcheck.ALL_CHECKS) == 14
    failed = {r.name: r.detail for r in selfcheck.failed_checks(results)}
    assert failed == {
        "three-route-count": RANK_DEFICIENT,
        "strand-lemma": RANK_DEFICIENT,
        "polynomial-strand-count": "poly=3 trace=4",
        "inclusion-chain": RANK_DEFICIENT,
        "homology-kernel": RANK_DEFICIENT,
        "tree-choice-invariance": RANK_DEFICIENT,
    }


def _edge_zero_flipped(real):
    """``real`` with edge 0 flipped in trace vectors 0 and 1.

    The sum stays zero, the crossing counts are untouched and the rank
    still holds, but vectors 0 and 1 now meet an endpoint of edge 0 oddly.
    """

    def trace_medial(h):
        mc = real(h)
        a, b, *rest = mc.trace_vectors
        return dataclasses.replace(mc, trace_vectors=(a ^ 1, b ^ 1, *rest))

    return trace_medial


NOT_A_CYCLE = "a strand vector is not a cycle"


def test_strand_lemma_fails_on_a_trace_vector_off_the_double_cycles(monkeypatch, torus_grid):
    assert selfcheck.check_strand_lemma(torus_grid).ok
    monkeypatch.setattr(selfcheck, "trace_medial", _edge_zero_flipped(selfcheck.trace_medial))
    result = selfcheck.check_strand_lemma(torus_grid)
    assert (result.ok, result.detail) == (False, "a trace vector is not a bi-directional cycle")


def test_strand_basis_raises_on_a_strand_vector_off_the_cycles(monkeypatch):
    # fresh graphs: the strand basis is memoised per graph
    assert selfcheck.check_inclusions(load_fixture("torus_grid")).ok
    g = load_fixture("torus_grid")
    monkeypatch.setattr(homology, "trace_medial", _edge_zero_flipped(homology.trace_medial))
    with pytest.raises(InternalInvariantError, match=NOT_A_CYCLE):
        homology.strand_basis(g)
    result = selfcheck.check_inclusions(g)
    assert (result.ok, result.detail) == (False, f"InternalInvariantError: {NOT_A_CYCLE}")


def test_a_strand_vector_off_the_cycles_fails_checks_and_exits_1(monkeypatch, tmp_path, capsys):
    # every check still reports, and the CLI ends in its invariant exit code
    planted = _edge_zero_flipped(medial.trace_medial)
    monkeypatch.setattr(homology, "trace_medial", planted)
    monkeypatch.setattr(selfcheck, "trace_medial", planted)
    results = selfcheck.run_all_checks(load_fixture("torus_grid"))  # fresh: nothing memoised
    assert len(results) == len(selfcheck.ALL_CHECKS) == 14
    invariant = f"InternalInvariantError: {NOT_A_CYCLE}"
    assert {r.name: r.detail for r in selfcheck.failed_checks(results)} == {
        "three-route-count": invariant,
        "strand-lemma": invariant,
        "inclusion-chain": invariant,
        "homology-kernel": invariant,
        "tree-choice-invariance": invariant,
    }
    path = tmp_path / "torus_grid.rot"
    path.write_text(fixture_text("torus_grid"), encoding="utf-8")
    for command in (["count", "--method", "homology"], ["homology"]):
        assert cli.main([*command, str(path)]) == 1
        assert capsys.readouterr().err == f"invariant failure: {NOT_A_CYCLE}\n"


@pytest.mark.parametrize(
    "check, detail",
    [
        (selfcheck.check_inclusions, "U cap U* not inside the strand space"),
        (selfcheck.check_kernel_subspace, "ker on strands differs from U cap U*"),
    ],
    ids=["inclusions", "kernel"],
)
def test_checks_compare_the_graphs_u_cap_u_star_with_the_strand_routes(
    check, detail, monkeypatch, torus_grid
):
    # a one-edge row is no double cycle, so neither strand route contains it
    assert check(torus_grid).ok
    fake = GF2Matrix(torus_grid.edge_count, (1,))
    monkeypatch.setitem(torus_grid.__dict__, "cocycle_intersection", fake)
    result = check(torus_grid)
    assert (result.ok, result.detail) == (False, detail)


def test_all_checks_eliminate_u_cap_u_star_once(monkeypatch):
    g = load_fixture("torus_grid")  # a fresh graph: nothing cached yet
    real = gf2.row_space_intersection_basis
    calls = []

    def counting(a, b):
        if (a, b) == (g.incidence_matrix, g.dual_incidence_matrix):
            calls.append(a)
        return real(a, b)

    monkeypatch.setattr(gf2, "row_space_intersection_basis", counting)
    assert not selfcheck.failed_checks(selfcheck.run_all_checks(g))
    assert len(calls) == 1


def test_euler_fails_on_a_planted_dartless_face(monkeypatch):
    # one face too many makes 2 - v + e - f odd, so g.genus itself raises
    g = load_fixture("torus_grid")
    assert selfcheck.check_euler(g).ok
    faces = g.faces
    monkeypatch.setitem(g.__dict__, "faces", FaceSet(faces.faces + ((),), faces.face_of_dart))
    v, e, f = g.vertex_count, g.edge_count, g.face_count
    result = selfcheck.check_euler(g)
    want = f"v={v} e={e} f={f}: Euler characteristic is inconsistent: 2 - v + e - f = 1"
    assert (result.ok, result.detail) == (False, want)


def test_every_check_reports_a_planted_dartless_face(monkeypatch):
    # g.genus raises and the dual cannot be rebuilt; each check that meets
    # either must still report, under its own name, with the error text
    g = load_fixture("torus_grid")
    names = [r.name for r in selfcheck.run_all_checks(load_fixture("torus_grid"))]
    faces = g.faces
    monkeypatch.setitem(g.__dict__, "faces", FaceSet(faces.faces + ((),), faces.face_of_dart))
    results = [check(g) for check in selfcheck.ALL_CHECKS]
    assert [r.name for r in results] == names
    assert results == selfcheck.run_all_checks(g)
    euler = "Euler characteristic is inconsistent: 2 - v + e - f = 1"
    failed = {r.name: r.detail for r in selfcheck.failed_checks(results)}
    assert failed == {
        "euler-genus": f"v=4 e=9 f=6: {euler}",
        "dual-involution": "InvalidGraphError: disconnected graph",
        "dimension-identities": f"InternalInvariantError: {euler}",
        "three-route-count": f"InternalInvariantError: {euler}",
        "strand-lemma": "InvalidGraphError: disconnected graph",
        "polynomial-strand-count": f"InternalInvariantError: {euler}",
        "homology-kernel": "InvalidGraphError: disconnected graph",
        "tree-choice-invariance": "InvalidGraphError: disconnected graph",
        "whitney-specialization": f"InternalInvariantError: {euler}",
        "plane-structure": f"InternalInvariantError: {euler}",
    }


def _patch_everywhere(monkeypatch, owner, name, calls):
    """Count calls of ``owner.name`` through every package module that holds it."""
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    for module_name, module in sorted(sys.modules.items()):
        if module_name.startswith("bicolorgame") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)


def test_all_checks_derive_each_graphs_data_once(monkeypatch):
    # fresh graphs: the session fixtures would carry memos from other tests
    default_tree = homology.tree_cotree(load_fixture("torus_grid"))
    g = load_fixture("torus_grid")
    calls: Counter[str] = Counter()
    _patch_everywhere(monkeypatch, brt, "brt_polynomial", calls)
    _patch_everywhere(monkeypatch, brt, "whitney_rank_polynomial", calls)
    _patch_everywhere(monkeypatch, medial, "trace_medial", calls)
    _patch_everywhere(monkeypatch, homology, "tree_cotree", calls)
    _patch_everywhere(monkeypatch, spaces, "summarize", calls)
    _patch_everywhere(monkeypatch, spaces, "bicycle_space", calls)
    _patch_everywhere(monkeypatch, gf2, "rref", calls)
    _patch_everywhere(monkeypatch, brt, "_order", calls)
    real_cycles = homology.fundamental_dual_cycles

    def cycles(h, tc):
        # one strand-kernel elimination per set of fundamental cycles
        if h is g and tc == default_tree:
            calls["default strand kernel"] += 1
        return real_cycles(h, tc)

    monkeypatch.setattr(homology, "fundamental_dual_cycles", cycles)
    assert not selfcheck.failed_checks(selfcheck.run_all_checks(g))
    assert calls == {
        "brt_polynomial": 1,
        "whitney_rank_polynomial": 1,
        "_order": 1,  # both transfers share it
        "trace_medial": 2,  # g and its dual
        "tree_cotree": 5,  # the default tree of g and of its dual, and 3 shuffled
        "default strand kernel": 1,
        "summarize": 1,
        "bicycle_space": 1,
        "rref": 17,
    }
    calls.clear()
    assert not selfcheck.failed_checks(selfcheck.run_all_checks(load_fixture("plane_two_triangles")))
    assert calls == {
        "brt_polynomial": 1,
        "whitney_rank_polynomial": 1,
        "_order": 1,
        "trace_medial": 2,  # g and its dual; the representatives read g's
        "tree_cotree": 5,
        "summarize": 1,
        "bicycle_space": 1,  # summarize's, which the representatives read too
        "rref": 23,
    }


def _bot_rank_per_pair(g) -> selfcheck.CheckResult:
    """Reference: one elimination per incident (vertex, face) pair."""
    want = gf2.rank(spaces.moves_matrix(g))
    for v in range(g.vertex_count):
        for f in spaces.incident_faces(g, v):
            if gf2.rank(spaces.bot_matrix(g, v, f)) != want:
                return selfcheck.CheckResult("bot-rank", False, f"pair (v={v}, f={f})")
    return selfcheck.CheckResult("bot-rank", True, f"rank={want}")


def test_bot_rank_matches_the_per_pair_loop():
    rng = Random(0xB07)
    graphs = [load_fixture(name) for name in fixture_names()]
    graphs += [random_embedded_graph(rng, 8, 16) for _ in range(200)]
    graphs += [random_planar_graph(rng, 16) for _ in range(100)]
    assert len({g.genus for g in graphs}) > 2
    for g in graphs:
        assert selfcheck.check_bot_rank(g) == _bot_rank_per_pair(g)


@pytest.mark.parametrize(
    "attr, family", [("incidence_matrix", "vertex"), ("dual_incidence_matrix", "face")]
)
def test_bot_rank_fails_when_a_row_family_does_not_sum_to_zero(attr, family, monkeypatch):
    g = load_fixture("torus_grid")
    assert selfcheck.check_bot_rank(g).ok
    mat = getattr(g, attr)
    planted = GF2Matrix(mat.ncols, (mat.rows[0] ^ 1,) + mat.rows[1:])
    monkeypatch.setitem(g.__dict__, attr, planted)
    result = selfcheck.check_bot_rank(g)
    assert (result.ok, result.detail) == (False, f"{family} rows do not sum to zero")


def test_bot_rank_makes_two_eliminations_on_any_graph(monkeypatch):
    real = gf2.rref
    calls = []

    def counting(m):
        calls.append(m.nrows)
        return real(m)

    monkeypatch.setattr(gf2, "rref", counting)
    graphs = [load_fixture(name) for name in fixture_names()]
    for g in graphs + [shuffled_torus_grid(Random(16), 16)]:
        calls.clear()
        assert selfcheck.check_bot_rank(g).ok
        assert len(calls) == 2


def test_count_detail_prints_counts_beyond_the_int_digit_limit(monkeypatch):
    # E = 24 is above the sweep cap, so only the two linear counts show
    g = digon_chain(12)
    huge = 1 << 15000
    monkeypatch.setattr(spaces, "class_count_direct", lambda h: huge)
    monkeypatch.setattr(selfcheck, "class_count_homology", lambda h: huge)
    result = selfcheck.check_counts_agree(g)
    want = long_decimal(huge)
    skipped = "oracle skipped (24 edges exceeds the sweep cap 22)"
    assert (result.ok, result.detail) == (True, f"direct={want} homology={want} {skipped}")


def test_rank_oracle_fails_on_one_face_delta_flipped(monkeypatch, torus_grid):
    # A subset whose face delta flips from -1 to +1 has two more faces and
    # one genus less; z = 1 cannot see it, the sweep in three variables can.
    real = selfcheck.brt_polynomial

    def brt_polynomial(h):
        coeffs = dict(real(h).coeffs)
        a, b, c = next(key for key in sorted(coeffs) if key[2] > 0)
        coeffs[(a, b, c)] -= 1
        coeffs[(a, b, c - 1)] = coeffs.get((a, b, c - 1), 0) + 1
        return TrivariatePolynomial(coeffs)

    assert selfcheck.check_rank_oracle(torus_grid).ok
    monkeypatch.setattr(selfcheck, "brt_polynomial", brt_polynomial)
    broken = brt_polynomial(torus_grid)
    assert broken.specialize_z_one() == selfcheck.whitney_rank_polynomial(torus_grid)
    result = selfcheck.check_rank_oracle(torus_grid)
    assert not result.ok
    assert result.detail == "BRT differs from the sweep"


def test_plane_check_fails_on_a_repeated_pivot(monkeypatch, two_triangles):
    # (p, p) instead of (p, q): four sums, but only two classes among them
    real = selfcheck.planar_representatives

    def planar_representatives(h):
        rs = real(h)
        return dataclasses.replace(rs, edges=rs.edges[:1] * len(rs.edges))

    assert selfcheck.check_genus_zero(two_triangles).ok
    monkeypatch.setattr(selfcheck, "planar_representatives", planar_representatives)
    result = selfcheck.check_genus_zero(two_triangles)
    assert not result.ok
    assert result.detail == "representatives failed verification"


def _first_bad_column(mat: GF2Matrix) -> str:
    """Reference: count the ones of every column, report the first not 0 or 2."""
    for col in range(mat.ncols):
        ones = sum((r >> col) & 1 for r in mat.rows)
        if ones not in (0, 2):
            return f"column {col} has {ones} ones"
    return ""


@pytest.mark.parametrize(
    "rows, detail",
    [((0b011, 0b101), "column 1 has 1 ones"), ((0b011, 0b001, 0b011), "column 0 has 3 ones")],
    ids=["one-one", "three-ones"],
)
def test_incidence_shape_reports_the_first_bad_column(rows, detail):
    good, bad = GF2Matrix(3, (0b011, 0b110, 0b101)), GF2Matrix(3, rows)
    for primal, dual in ((bad, good), (good, bad), (bad, bad)):
        g = SimpleNamespace(incidence_matrix=primal, dual_incidence_matrix=dual)
        result = selfcheck.check_incidence_shape(g)
        assert (result.ok, result.detail) == (False, detail)
    g = SimpleNamespace(incidence_matrix=good, dual_incidence_matrix=good)
    assert selfcheck.check_incidence_shape(g).ok


def test_incidence_shape_matches_the_per_column_count():
    rng = Random(0x1C5)
    for _ in range(300):
        ncols = rng.randint(0, 9)
        mats = [
            GF2Matrix(ncols, tuple(rng.getrandbits(ncols) for _ in range(rng.randint(0, 5))))
            for _ in range(2)
        ]
        want = _first_bad_column(mats[0]) or _first_bad_column(mats[1])
        g = SimpleNamespace(incidence_matrix=mats[0], dual_incidence_matrix=mats[1])
        result = selfcheck.check_incidence_shape(g)
        assert (result.ok, result.detail) == (not want, want)
