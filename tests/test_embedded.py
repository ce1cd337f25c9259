"""Rotation systems: validation, faces, genus, duality, cycle membership, sub-ribbons."""

from __future__ import annotations

from random import Random

import pytest

from bicolorgame import gf2
from bicolorgame.embedded import EmbeddedGraph, format_rotation_system, parse_rotation_system
from bicolorgame.errors import InvalidGraphError, RotationParseError
from bicolorgame.fixtures import load_fixture
from bicolorgame.medial import trace_medial

# expected incidence data for the torus fixtures, frozen as regression values
TORUS_GRID_INCIDENCE = [
    "110010101",
    "100101100",
    "001101011",
    "011010010",
]
TORUS_GRID_DUAL_ROWS = {
    "100100001",
    "011000001",
    "101011000",
    "010100110",
    "000011110",
}
SQUARE_HANDLES_INCIDENCE = [
    "10010100",
    "11000010",
    "01101000",
    "00110001",
    "00001100",
    "00000011",
]


def test_torus_grid_counts(torus_grid):
    assert torus_grid.vertex_count == 4
    assert torus_grid.edge_count == 9
    assert torus_grid.face_count == 5
    assert torus_grid.genus == 1


def test_torus_grid_incidence(torus_grid):
    assert torus_grid.incidence_matrix.row_strings() == TORUS_GRID_INCIDENCE
    assert set(torus_grid.dual_incidence_matrix.row_strings()) == TORUS_GRID_DUAL_ROWS


def test_square_handles_counts(square_handles):
    assert square_handles.vertex_count == 6
    assert square_handles.edge_count == 8
    assert square_handles.face_count == 2
    assert square_handles.genus == 1
    assert square_handles.incidence_matrix.row_strings() == SQUARE_HANDLES_INCIDENCE
    assert square_handles.dual_incidence_matrix.row_strings() == ["11110000", "11110000"]


def test_two_triangles_is_planar(two_triangles):
    assert two_triangles.vertex_count == 5
    assert two_triangles.edge_count == 8
    assert two_triangles.genus == 0


def test_single_vertex():
    g = load_fixture("single_vertex")
    assert g.vertex_count == 1 and g.edge_count == 0
    assert g.face_count == 1
    assert g.genus == 0
    assert g.incidence_matrix.nrows == 1 and g.incidence_matrix.ncols == 0
    d = g.dual()
    assert d.vertex_count == 1 and d.edge_count == 0


def test_single_edge_faces():
    g = load_fixture("sphere_edge")
    assert g.face_count == 1
    d = g.dual()
    assert d.vertex_count == 1 and d.edge_count == 1
    # the edge became a loop at the single face
    assert d.incidence_matrix.rows == (0,)


def test_single_loop_incidence_is_zero():
    g = load_fixture("sphere_loop")
    assert g.incidence_matrix.nrows == 1 and g.incidence_matrix.ncols == 1
    assert g.incidence_matrix.rows == (0,)


def test_validation_errors():
    with pytest.raises(InvalidGraphError, match="pairs dart .* itself"):
        EmbeddedGraph(((0,),), ((0, 0),))
    with pytest.raises(InvalidGraphError, match="duplicate dart"):
        EmbeddedGraph(((0, 0),), ((0, 1),))
    with pytest.raises(InvalidGraphError, match="missing from rotations"):
        EmbeddedGraph(((0,), (1,)), ((0, 2),))
    with pytest.raises(InvalidGraphError, match="missing from edge pairs"):
        EmbeddedGraph(((0, 1, 2), (3,)), ((0, 3),))
    with pytest.raises(InvalidGraphError, match="disconnected"):
        EmbeddedGraph(((0, 1), (2, 3)), ((0, 1), (2, 3)))
    with pytest.raises(InvalidGraphError, match="disconnected"):
        EmbeddedGraph(((0,), (1,), ()), ((0, 1),))  # an isolated vertex


def test_spanning_forest_follows_the_order():
    digon = load_fixture("sphere_digon")
    assert digon.spanning_forest([1, 0]) == [1]  # the parallel edge closes a cycle
    assert digon.spanning_forest([]) == []
    assert load_fixture("sphere_loop").spanning_forest([0]) == []
    path = load_fixture("sphere_path")
    assert path.spanning_forest([1, 0]) == [1, 0]


def test_dual_is_built_once(square_handles):
    d = square_handles.dual()
    assert square_handles.dual() is d
    assert d.dual() is d.dual()


def test_parse_roundtrip(square_handles):
    text = format_rotation_system(square_handles, header="test header")
    assert parse_rotation_system(text) == square_handles


def test_parse_errors():
    with pytest.raises(RotationParseError, match="unrecognized"):
        parse_rotation_system("bogus 3\n")
    with pytest.raises(RotationParseError, match="missing"):
        parse_rotation_system("vertices 2\nv 0: 0\nedges 1\ne 0: 0 1\n")
    with pytest.raises(RotationParseError, match="exactly two darts"):
        parse_rotation_system("vertices 1\nv 0: 0 1 2\nedges 1\ne 0: 0 1 2\n")
    with pytest.raises(RotationParseError, match="out of range"):
        parse_rotation_system("vertices 1\nv 3: 0\nedges 0\n")


@pytest.mark.parametrize(
    "text",
    [
        "vertices \u00b2\n",  # a Unicode digit that int() rejects
        "vertices " + "9" * 5000 + "\n",  # beyond int()'s digit limit
        "vertices 1\nv 0: " + " ".join(["7" * 2000] * 2) + "\nedges 0\n",
        "x" * 5000 + "\n",
    ],
    ids=["unicode-digit", "long-count", "long-dart", "long-line"],
)
def test_malformed_tokens_give_short_errors(text):
    with pytest.raises(RotationParseError) as exc:
        parse_rotation_system(text)
    assert len(str(exc.value)) < 1024


@pytest.mark.parametrize(
    "token",
    ["1_0", "+2", "\u0662", "--1", "-", "1.0", "0x1", "-" + "1" * 19],
    ids=["underscore", "plus-sign", "arabic-indic-digit", "double-minus", "bare-minus",
         "decimal-point", "hex", "long-negative"],
)
def test_dart_tokens_must_be_ascii_integers(token):
    for lineno, text in (
        (2, f"vertices 1\nv 0: 0 {token}\nedges 1\ne 0: 0 1\n"),
        (4, f"vertices 1\nv 0: 0 1\nedges 1\ne 0: 0 {token}\n"),
    ):
        with pytest.raises(RotationParseError, match=f"line {lineno}: darts must be integers"):
            parse_rotation_system(text)


def test_negative_and_longest_darts():
    with pytest.raises(InvalidGraphError, match="negative dart id -1"):
        parse_rotation_system("vertices 1\nv 0: 0 -1\nedges 1\ne 0: 0 -1\n")
    longest = "9" * 18
    g = parse_rotation_system(f"vertices 1\nv 0: 0 {longest}\nedges 1\ne 0: {longest} 0\n")
    assert g.edge_darts == ((int(longest), 0),)


def test_comments_and_blank_lines():
    text = "# heading\n\nvertices 1\nv 0: 0 1  # loop\nedges 1\ne 0: 0 1\n"
    g = parse_rotation_system(text)
    assert g.edge_count == 1


def test_dual_involution_all_fixtures():
    from bicolorgame.fixtures import fixture_names

    for name in fixture_names():
        g = load_fixture(name)
        d = g.dual()
        dd = d.dual()
        assert d.vertex_count == g.face_count
        assert d.face_count == g.vertex_count
        assert d.edge_count == g.edge_count
        assert dd.vertex_count == g.vertex_count
        assert dd.face_count == g.face_count
        assert sorted(dd.incidence_matrix.rows) == sorted(g.incidence_matrix.rows)
        assert d.incidence_matrix.rows == g.dual_incidence_matrix.rows
        assert d.genus == g.genus


def test_euler_on_random_batch(random_batch):
    for g in random_batch:
        assert g.vertex_count - g.edge_count + g.face_count == 2 - 2 * g.genus
        assert g.genus >= 0


def test_incidence_column_parity(random_batch):
    for g in random_batch[:60]:
        for matrix in (g.incidence_matrix, g.dual_incidence_matrix):
            for col in range(matrix.ncols):
                ones = sum((r >> col) & 1 for r in matrix.rows)
                assert ones in (0, 2)
            acc = 0
            for r in matrix.rows:
                acc ^= r
            assert acc == 0


def test_is_cycle_is_orthogonality_to_the_incidence_rows(random_batch):
    # reference: u is a cycle of g iff dot(r, u) = 0 for every vertex row r,
    # and a cycle of the dual iff the same holds for every face row
    rng = Random(0xC7C1E)
    for g in random_batch:
        d = g.dual()
        e = g.edge_count
        vectors = (
            list(g.incidence_matrix.rows)
            + list(g.dual_incidence_matrix.rows)
            + list(trace_medial(g).trace_vectors)
            + [rng.getrandbits(e) for _ in range(20)]
        )
        for u in vectors:
            for h, rows in ((g, g.incidence_matrix.rows), (d, g.dual_incidence_matrix.rows)):
                assert h.is_cycle(u) == (not any(gf2.dot(r, u) for r in rows))
        for h in (g, d):
            for u in (-1, 1 << e, (1 << e) | 1):
                with pytest.raises(ValueError, match="vector length does not match"):
                    h.is_cycle(u)


def test_sub_ribbon_conventions(torus_grid):
    faces = torus_grid.subset_counter()
    assert faces((1 << 9) - 1)[1] == 5
    assert faces(0)[1] == 4


def test_sub_ribbon_boundary_cases_random(random_batch):
    for g in random_batch[:50]:
        faces = g.subset_counter()
        assert faces((1 << g.edge_count) - 1)[1] == g.face_count
        assert faces(0)[1] == g.vertex_count


def test_sub_ribbon_rose_single_loop(torus_rose):
    # deleting one loop of the interleaved pair leaves a planar loop: 2 faces
    faces = torus_rose.subset_counter()
    assert faces(0b01)[1] == 2
    assert faces(0b10)[1] == 2
    assert faces(0b11)[1] == 1


def test_sub_ribbon_bridge_column():
    g = load_fixture("sphere_path")
    # bridges appear twice on the single face boundary, cancelling mod 2
    assert g.dual_incidence_matrix.rows == (0,)


def test_sub_ribbon_matches_full_subgraph(random_batch):
    # re-embedding the chosen subgraph as its own rotation system gives the
    # same face count, whenever the subgraph happens to be connected
    rng = Random(99)
    for g in random_batch[:25]:
        if g.edge_count == 0:
            continue
        mask = rng.randrange(1 << g.edge_count)
        edges = [j for j in range(g.edge_count) if (mask >> j) & 1]
        present_darts = {d for j in edges for d in g.edge_darts[j]}
        rotations = tuple(tuple(d for d in rot if d in present_darts) for rot in g.rotations)
        pairs = tuple(g.edge_darts[j] for j in edges)
        try:
            sub = EmbeddedGraph(rotations, pairs)
        except InvalidGraphError:
            continue  # disconnected subgraph: no single-graph comparison
        expected = sub.face_count
        assert g.subset_counter()(mask)[1] == expected
