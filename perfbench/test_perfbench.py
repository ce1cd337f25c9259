"""Tests of the benchmark's own machinery: inputs, tracing and the gate."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path
from random import Random

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import bench_gen  # noqa: E402
from bench_trace import Tracer, layer_of, layer_times, self_times  # noqa: E402
from bench_workloads import WORKLOADS, Workload, cross_route_problems  # noqa: E402

import bicolorgame  # noqa: E402
from bicolorgame import cli, embedded, homology, medial, selfcheck  # noqa: E402
from bicolorgame.embedded import parse_rotation_system  # noqa: E402


def test_same_seed_gives_byte_identical_inputs():
    for make in WORKLOADS.values():
        a, b, other = make(7), make(7), make(8)
        assert a.graphs == b.graphs and a.ops == b.ops
        assert a.graphs != other.graphs


def test_generated_graphs_have_the_promised_shape():
    grid = parse_rotation_system(bench_gen.torus_grid(Random(1), 5))
    assert (grid.vertex_count, grid.edge_count, grid.face_count, grid.genus) == (25, 50, 25, 1)
    high = parse_rotation_system(bench_gen.random_system(Random(2), 50, 250))
    assert (high.vertex_count, high.edge_count) == (50, 250) and high.genus > 90
    for seed in range(20):
        plane = parse_rotation_system(bench_gen.plane_system(Random(seed), 9, 17))
        assert (plane.vertex_count, plane.edge_count, plane.genus) == (9, 17, 0)


def test_self_time_is_span_minus_direct_children():
    spans = [
        [0, -1, "cli.main", 0.0, 10.0],
        [1, 0, "gf2.rank", 1.0, 5.0],
        [2, 1, "gf2.rref", 2.0, 4.5],
        [3, 0, "homology.tree_cotree", 6.0, 9.0],
        [4, 3, "trace.hook", 6.0, 6.5],
        [5, -1, "cli.main", 20.0, 21.0],
    ]
    own, total = self_times(spans)
    assert own == {
        "cli.main": 10.0 - 4.0 - 3.0 + 1.0,
        "gf2.rank": 4.0 - 2.5,
        "gf2.rref": 2.5,
        "homology.tree_cotree": 2.5,
        "trace.hook": 0.5,
    }
    assert total["cli.main"] == 11.0
    assert sum(own.values()) == 11.0  # self times partition the top-level spans
    assert layer_of("embedded.parse_rotation_system") == "embedded.parse_s"
    assert layer_of("embedded.EmbeddedGraph.faces") == "embedded.derive_s"
    assert layer_of("homology.strand_image_matrix") == "homology.image_s"
    assert layer_of("gf2.rref") == "gf2.self_s"


def test_embedded_spans_inside_parsing_count_as_parsing():
    spans = [
        [0, -1, "cli.main", 0.0, 10.0],
        [1, 0, "embedded.parse_rotation_system", 1.0, 4.0],
        [2, 1, "embedded.EmbeddedGraph.dart_vertex", 2.0, 3.0],  # validation
        [3, 2, "gf2.rank", 2.5, 2.75],
        [4, 0, "embedded.EmbeddedGraph.faces", 5.0, 6.5],
        [5, 4, "embedded.EmbeddedGraph.dart_vertex", 5.0, 5.5],
    ]
    assert layer_times(spans) == {
        "cli.self_s": 10.0 - 3.0 - 1.5,
        "embedded.parse_s": 3.0 - 0.25,
        "gf2.self_s": 0.25,
        "embedded.derive_s": 1.5,
    }


def _bindings() -> dict:
    """Every value bound in a bicolorgame module or on the wrapped classes."""
    out = {}
    for name, module in sys.modules.items():
        if name.startswith("bicolorgame"):
            out.update({(name, k): v for k, v in vars(module).items()})
    for cls in (embedded.EmbeddedGraph, bicolorgame.TrivariatePolynomial):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_patches_every_reference_and_restores_the_originals():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert homology.trace_medial is not before[("bicolorgame.homology", "trace_medial")]
        assert homology.trace_medial.__wrapped__ is medial.trace_medial.__wrapped__
        assert selfcheck.ALL_CHECKS != before[("bicolorgame.selfcheck", "ALL_CHECKS")]
        assert embedded.EmbeddedGraph.__dict__["faces"] is not before[("EmbeddedGraph", "faces")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_trace_of_info_counts_six_eliminations_one_repeated():
    path = SRC / "bicolorgame" / "fixtures" / "torus_grid.rot"
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["info", str(path), "--json"]) == 0
    finally:
        tracer.restore()
    counts = tracer.op_counts()
    assert counts["gf2.eliminations"] == 6
    assert counts["gf2.repeats"] == 1
    own, _ = self_times(tracer.spans)
    assert own["cli.main"] > 0 and own["embedded.parse_rotation_system"] > 0


def test_gate_flags_routes_that_disagree():
    workload = Workload("w", {}, [], fresh_process=True, facts={"g": {"edges": 9}})
    info = {"edges": 9, "class_count": "8", "class_exponent": 3, "genus": 1, "bicycle_dim": 1}
    docs = {("g", "info"): info, ("g", "count_direct"): {"direct": "8"},
            ("g", "count_homology"): {"homology": "8"}}
    assert cross_route_problems(workload, docs) == {}
    docs[("g", "count_homology")] = {"homology": "16"}
    assert set(cross_route_problems(workload, docs)) == {("g", "info"), ("g", "count_homology")}
    docs[("g", "count_homology")] = {}
    assert set(cross_route_problems(workload, docs)) == set(docs)
