"""The table-driven parser against the token-by-token parser it replaced.

``reference_parse`` is the earlier parser, kept as the oracle: on every
input both must give the same graph, or the same exception type and
message.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from bicolorgame.embedded import EmbeddedGraph, parse_rotation_system
from bicolorgame.errors import InvalidGraphError, RotationParseError
from bicolorgame.fixtures import fixture_names, fixture_text

# -- the reference ----------------------------------------------------------------

_MAX_DIGITS = 18


def _listing(ascending, total: int) -> str:
    shown = list(islice(ascending, 10))
    more = f" ({total} in total)" if total > len(shown) else ""
    return f"{shown}{more}"


def _natural(token: str) -> int | None:
    if token.isascii() and token.isdigit() and len(token) <= _MAX_DIGITS:
        return int(token)
    return None


def _indexed_line(
    line: str, count: int, seen: dict, noun: str, usage: str, fail: Callable[[str], Exception]
) -> tuple[int, tuple[int, ...]]:
    head, _, tail = line.partition(":")
    fields = head.split()
    i = _natural(fields[1]) if len(fields) == 2 else None
    if i is None:
        raise fail(f"expected {usage}")
    if not 0 <= i < count:
        raise fail(f"{noun} index {i} out of range")
    if i in seen:
        raise fail(f"repeated {noun} {i}")
    darts = []
    for token in tail.split():
        negative = token.startswith("-")
        d = _natural(token[1:] if negative else token)
        if d is None:
            raise fail("darts must be integers")
        darts.append(-d if negative else d)
    return i, tuple(darts)


def reference_parse(text: str) -> EmbeddedGraph:
    """Reference: one branch per keyword, one call per token."""
    vertex_count: int | None = None
    edge_count: int | None = None
    rotations: dict[int, tuple[int, ...]] = {}
    edges: dict[int, tuple[int, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def fail(msg: str) -> RotationParseError:
            return RotationParseError(f"line {lineno}: {msg}")

        parts = line.split()
        if parts[0] == "vertices":
            if vertex_count is not None:
                raise fail("repeated 'vertices' header")
            vertex_count = _natural(parts[1]) if len(parts) == 2 else None
            if vertex_count is None:
                raise fail("expected 'vertices <n>'")
        elif parts[0] == "edges":
            if edge_count is not None:
                raise fail("repeated 'edges' header")
            edge_count = _natural(parts[1]) if len(parts) == 2 else None
            if edge_count is None:
                raise fail("expected 'edges <m>'")
        elif parts[0] == "v":
            if vertex_count is None:
                raise fail("'v' line before 'vertices' header")
            i, darts = _indexed_line(
                line, vertex_count, rotations, "vertex", "'v <i>: <darts...>'", fail
            )
            rotations[i] = darts
        elif parts[0] == "e":
            if edge_count is None:
                raise fail("'e' line before 'edges' header")
            j, darts = _indexed_line(
                line, edge_count, edges, "edge", "'e <j>: <dart> <dart>'", fail
            )
            if len(darts) != 2:
                raise fail("an edge needs exactly two darts")
            edges[j] = (darts[0], darts[1])
        else:
            shown = line if len(line) <= 40 else line[:40] + "..."
            raise fail(f"unrecognized line {shown!r}")

    if vertex_count is None or edge_count is None:
        raise RotationParseError("missing 'vertices' or 'edges' header")
    if len(rotations) < vertex_count:
        missing = _listing(
            (i for i in range(vertex_count) if i not in rotations), vertex_count - len(rotations)
        )
        raise RotationParseError(f"missing rotation lines for vertices {missing}")
    if len(edges) < edge_count:
        missing = _listing(
            (j for j in range(edge_count) if j not in edges), edge_count - len(edges)
        )
        raise RotationParseError(f"missing edge lines for edges {missing}")
    return EmbeddedGraph(
        tuple(rotations[i] for i in range(vertex_count)),
        tuple(edges[j] for j in range(edge_count)),
    )


# -- the comparison -----------------------------------------------------------------


def outcome(parse: Callable[[str], EmbeddedGraph], text: str):
    """The parsed graph's data, or the error's type and message."""
    try:
        g = parse(text)
    except InvalidGraphError as exc:
        return type(exc), str(exc)
    return g.rotations, g.edge_darts


def assert_same_outcome(text: str):
    new = outcome(parse_rotation_system, text)
    assert new == outcome(reference_parse, text)
    return new


# Unicode whitespace: \x1c-\x1e, \x85 and \u2028 also end a line for
# str.splitlines; \xa0, \u2003 and \u3000 only separate tokens.
_SPACES = "\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028\u3000\t\x0b\x0c\r"
_SNIPPETS = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="0123456789 -:#\nve", max_size=8),
    st.text(alphabet=_SPACES + "01-:", max_size=4),
    st.sampled_from(["vertices", "edges", "vertices 1", "edges 0", "v", "e", "#", "-", "+", "_"]),
)


@st.composite
def mutated_fixture(draw) -> str:
    """A bundled fixture with a few short spans replaced by format-biased junk."""
    text = fixture_text(draw(st.sampled_from(fixture_names())))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(_SNIPPETS) + text[stop:]
    return text


@settings(max_examples=400, derandomize=True, deadline=None)
@given(mutated_fixture())
def test_mutated_fixtures_parse_alike(text):
    assert_same_outcome(text)


def test_every_fixture_parses_alike():
    for name in fixture_names():
        assert isinstance(assert_same_outcome(fixture_text(name))[0], tuple)


@pytest.mark.parametrize(
    "token", ["1_0", "+2", "\u0662", "--1", "-", "1.0", "0x1", "-" + "1" * 19, "1" * 19,
              "-0", "007", "-" + "9" * 18, "\u00b2", "1-", "1:"],
)
def test_dart_tokens_alike(token):
    for text in (
        f"vertices 1\nv 0: 0 {token}\nedges 1\ne 0: 0 1\n",
        f"vertices 1\nv 0: 0 1\nedges 1\ne 0: 0 {token}\n",
        f"vertices {token}\n",
        f"vertices 1\nv {token}: 0 1\nedges 1\ne 0: 0 1\n",
    ):
        assert_same_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        # headers: repeated, missing, misplaced, malformed
        "vertices 1\nvertices 1\n",
        "edges 0\nedges 0\n",
        "vertices 1\nv 0: 0 1\n",
        "edges 1\ne 0: 0 1\n",
        "",
        "# only a comment\n",
        "v 0: 0 1\nvertices 1\nedges 1\ne 0: 0 1\n",
        "vertices 1\nv 0: 0 1\ne 0: 0 1\nedges 1\n",
        "vertices\n",
        "vertices 1 2\n",
        "vertices -1\n",
        "edges 1 # two\nvertices 1\nv 0: 0 1\ne 0: 0 1\n",
        # indices: out of range, repeated, missing, malformed
        "vertices 1\nv 1: 0 1\nedges 1\ne 0: 0 1\n",
        "vertices 1\nv 0: 0 1\nedges 1\ne 1: 0 1\n",
        "vertices 2\nv 0: 0\nv 0: 1\nedges 1\ne 0: 0 1\n",
        "vertices 1\nv 0: 0 1\nedges 2\ne 0: 0 1\ne 0: 0 1\n",
        "vertices 30\nv 3: 0 1\nedges 1\ne 0: 0 1\n",
        "vertices 1\nv 0: 0 1\nedges 40\ne 7: 0 1\n",
        "vertices 1\nv: 0 1\nedges 1\ne 0: 0 1\n",
        "vertices 1\nv 0 1: 0 1\nedges 1\ne 0: 0 1\n",
        "vertices 1\nv0: 0 1\nedges 1\ne 0: 0 1\n",
        "vertices 1\nv 0\nedges 0\n",
        "vertices 1\nv 0 : 0 1\nedges 1\ne 0 :0 1\n",
        "vertices 1\nv 0: 0 1: 2\nedges 1\ne 0: 0 1\n",
        # edge lines: wrong dart counts
        "vertices 1\nv 0: 0 1\nedges 1\ne 0: 0\n",
        "vertices 1\nv 0: 0 1\nedges 1\ne 0: 0 1 2\n",
        "vertices 1\nv 0: 0 1\nedges 1\ne 0\n",
        # validation after parsing
        "vertices 1\nv 0: 0 -1\nedges 1\ne 0: 0 -1\n",
        "vertices 2\nv 0: 0\nv 1: 1\nedges 1\ne 0: 0 1\n",
        "vertices 2\nv 0: 0 1\nv 1:\nedges 1\ne 0: 0 1\n",
        # unrecognized lines, long and short
        "bogus 3\n",
        "x" * 5000 + "\n",
        "vertices 1\nV 0: 0 1\n",
        # comments
        "# heading\n\nvertices 1\nv 0: 0 1  # loop\nedges 1\ne 0: 0 1\n",
        "vertices 1#\nv 0: 0#1\nedges 1\ne 0: 0 1\n",
        "vertices 1\nv 0: 0 1\nedges 1\ne 0: 0 # 1\n",
        "#vertices 1\n",
        # Unicode whitespace, between tokens and as line breaks
        "vertices 1\nv 0:\xa00\u20031\nedges\u30001\ne 0: 0 1\n",
        "vertices 1\x1cv 0: 0 1\x1dedges 1\x1ee 0: 0 1\n",
        "vertices 1\x85v 0: 0 1\u2028edges 1\u2029e 0: 0 1\n",
        "vertices 1\nv 0: 0\x1c1\nedges 1\ne 0: 0 1\n",
        "vertices\x1f1\nv\x1f0:\x1f0 1\nedges 1\ne 0: 0 1\n",
        "\ufeffvertices 1\nv 0: 0 1\nedges 1\ne 0: 0 1\n",
    ],
)
def test_edge_cases_alike(text):
    assert_same_outcome(text)


def test_large_counts_report_the_same_gaps():
    for text in ("vertices 1000000\nedges 0\n", "vertices 1\nv 0: 0 1\nedges 999999999\n"):
        kind, message = assert_same_outcome(text)
        assert kind is RotationParseError and "in total" in message
