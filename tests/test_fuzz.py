"""Parser fuzzing: malformed input ends in a short InvalidGraphError, never a crash."""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings, strategies as st

from bicolorgame.cli import main
from bicolorgame.embedded import EmbeddedGraph, parse_rotation_system
from bicolorgame.errors import InvalidGraphError
from bicolorgame.fixtures import fixture_names, fixture_text

FUZZ = settings(max_examples=200, derandomize=True, deadline=None)

# junk biased towards the tokens of the format, so edits reach the validator
_SNIPPETS = st.one_of(st.text(max_size=8), st.text(alphabet="0123456789 -:\nve", max_size=8))


@st.composite
def mutated_fixture(draw) -> str:
    """A bundled fixture with a few short spans replaced by junk."""
    text = fixture_text(draw(st.sampled_from(fixture_names())))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(_SNIPPETS) + text[stop:]
    return text


@FUZZ
@given(st.one_of(st.text(), mutated_fixture()))
def test_parser_returns_a_graph_or_a_short_error(text):
    try:
        g = parse_rotation_system(text)
    except InvalidGraphError as exc:
        assert len(str(exc)) < 1024
    else:
        assert isinstance(g, EmbeddedGraph)
        assert g.genus >= 0


@FUZZ
@given(data=st.one_of(st.binary(), mutated_fixture().map(str.encode)))
def test_cli_info_exits_0_or_2_on_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.rot"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["info", str(path)])
    assert rc in (0, 2)
    assert len(err.getvalue()) < 1024
