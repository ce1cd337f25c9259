"""Parser and CLI fuzzing: malformed input or flags end in a documented exit
code with a short message, never a crash."""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings, strategies as st

from bicolorgame.cli import main
from bicolorgame.embedded import EmbeddedGraph, parse_rotation_system
from bicolorgame.errors import InvalidGraphError
from bicolorgame.fixtures import fixture_names, fixture_text

FUZZ = settings(max_examples=200, derandomize=True, deadline=None)

# flag values: mostly well-formed, so runs reach the handlers; junk otherwise,
# short or long enough that an echo of it would overflow the stderr bound
_JUNK = st.one_of(st.text(max_size=8), st.integers(1, 3000).map(lambda n: "x" * n))
_NATURAL = st.integers(0, 26).map(str)
_RATIONAL = st.one_of(
    st.integers(-4, 4).map(str),
    st.tuples(st.integers(-4, 4), st.integers(1, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)
_EDGES = st.lists(st.integers(0, 9), max_size=9).map(lambda edges: ",".join(map(str, edges)))
_BITS = st.text(alphabet="01", max_size=10)
_METHOD = st.sampled_from(["direct", "homology", "oracle", "all"])

# the commands that read a graph file, with the value strategies of each flag
FILE_COMMANDS = {
    "info": {},
    "dual": {},
    "count": {"--method": [_METHOD], "--cap": [_NATURAL]},
    "medial": {},
    "brt": {"--eval": [_RATIONAL] * 3, "--cap": [_NATURAL]},
    "tutte": {"--eval": [_RATIONAL] * 2, "--cap": [_NATURAL]},
    "homology": {"--tree": [_EDGES]},
    "reps": {},
    "signature": {"--coloring": [_BITS]},
    "same-class": {"--a": [_BITS], "--b": [_BITS]},
    "bot": {"--vertex": [_NATURAL], "--face": [_NATURAL]},
    "oracle": {"--cap": [_NATURAL], "--reps": []},
}

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


@st.composite
def file_command(draw) -> list[str]:
    """A file command with a random subset of its flags and random values."""
    command = draw(st.sampled_from(sorted(FILE_COMMANDS)))
    argv = [command]
    for flag, values in FILE_COMMANDS[command].items():
        if draw(st.integers(0, 3)):  # 0 leaves the flag out
            argv += [flag, *(draw(st.one_of(value, value, value, _JUNK)) for value in values)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(FUZZ, max_examples=400)
@given(
    data=st.one_of(
        st.sampled_from(fixture_names()).map(fixture_text).map(str.encode),
        mutated_fixture().map(str.encode),
        st.binary(),
    ),
    argv=file_command(),
)
def test_cli_file_commands_end_in_a_documented_exit_code(tmp_path_factory, data, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz-command.rot"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main([*argv, str(path)])
        except SystemExit as exc:  # argparse rejects a flag with exit 2
            rc = exc.code
    assert rc in (0, 1, 2, 3, 4, 5)
    assert len(err.getvalue()) < 1024
    if rc >= 2:  # an error leaves no half-written listing behind
        assert out.getvalue() == ""


@FUZZ
@given(
    name=st.sampled_from(fixture_names()),
    argv=st.one_of(
        st.tuples(st.just("brt"), _RATIONAL, _RATIONAL, _RATIONAL),
        st.tuples(st.just("tutte"), _RATIONAL, _RATIONAL),
    ),
    cap=_NATURAL,
    json=st.booleans(),
)
def test_well_formed_eval_and_cap_values_are_never_rejected(tmp_path_factory, name, argv, cap, json):
    # negative fractions included: argparse must not read -p/q as an option
    path = tmp_path_factory.getbasetemp() / "fuzz-eval.rot"
    path.write_text(fixture_text(name), encoding="utf-8")
    command, *point = argv
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main([command, "--eval", *point, "--cap", cap, *["--json"] * json, str(path)])
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 4)
