"""`cli._json_text`, the only JSON writer of the command line, against
`json.dumps(obj, sort_keys=True, indent=2)`.

- Differential: hypothesis trees up to depth 4 of full-Unicode strings
  (quotes, backslashes, control characters, lone surrogates), ints up to
  +-10^4000, bools, None, and empty or nested lists, tuples and str-keyed
  dicts must print byte for byte as `json.dumps` prints them.
- Every other type raises TypeError, floats and int or str subclasses too.
- With `json.dumps` patched to raise, one `--format json` argv per
  subcommand still prints its snapshot bytes.
"""

import contextlib
import enum
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2cubics import cli
from g2cubics.cli import _json_text

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())

_SPECIAL = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", " ", "\U0001f600"])
# every code point, surrogates included, with the characters JSON escapes mixed in
strings = st.text(st.characters(exclude_categories=()) | _SPECIAL, max_size=12)
leaves = (
    strings
    | st.integers(-(10**4000), 10**4000)
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
)


def trees(depth: int):
    if depth == 0:
        return leaves
    children = trees(depth - 1)
    return (
        leaves
        | st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(strings, children, max_size=4)
    )


@settings(max_examples=300)
@given(trees(4))
@example({})
@example([])
@example(())
@example({"b": [], "a": {}, "": [[], {"x": ()}]})
@example([True, False, None, 0, 1, -1])
@example({"\ud800": "\udfff", "\x00": "\\\"/"})
def test_json_text_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_an_int_past_the_digit_limit_raises_as_json_dumps_does():
    big = [10**5000]
    with pytest.raises(ValueError) as ours:
        _json_text(big)
    with pytest.raises(ValueError) as theirs:
        json.dumps(big, sort_keys=True, indent=2)
    assert str(ours.value) == str(theirs.value)


class _Level(enum.IntEnum):
    ONE = 1


class _Name(str):
    pass


@pytest.mark.parametrize(
    "obj", [1.0, 0.0, {1}, b"x", {1: "a"}, _Level.ONE, _Name("a"), [1.0], {"a": (0.0,)}, {"a": 1, 2: "b"}]
)
def test_every_other_type_raises_type_error(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


def _one_json_case_per_command() -> list[str]:
    """The first snapshot case of each subcommand that prints JSON and exits 0;
    `verify` in the sheaves scope, since the full run forks its own worker."""
    cases = {}
    for key, case in GOLDEN.items():
        argv = key.split()
        command = next(word for word in argv if word in cli.COMMANDS)
        if "--format json" in key and case["code"] == 0 and argv != ["--format", "json", "verify"]:
            cases.setdefault(command, key)
    assert cases.keys() == cli.COMMANDS.keys()
    return list(cases.values())


@pytest.mark.parametrize("key", _one_json_case_per_command())
def test_json_output_does_not_call_json_dumps(key):
    out = io.StringIO()
    with mock.patch("json.dumps", side_effect=AssertionError("json.dumps called")):
        with contextlib.redirect_stdout(out):
            code = cli.main(key.split())
    assert (code, out.getvalue()) == (GOLDEN[key]["code"], GOLDEN[key]["stdout"])
