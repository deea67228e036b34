"""The table parser against argparse.

`cli._parse_table` reads ordinary argv straight from `cli.COMMANDS`; every
other argv goes to the argparse parser. Whenever the table parser accepts an
argv, argparse must accept it too and build an equal namespace.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2cubics import cli
from g2cubics.cli import COMMANDS, GLOBAL_FLAGS

from test_golden_cli import GOLDEN


def _declarations():
    for _fn, _help, arguments in COMMANDS.values():
        yield from arguments
    yield from GLOBAL_FLAGS


ALPHABET = sorted(
    {*COMMANDS}
    | {name for names, _ in _declarations() for name in names if name.startswith("-")}
    | {choice for _, kwargs in _declarations() for choice in kwargs.get("choices", ())}
    | {"-1/3", "-5", "-1.5", "-", "--", "-h", "--form", "--format=json", "", " 1", "0"}
)


def _argparse_vars(argv: list[str]) -> dict | None:
    """argparse's namespace as a dict, or None where it exits instead."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


def _agrees(argv: list[str]) -> bool:
    """Whether the table parser accepted `argv`; fails if argparse disagrees."""
    table = cli._parse_table(argv)
    if table is not None:
        assert vars(table) == _argparse_vars(argv), argv
    return table is not None


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(ALPHABET), max_size=12))
@example(["packets", "--psi", "-5"])
@example(["packets", "show", "--psi", " 1", "--format", "md", "--format", "csv"])
@example(["stable", "--psi", "0", "--basis", "standard", "--output", "-5"])
@example(["formal-degree", "--q", "-1/3"])
@example(["verify", "--tamper-evs", "--scope", "g2", "--tamper-evs"])
@example(["classify", "", " 1", "-1/3", "-5", "--output", ""])
def test_an_accepted_argv_gets_argparses_namespace(argv):
    _agrees(argv)


GOLDEN_ARGV = [key.split(" ") for key in sorted(json.loads(GOLDEN.read_text()))]
EDIT = st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 12), st.sampled_from(ALPHABET))


# random argv are seldom accepted; a golden case with a few tokens inserted,
# replaced or deleted is accepted about one time in nine
@settings(max_examples=2000)
@given(st.sampled_from(GOLDEN_ARGV), st.lists(EDIT, min_size=1, max_size=3))
def test_an_accepted_edit_of_a_golden_argv_gets_argparses_namespace(argv, edits):
    argv = list(argv)
    for op, pos, token in edits:
        pos = min(pos, len(argv))
        if op == "insert":
            argv.insert(pos, token)
        elif pos < len(argv) and op == "replace":
            argv[pos] = token
        elif pos < len(argv):
            del argv[pos]
    _agrees(argv)


def test_the_table_parser_takes_every_golden_case_but_a_leading_flag():
    declined = [argv for argv in GOLDEN_ARGV if not _agrees(argv)]
    assert declined == [argv for argv in GOLDEN_ARGV if argv[0].startswith("--")]
    assert len(declined) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "json", "roots"],  # a global flag first
        ["roots", "-h"],
        ["roots", "--form", "json"],  # abbreviated
        ["roots", "--format=json"],
        ["classify", "--", "1", "0", "0", "0"],
        ["classify", "1", "0", "0", "-1.5"],  # not a negative rational
        ["classify", "1", "0", "0", "-"],
        ["classify", "1", "0", "0"],  # too few values
        ["classify", "1", "0", "--format", "json", "0", "0"],  # values split by a flag
        ["tables", "--which", "bogus"],  # not a choice
        ["packets", "--psi", "x"],  # not an int
        ["stable"],  # a required flag missing
        ["formal-degree", "--q"],  # a value missing
        ["verify", "--tamper-evs", "yes"],
        [],
        ["bogus"],
    ],
)
def test_every_other_argv_is_left_to_argparse(argv):
    assert cli._parse_table(argv) is None


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_has_a_grammar(command):
    assert cli._grammar(command).defaults["fn"] is COMMANDS[command][0]


@pytest.mark.parametrize(
    "arguments",
    [
        [cli._arg("coeffs", nargs="+")],
        [cli._arg("coeffs", nargs=4, type=int)],
        [cli._arg("coeffs")],
        [cli._arg("coeffs", nargs=4), cli._arg("more", nargs=4)],
        [cli._arg("--tag", action="append")],
        [cli._arg("--tag", action="store_const", const=1)],
        [cli._arg("--n", type=float)],
        [cli._arg("--n", nargs=2)],
        [cli._arg("--n", dest="m")],
        [cli._arg("-n")],
        [cli._arg("--n", "-n")],
    ],
    ids=repr,
)
def test_an_argument_the_table_parser_does_not_read_is_refused(monkeypatch, arguments):
    monkeypatch.setitem(COMMANDS, "probe", (cli.cmd_roots, "a declaration under test", arguments))
    cli._grammar.cache_clear()
    with pytest.raises(ValueError, match="table parser"):
        cli._grammar("probe")
