"""Golden snapshot of the command line: (exit code, stdout, stderr) per case.

Every subcommand of `cli.COMMANDS` runs in every `--format` (a test holds
the case list to the registry), together with inputs that exit 2
(bad rationals, a pole of the formal degree, an out-of-range psi, a cubic
without three rational lines) and 1 (`verify --tamper-evs`). The full
`verify` runs once, in json, to keep the suite fast.

Regenerate the snapshot with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of `tests/golden_cli.json` before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from g2cubics.cli import COMMANDS, main

GOLDEN = Path(__file__).with_name("golden_cli.json")
FORMATS = ("json", "md", "csv", "text")

_CUBICS = (
    ("0", "0", "0", "0"),  # C0
    ("1", "0", "0", "0"),  # C1
    ("0", "1", "0", "0"),  # C2
    ("1", "0", "1", "0"),  # C3, irreducible quadratic factor
    ("0", "-1/3", "-1/3", "0"),  # C3, three rational lines
    ("0", "1", "0", "99999999999999999999"),  # C3, one line, 20 digits
    ("27", "-18", "-12", "-8"),  # C1, (3 y + 2 x)^3: line [1:-2/3]
    ("4", "-8/3", "115/3", "-175"),  # C2, double line [1:5/2]
    ("0", "0", "0", "1"),  # C1, line [0:1]
    ("0", "0", "1", "0"),  # C2, double line [0:1]
    ("6", "35/3", "18", "-35"),  # C3, (2 y - x)(3 y + 5 x)(y - 7 x): lines [1:1/2], [1:-5/3], [1:7]
    ("45", "1", "64/3", "28"),  # C2, (3 y + 2 x)^2 (5 y - 7 x): double line [1:-2/3], simple [1:7/5]
    # C3, x y (P y - x) for the prime P of `cubics.classify`'s residue test,
    # which P divides the discriminant of: lines [0:1], [1:0], [1:1/P]
    ("0", "-1073741789/3", "1/3", "0"),
)
_PAIRS = (
    ("1", "0", "0", "0", "5", "7", "0", "0"),
    ("0", "1", "0", "0", "0", "0", "0", "1"),  # regular stratum 2
    ("0", "-1/3", "-1/3", "0", "0", "0", "0", "0"),  # regular stratum 3
    ("1", "0", "1", "0", "0", "1", "0", "1"),  # not on the conormal variety
)


def _cases() -> list[list[str]]:
    per_format = []
    for r in _CUBICS:
        per_format += [["classify", *r], ["kernel", *r]]
    for r in _CUBICS[:3] + _CUBICS[4:5] + _CUBICS[10:]:
        per_format.append(["stabilizer", *r])
    for c in _PAIRS:
        per_format += [["pair", *c], ["moment", *c], ["lambda-regular", *c]]
    for which in ("stalks", "geomult", "repmult", "evs", "nevs", "fourier"):
        per_format.append(["tables", "--which", which])
    for psi in "0123":
        per_format += [
            ["packets", "show", "--psi", psi],
            ["stable", "--psi", psi],
            ["stable", "--psi", psi, "--basis", "standard"],
        ]
    for q in ("2", "3", "1/2", "-7/3"):
        per_format.append(["formal-degree", "--q", q])
    per_format += [["aubert"], ["roots"]]
    for scope in ("sheaves", "packets", "g2"):
        per_format += [["verify", "--scope", scope], ["verify", "--scope", scope, "--tamper-evs"]]
    cases = [argv + ["--format", fmt] for argv in per_format for fmt in FORMATS]
    cases += [
        ["--format", "json", "classify", "0", "-1/3", "-1/3", "0"],  # global flag first
        ["--format", "json", "verify"],
        # exit 2: bad input
        ["classify", "1", "0", "x", "0"],
        ["classify", "1", "0", "1_0", "0"],
        ["classify", "1", "0", "1/2/3", "0"],
        ["classify", "1", "0", "1/0", "0"],
        ["pair", "1", "0", "0", "0", "0.5", "0", "0", "0"],
        ["formal-degree", "--q", "1"],
        ["formal-degree", "--q", "-1"],
        ["formal-degree", "--q", "1.5"],
        ["formal-degree", "--q", "1/0"],
        ["packets", "--psi", "4"],
        ["stable", "--psi", "4"],
        ["stabilizer", "1", "0", "1", "0"],
        ["stabilizer", "0", "1", "0", "99999999999999999999"],
        ["--format", "json", "stabilizer", "1", "0", "1", "0"],
        # exit 1: a check fails on tampered tables
        ["verify", "--scope", "sheaves", "--tamper-evs"],
    ]
    return cases


CASES = _cases()


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def test_snapshot_covers_exactly_the_cases():
    assert sorted(_load()) == sorted(_key(argv) for argv in CASES)


def test_every_registered_command_runs_in_every_format():
    covered = {(argv[0], argv[-1]) for argv in CASES if argv[-2] == "--format"}
    assert {(name, fmt) for name in COMMANDS for fmt in FORMATS} <= covered


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_cli_output_matches_snapshot(argv):
    assert _run(argv) == _load()[_key(argv)]


if __name__ == "__main__":
    snapshot = {_key(argv): _run(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(snapshot)} cases to {GOLDEN}\n")
