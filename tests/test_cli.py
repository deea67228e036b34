import contextlib
import errno
import io
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest

from g2cubics import cli, linalg, packets
from g2cubics.cli import CHECK_FAILED, INPUT_ERROR, OK, main

from fraction_reference import line_cubic

SRC = Path(__file__).resolve().parents[1] / "src"
# the environment of a fresh interpreter that imports from src/
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_payload(payload):
    schema = json.loads(
        resources.files("g2cubics.schemas").joinpath("result.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)


_GOLDEN_JSON = {
    key: case
    for key, case in json.loads(Path(__file__).with_name("golden_cli.json").read_text()).items()
    if "--format json" in key and case["code"] in (OK, CHECK_FAILED)
}


@pytest.mark.parametrize("key", sorted(_GOLDEN_JSON))
def test_every_json_snapshot_case_validates_against_the_schema(key):
    validate_payload(json.loads(_GOLDEN_JSON[key]["stdout"]))


def test_classify_c3(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "1", "0", "1", "0")
    assert code == OK
    payload = json.loads(out)
    assert payload["orbit"] == "C3"
    assert payload["discriminant"] == "-324"
    assert payload["stabilizer"] is None  # not rational-split
    validate_payload(payload)


def test_classify_zero_and_triple(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "0", "0", "0", "0")
    assert code == OK
    assert json.loads(out)["orbit"] == "C0"
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "1", "0", "0", "0")
    payload = json.loads(out)
    assert payload["orbit"] == "C1"
    assert payload["hessian_quadratic"] == ["0", "0", "0"]
    validate_payload(payload)


def test_classify_split_reports_stabilizer(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "classify", "0", "-1/3", "-1/3", "0"
    )
    payload = json.loads(out)
    assert payload["stabilizer"]["component_group"] == "S3"
    validate_payload(payload)


def test_classify_rejects_bad_rational(capsys):
    code, _, err = run_cli(capsys, "classify", "1", "0", "x", "0")
    assert code == INPUT_ERROR
    assert "bad rational" in err


def test_classify_rejects_underscore_and_double_slash(capsys):
    for bad in ["1_0", "1/2/3"]:
        code, out, err = run_cli(capsys, "classify", "1", "0", bad, "0")
        assert code == INPUT_ERROR
        assert out == ""
        assert "bad rational" in err


def test_classify_twenty_digit_line_times_quadratic(capsys):
    # -3 x (y^2 + 33333333333333333333 x^2): one rational line, irreducible rest
    code, out, _ = run_cli(
        capsys, "--format", "json", "classify", "0", "1", "0", "99999999999999999999"
    )
    assert code == OK
    payload = json.loads(out)
    assert payload["orbit"] == "C3"
    assert payload["rational_lines"] == [{"line": ["0", "1"], "multiplicity": 1}]
    assert payload["residual_degree"] == 2
    assert payload["stabilizer"] is None
    validate_payload(payload)


def test_classify_eighteen_digit_irreducible_cubic(capsys):
    # sympy.factor_list leaves this cubic irreducible over the rationals
    code, out, _ = run_cli(
        capsys, "--format", "json", "classify",
        "123456789012345678", "3", "5", "987654321098765431",
    )
    assert code == OK
    payload = json.loads(out)
    assert payload["orbit"] == "C3"
    assert payload["rational_lines"] == []
    assert payload["residual_degree"] == 3
    assert payload["stabilizer"] is None
    validate_payload(payload)


def test_pair_and_moment(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "pair", "1", "0", "0", "0", "5", "7", "0", "0"
    )
    payload = json.loads(out)
    assert payload == {"pairing": "5"}
    validate_payload(payload)
    code, out, _ = run_cli(
        capsys, "--format", "json", "moment", "1", "0", "0", "0", "5", "7", "0", "0"
    )
    payload = json.loads(out)
    assert payload["moment"] == [["5", "0"], ["-7", "0"]]
    assert payload["is_zero"] is False
    validate_payload(payload)


def test_kernel(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "kernel", "1", "0", "0", "0")
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert payload["basis"] == [["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    validate_payload(payload)


def test_stabilizer_command(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "stabilizer", "0", "-1/3", "-1/3", "0"
    )
    payload = json.loads(out)
    assert payload["component_group"] == "S3"
    assert len(payload["generators"]) == 6
    validate_payload(payload)
    code, _, err = run_cli(capsys, "stabilizer", "1", "0", "1", "0")
    assert code == INPUT_ERROR


def _digits(n, seed):
    rng = random.Random(seed)
    return rng.randrange(10 ** (n - 1), 10**n)


@pytest.mark.parametrize("n", [1200, 5000])
def test_numeric_commands_past_the_int_str_digit_limit(capsys, n):
    # CPython refuses int <-> str conversions beyond 4300 digits; the answers
    # here need 1200 to 15000 digits and must still be exact
    a, b, c, d = (_digits(n, seed) for seed in range(4))
    dec = lambda v: str(Decimal(v))  # noqa: E731 - `decimal` has no digit limit
    code, out, _ = run_cli(capsys, "--format", "json", "classify", *map(dec, (a, b, c, d)))
    assert code == OK
    payload = json.loads(out)
    assert payload["r"] == [dec(v) for v in (a, b, c, d)]
    assert payload["orbit"] == "C3"
    validate_payload(payload)

    code, out, _ = run_cli(capsys, "--format", "json", "pair", *map(dec, (a, b, c, d, d, c, b, a)))
    assert code == OK
    assert json.loads(out) == {"pairing": dec(a * d + 3 * b * c + 3 * c * b + d * a)}

    t = a  # the cube of the line y - t x has coefficients (1, t, -t^2, t^3)
    code, out, _ = run_cli(capsys, "--format", "json", "kernel", *map(dec, (1, t, -t * t, t**3)))
    assert code == OK
    payload = json.loads(out)
    assert payload["dimension"] == 2
    validate_payload(payload)

    # x y (b x - a y): three rational lines, stabilizer S3
    code, out, _ = run_cli(capsys, "--format", "json", "stabilizer", "0", dec(a), dec(-b), "0")
    assert code == OK
    payload = json.loads(out)
    assert payload["component_group"] == "S3"
    assert len(payload["generators"]) == 6
    validate_payload(payload)


def test_kernel_of_a_cubic_built_to_defeat_the_prime(capsys):
    # -x * y * (P y - x), the lines [0:1], [1:0] and [P:1] for the Mersenne
    # prime P = 2^61 - 1: its moment matrix's determinant, a multiple of the
    # discriminant, is 0 modulo P, so no shortcut modulo P may decide it; the
    # orbit decides it, with no elimination
    p = 2305843009213693951
    r = ("0", f"{p}/3", "-1/3", "0")
    code, out, _ = run_cli(capsys, "--format", "json", "classify", *r)
    assert code == OK
    assert json.loads(out)["orbit"] == "C3"
    with mock.patch.object(linalg, "_rref", wraps=linalg._rref) as exact:
        code, out, _ = run_cli(capsys, "--format", "json", "kernel", *r)
    assert code == OK
    assert json.loads(out) == {"basis": [], "dimension": 0}
    assert exact.call_count == 0


@pytest.mark.parametrize(
    "lines, dimension",
    [((0, 1, 2), 0), ((0, 0, 1), 1), ((0, 0, 0), 2)],
    ids=["three-lines", "double-line", "triple-line"],
)
def test_kernel_at_twenty_thousand_digits(capsys, lines, dimension):
    k = 6667  # line entries of a third of the coefficients' 20,000 digits
    entries = [(_digits(k, 2 * i), _digits(k, 2 * i + 1)) for i in range(3)]
    # 3 * the product of the lines has integer coefficients
    r = [int(c) for c in line_cubic(*(entries[i] for i in lines)).scale(3).coeffs]
    assert all(len(str(Decimal(abs(v)))) >= 20_000 for v in r)
    with mock.patch.object(linalg, "_rref", wraps=linalg._rref) as exact:
        code, out, _ = run_cli(capsys, "--format", "json", "kernel", *(str(Decimal(v)) for v in r))
    assert code == OK
    payload = json.loads(out)
    assert payload["dimension"] == dimension
    validate_payload(payload)
    # the open orbit's kernel is empty by its orbit; the others are a closed
    # form in the repeated line
    assert exact.call_count == 0


def test_lambda_regular(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "lambda-regular", "0", "1", "0", "0", "0", "0", "0", "1"
    )
    payload = json.loads(out)
    assert payload == {"stratum": 2}
    validate_payload(payload)
    code, out, _ = run_cli(
        capsys, "--format", "json", "lambda-regular", "1", "0", "1", "0", "0", "1", "0", "1"
    )
    assert json.loads(out) == {"stratum": None}


def test_tables_geomult_csv(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "geomult", "--format", "csv")
    assert code == OK
    lines = out.strip().splitlines()
    assert lines[1] == "IC1_C0,1,0,0,0,0,0"
    assert lines[3] == "IC1_C2,2,1,1,0,0,0"
    code, out, _ = run_cli(capsys, "--format", "json", "tables", "--which", "nevs")
    validate_payload(json.loads(out))


def test_tables_unknown_is_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--which", "bogus"])
    assert exc.value.code == INPUT_ERROR  # argparse choice failure


def test_packets_show(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "packets", "show", "--psi", "0")
    payload = json.loads(out)
    assert payload["packet"] == ["pi0", "pi1", "pi3eps"]
    validate_payload(payload)
    code, _, _ = run_cli(capsys, "packets", "--psi", "7")
    assert code == INPUT_ERROR


def test_aubert_and_stable(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "aubert")
    payload = json.loads(out)
    assert payload["aubert"]["pi0"] == "pi3"
    validate_payload(payload)
    code, out, _ = run_cli(capsys, "--format", "json", "stable", "--psi", "1")
    payload = json.loads(out)
    assert payload["coefficients"] == [0, 1, -1, 0, 0, 1]
    validate_payload(payload)
    code, out, _ = run_cli(
        capsys, "--format", "json", "stable", "--psi", "0", "--basis", "standard"
    )
    assert json.loads(out)["coefficients"] == ["1", "1", "-3", "1"]


def test_stable_standard_reads_the_derived_change_of_basis(capsys):
    # the standard-basis coefficients are the row of the change of basis
    # that `packets.DERIVED` keeps, so a repeated query solves nothing
    solves = []
    real = packets.solve

    def counted(*args):
        solves.append(1)
        return real(*args)

    with mock.patch.object(packets, "solve", counted):
        run_cli(capsys, "stable", "--psi", "2", "--basis", "standard")
        solves.clear()
        code, out, _ = run_cli(capsys, "--format", "json", "stable", "--psi", "2", "--basis", "standard")
    assert (code, solves) == (OK, [])
    assert json.loads(out)["coefficients"] == ["0", "0", "1", "-1"]


def test_formal_degree(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "formal-degree", "--q", "3")
    payload = json.loads(out)
    assert payload["dim_sigma"] == "14"
    validate_payload(payload)
    code, _, _ = run_cli(capsys, "formal-degree", "--q", "x")
    assert code == INPUT_ERROR


def test_roots(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "roots")
    payload = json.loads(out)
    assert payload["cartan_dual"] == [[2, -3], [-1, 2]]
    assert payload["coroots_dual"]["1,2"] == [3, 2]
    validate_payload(payload)


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify")
    assert code == OK
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["passed"] >= 25
    validate_payload(payload)


def test_verify_scope_g2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "g2")
    assert code == OK
    assert "weight-space-partition" in out


def test_verify_tamper_names_the_derivation_check(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "verify", "--scope", "sheaves", "--tamper-evs"
    )
    assert code == CHECK_FAILED
    payload = json.loads(out)
    failed_names = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert "nevs-derivation" in failed_names


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "--format", "json", "verify", "--scope", "sheaves")
    _, out2, _ = run_cli(capsys, "--format", "json", "verify", "--scope", "sheaves")
    assert out1 == out2
    _, t1, _ = run_cli(capsys, "tables", "--which", "evs", "--format", "csv")
    _, t2, _ = run_cli(capsys, "tables", "--which", "evs", "--format", "csv")
    assert t1 == t2


# one argv per command whose md and csv forms are its text form
_TEXT_ONLY = [
    ["classify", "0", "-1/3", "-1/3", "0"],
    ["pair", "1", "0", "0", "0", "5", "7", "0", "0"],
    ["moment", "1", "0", "0", "0", "5", "7", "0", "0"],
    ["kernel", "1", "0", "0", "0"],
    ["stabilizer", "0", "-1/3", "-1/3", "0"],
    ["lambda-regular", "0", "1", "0", "0", "0", "0", "0", "1"],
    ["packets", "show", "--psi", "0"],
    ["aubert"],
    ["stable", "--psi", "2", "--basis", "standard"],
    ["formal-degree", "--q", "3"],
    ["roots"],
    ["verify", "--scope", "g2"],
]


def test_md_and_csv_print_the_text_form_except_for_tables():
    assert {argv[0] for argv in _TEXT_ONLY} == set(cli.COMMANDS) - {"tables"}
    for argv in _TEXT_ONLY:
        text, md, csv = (_run_captured([*argv, "--format", fmt]) for fmt in ("text", "md", "csv"))
        assert text[0] == OK and text[1]
        assert md == text == csv, argv


def test_python_dash_m_reads_sys_argv():
    argv = ["classify", "0", "-1/3", "-1/3", "0", "--format", "json"]
    golden = json.loads(Path(__file__).with_name("golden_cli.json").read_text())[" ".join(argv)]
    proc = subprocess.run([sys.executable, "-m", "g2cubics", *argv], env=SRC_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (golden["code"], golden["stdout"], golden["stderr"])


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "--format", "json", "--output", str(target), "pair",
        "1", "0", "0", "0", "1", "0", "0", "0",
    )
    assert code == OK
    assert out == ""
    assert json.loads(target.read_text()) == {"pairing": "1"}


@pytest.mark.parametrize(
    "target, reason",
    [
        (Path("no") / "such" / "dir" / "x", errno.ENOENT),
        (Path("."), errno.EISDIR),
    ],
    ids=["missing-directory", "directory"],
)
def test_unwritable_output_is_input_error(tmp_path, capsys, target, reason):
    path = tmp_path / target
    code, out, err = run_cli(capsys, "roots", "--output", str(path))
    assert code == INPUT_ERROR
    assert out == ""
    assert err == f"error: cannot write {path}: {os.strerror(reason)}\n"


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _command_sequence(target: Path) -> list:
    sequence = [
        ["classify", "1", "0"],
        ["roots", "--format", "json", "--output", str(target)],
        ["roots"],
        ["verify", "--scope", "g2", "--tamper-evs"],
        ["verify", "--scope", "g2"],
    ]
    results = []
    for argv in sequence:
        results.append((*_run_captured(argv), target.read_text() if target.exists() else None))
    return results


def test_cached_parser_keeps_no_state_between_commands(tmp_path, monkeypatch):
    main(["roots", "--output", os.devnull])  # the cached parser exists from here on
    cached = _command_sequence(tmp_path / "cached.json")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per command
    fresh = _command_sequence(tmp_path / "fresh.json")
    assert cached == fresh
    assert [r[0] for r in cached] == [INPUT_ERROR, OK, OK, OK, OK]
    assert cached[1][1] == "" and cached[2][1].startswith("positive roots")
    assert cached[1][3] is not None
    assert cached[2][3] == cached[1][3]  # plain `roots` left the file as it was


def test_parse_args_returns_a_fresh_namespace():
    parser = cli._parser()
    tampered = parser.parse_args(["verify", "--tamper-evs"])
    plain = parser.parse_args(["verify"])
    assert plain is not tampered
    assert (tampered.tamper_evs, plain.tamper_evs) == (True, False)


_COUNT_PARSERS = """
import contextlib, io, json, sys
from g2cubics import cli
loaded = ["argparse" in sys.modules]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["roots"])  # canonical: the table parser takes it
    loaded.append("argparse" in sys.modules)
import argparse
builds, inits = [], []
init, build = argparse.ArgumentParser.__init__, cli.build_parser
def counting_init(self, *args, **kwargs):
    inits.append(1)
    init(self, *args, **kwargs)
def counting_build():
    builds.append(1)
    return build()
argparse.ArgumentParser.__init__, cli.build_parser = counting_init, counting_build
counts = []
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--format", "text", "roots"])  # a global flag first: argparse takes it
    counts.append([len(builds), len(inits)])
print(json.dumps([loaded, counts, len(cli.COMMANDS)]))
"""


def _fresh_python(*args) -> str:
    """Stdout of `python -c ...` in a fresh interpreter that imports from src/."""
    return subprocess.run([sys.executable, "-c", *args], env=SRC_ENV, capture_output=True, text=True, check=True).stdout


def test_import_builds_no_parser_and_main_builds_one_once():
    loaded, counts, commands = json.loads(_fresh_python(_COUNT_PARSERS))
    # neither the import nor two canonical commands load argparse, so no
    # parser of any kind exists
    assert loaded == [False, False, False]
    # the first fallback builds one parser (the root and one per subcommand),
    # the second reuses it
    assert counts == [[1, 1 + commands], [1, 1 + commands]]


_LOADED_FRONT_ENDS = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps([m for m in ("g2cubics.verify", "g2cubics.cli") if m in sys.modules]))
"""


@pytest.mark.parametrize("module", ["linalg", "cubics", "conormal", "sheaves", "packets", "rootdata"])
def test_importing_a_library_module_loads_neither_verify_nor_cli(module):
    # the package facade imports nothing, so a module loads only its own imports
    assert json.loads(_fresh_python(_LOADED_FRONT_ENDS, f"g2cubics.{module}")) == []


def test_interrupted_parser_build_is_not_cached(monkeypatch, capsys):
    add_flags = cli._add_global_flags
    calls = []

    def interrupt_third_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise KeyboardInterrupt
        add_flags(*args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "_add_global_flags", interrupt_third_call)
    with pytest.raises(KeyboardInterrupt):
        main(["--format", "text", "roots"])  # argparse takes a global flag first
    assert cli._parser.cache_info().currsize == 0
    monkeypatch.setattr(cli, "_add_global_flags", add_flags)
    # `verify` is the last subcommand added, so a half-built parser lacks it
    code, out, _ = run_cli(capsys, "--format", "text", "verify", "--scope", "g2")
    assert code == OK
    assert out.endswith("checks passed\n")
    assert cli._parser.cache_info().currsize == 1
