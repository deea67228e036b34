"""Command-line surface for classification, conormal, packet and table queries.

Each subcommand is declared once, in `COMMANDS`: its handler, its help text
and its own arguments; `GLOBAL_FLAGS` holds the flags every entry takes.
Two parsers read these declarations, and `main` tries them in turn:

- the table parser (`_parse_table`) takes an ordinary argv: the subcommand,
  then its positional values as one run, then exact flags of that subcommand
  or global flags, each as `--flag value` or a bare switch. A value is any
  token not starting with `-`, or a negative rational such as `-1/3`. It
  returns the namespace argparse would build, and builds no parser.
- argparse (`build_parser`, built once, on first use) takes every other
  argv: `-h`, `--`, `--flag=value`, abbreviated flags, global flags before
  the subcommand, missing or invalid values. It alone prints help and
  usage errors.

Exit codes: 0 success, 1 a verification check failed, 2 bad input.
All output is deterministic: JSON payloads are emitted with sorted keys and
tables have a fixed row/column order.

`_json_text` is the one JSON writer: its bytes equal
`json.dumps(payload, sort_keys=True, indent=2)`. It replaces that call
because CPython 3.11 encodes in pure Python, through generators, whenever
`indent` is set; a direct recursive join takes a fifth to two thirds of
its time per payload.
"""

from __future__ import annotations

import functools
import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import conormal, packets, rootdata, sheaves, verify
from .cubics import (
    BinaryCubic,
    DualCubic,
    OrbitClass,
    classify,
    discriminant,
    hessian_quadratic,
    rational_lines,
)
from .linalg import format_rational, parse_rational

if TYPE_CHECKING:
    import argparse

OK, CHECK_FAILED, INPUT_ERROR = 0, 1, 2


class InputError(ValueError):
    pass


def _parse_coeffs(values: list[str]) -> list:
    out = []
    for v in values:
        try:
            out.append(parse_rational(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {v!r}: {exc}") from exc
    return out


def _json_text(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, for the
    exact types a payload holds; `pad` is the newline and indent before `obj`.

    Strings go through the C escaper `json.dumps` itself uses, ints through
    `int.__repr__`, so one past the interpreter's digit limit raises the same
    ValueError. Anything else (a float, a set, an int or str subclass, a
    non-str key) raises TypeError.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = pad + "  "
    if kind is dict:
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(encode_basestring_ascii(key) + ": " + _json_text(obj[key], inner))
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in obj]) + pad + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(args, payload: dict, human: str) -> None:
    if args.format == "json":
        text = _json_text(payload) + "\n"
    else:
        text = human if human.endswith("\n") else human + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _render_table(payload: dict, fmt: str) -> str:
    rows, cols, entries = payload["rows"], payload["cols"], payload["entries"]
    if fmt == "csv":
        lines = ["," + ",".join(str(c) for c in cols)]
        for name, row in zip(rows, entries):
            lines.append(str(name) + "," + ",".join(str(e) for e in row))
        return "\n".join(lines) + "\n"
    # markdown / text
    header = ["", *map(str, cols)]
    body = [[str(name), *map(str, row)] for name, row in zip(rows, entries)]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    out = ["| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |"]
    out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for line in body:
        out.append("| " + " | ".join(e.ljust(w) for e, w in zip(line, widths)) + " |")
    return "\n".join(out) + "\n"


# -- subcommand handlers -------------------------------------------------------


def cmd_classify(args) -> int:
    r = BinaryCubic(*_parse_coeffs(args.coeffs))
    orbit = classify(r)
    payload = {
        "r": r.to_json(),
        "orbit": orbit.name,
        "orbit_dimension": orbit.dim,
        "hessian_quadratic": [format_rational(x) for x in hessian_quadratic(r)],
        "discriminant": format_rational(discriminant(r)),
        "multiplicity_structure": orbit.structure,
    }
    if orbit is not OrbitClass.C0:
        lines, residual = rational_lines(r)
        payload["rational_lines"] = [
            {"line": u.to_json(), "multiplicity": m} for u, m in lines
        ]
        payload["residual_degree"] = residual
    try:
        stab = conormal.stabilizer_of_cubic(r)
        payload["stabilizer"] = stab.to_json()
    except conormal.IrrationalSplitting:
        payload["stabilizer"] = None
    human = (
        f"orbit {payload['orbit']} (dim {payload['orbit_dimension']}), "
        f"structure {payload['multiplicity_structure']}, "
        f"D = {payload['discriminant']}, "
        f"Delta = ({', '.join(payload['hessian_quadratic'])})"
    )
    _emit(args, payload, human)
    return OK


def cmd_pair(args) -> int:
    r = BinaryCubic(*_parse_coeffs(args.coeffs[:4]))
    s = DualCubic(*_parse_coeffs(args.coeffs[4:]))
    value = conormal.pairing(r, s)
    _emit(args, {"pairing": format_rational(value)}, f"<r, s> = {format_rational(value)}")
    return OK


def cmd_moment(args) -> int:
    r = BinaryCubic(*_parse_coeffs(args.coeffs[:4]))
    s = DualCubic(*_parse_coeffs(args.coeffs[4:]))
    m = conormal.moment(r, s)
    rows = [[format_rational(m[i, j]) for j in range(2)] for i in range(2)]
    human = "\n".join("  ".join(row) for row in rows)
    _emit(args, {"moment": rows, "is_zero": m.is_zero()}, human)
    return OK


def cmd_kernel(args) -> int:
    r = BinaryCubic(*_parse_coeffs(args.coeffs))
    basis = conormal.conormal_kernel(r)
    payload = {"dimension": len(basis), "basis": [s.to_json() for s in basis]}
    human = f"kernel dimension {len(basis)}\n" + "\n".join(
        "  (" + ", ".join(s.to_json()) + ")" for s in basis
    )
    _emit(args, payload, human)
    return OK


def cmd_stabilizer(args) -> int:
    desc = conormal.stabilizer_of_cubic(BinaryCubic(*_parse_coeffs(args.coeffs)))
    payload = desc.to_json()
    human = (
        f"dimension {desc.dimension}, component group {desc.component_group}, "
        f"{len(desc.generators)} finite generators"
    )
    _emit(args, payload, human)
    return OK


def cmd_lambda_regular(args) -> int:
    r = BinaryCubic(*_parse_coeffs(args.coeffs[:4]))
    s = DualCubic(*_parse_coeffs(args.coeffs[4:]))
    stratum = conormal.in_lambda_regular(conormal.ConormalPoint(r, s))
    payload = {"stratum": stratum}
    human = "not on a regular stratum" if stratum is None else f"regular stratum {stratum}"
    _emit(args, payload, human)
    return OK


def cmd_tables(args) -> int:
    payload = sheaves.table_payload(args.which, packets.DERIVED)
    _emit(args, payload, _render_table(payload, args.format))
    return OK


def cmd_packets(args) -> int:
    if args.psi not in (0, 1, 2, 3):
        raise InputError("psi index must be 0..3")
    packet = packets.DERIVED.packets[args.psi]
    members = sorted(p.label() for p in packet)
    lmembers = sorted(p.label() for p in packets.L_PACKETS[args.psi])
    chars = {p.label(): packets.pairing_character(args.psi, p, packets.DERIVED) for p in packet}
    payload = {
        "psi": args.psi,
        "packet": members,
        "l_packet": lmembers,
        "pairing_characters": chars,
    }
    human = f"packet(psi{args.psi}) = {{{', '.join(members)}}}; L-packet = {{{', '.join(lmembers)}}}"
    _emit(args, payload, human)
    return OK


def cmd_aubert(args) -> int:
    mapping = {pi.label(): packets.aubert(pi, packets.DERIVED).label() for pi in packets.IRREDUCIBLE_ORDER}
    human = "\n".join(f"{k} -> {v}" for k, v in mapping.items())
    _emit(args, {"aubert": mapping}, human)
    return OK


def cmd_stable(args) -> int:
    if args.psi not in (0, 1, 2, 3):
        raise InputError("psi index must be 0..3")
    theta = packets.DERIVED.stable[args.psi]
    payload = {"psi": args.psi, "basis": args.basis}
    if args.basis == "irred":
        payload["coefficients"] = list(theta)
        names = [p.label() for p in packets.IRREDUCIBLE_ORDER]
    else:
        coefficients = packets.DERIVED.change_of_basis.row(args.psi)
        payload["coefficients"] = [format_rational(c) for c in coefficients]
        names = ["M0", "M1", "M2", "Theta_psi3"]
    terms = [
        f"{c:+}*{n}" if not isinstance(c, str) else f"{c}*{n}"
        for c, n in zip(payload["coefficients"], names)
        if str(c) not in ("0",)
    ]
    _emit(args, payload, f"Theta_psi{args.psi} = " + " ".join(terms))
    return OK


def cmd_formal_degree(args) -> int:
    q0 = parse_rational(args.q)
    try:
        values = {k: format_rational(v) for k, v in rootdata.formal_degree_values(q0).items()}
    except ZeroDivisionError as exc:
        raise InputError(f"pole at q = {args.q}: {exc}") from exc
    human = f"dim sigma = {values['dim_sigma']}, gamma(0) = {values['gamma0']}"
    _emit(args, values, human)
    return OK


def cmd_roots(args) -> int:
    payload = {
        "cartan_g2": rootdata.CARTAN_G2,
        "cartan_dual": rootdata.CARTAN_DUAL,
        "positive_roots_dual": [(r.a, r.b) for r in rootdata.POSITIVE_ROOTS_DUAL],
        "positive_roots_g2": [(r.a, r.b) for r in rootdata.POSITIVE_ROOTS_G2],
        "coroots_dual": {f"{r.a},{r.b}": rootdata.coroot(r) for r in rootdata.POSITIVE_ROOTS_DUAL},
        "weight_partition": {
            str(e): [(r.a, r.b) for r in roots] for e, roots in rootdata.WEIGHT_SPACES.items()
        },
    }
    human_lines = ["positive roots (dual side, a*alpha + b*beta):"]
    for r in rootdata.POSITIVE_ROOTS_DUAL:
        human_lines.append(f"  ({r.a}, {r.b})  coroot {rootdata.coroot(r)}")
    _emit(args, payload, "\n".join(human_lines))
    return OK


def cmd_verify(args) -> int:
    derived = packets.DERIVED
    if args.tamper_evs:
        derived = packets.Derived(sheaves.TABLES.with_flipped_evs(sheaves.SimpleObject.IC1_C1, 1))
    results = verify.run_checks(args.scope, derived)
    failures = [r for r in results if not r.passed]
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.scope}/{r.name}"
        if not r.passed:
            line += f" -- {r.witness}"
        lines.append(line)
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    payload = {
        "scope": args.scope,
        "passed": len(results) - len(failures),
        "failed": len(failures),
        "checks": [
            {"name": r.name, "scope": r.scope, "passed": r.passed, "witness": r.witness}
            for r in results
        ],
    }
    _emit(args, payload, "\n".join(lines))
    return CHECK_FAILED if failures else OK


# -- parser ---------------------------------------------------------------------


def _arg(*names, **kwargs) -> tuple:
    """One `add_argument` call of a subcommand, as (names, keyword arguments)."""
    return names, kwargs


# a negative rational such as -1/3 is a value, not a flag, to both parsers
NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$")

# accepted before or after the subcommand
GLOBAL_FLAGS = [
    _arg("--format", choices=["json", "md", "csv", "text"], default="text",
         help="output format (default text); md and csv change only `tables`, "
         "every other command prints its text form for them"),
    _arg("--output", default=None, help="write the result to a file"),
]

_CUBIC = _arg("coeffs", nargs=4, metavar="R")
_PAIR = _arg("coeffs", nargs=8, metavar="C")
_PSI = _arg("--psi", type=int, required=True)

# every subcommand, in help order: name -> (handler, help, its own arguments)
COMMANDS = {
    "classify": (cmd_classify, "orbit class and invariants of a cubic", [_CUBIC]),
    "pair": (cmd_pair, "Killing pairing of a cubic with a dual cubic", [_PAIR]),
    "moment": (cmd_moment, "moment-map matrix of a conormal pair", [_PAIR]),
    "kernel": (cmd_kernel, "basis of the conormal kernel of a cubic", [_CUBIC]),
    "stabilizer": (cmd_stabilizer, "stabilizer of a rational-split cubic", [_CUBIC]),
    "lambda-regular": (cmd_lambda_regular, "regular conormal stratum membership", [_PAIR]),
    "tables": (cmd_tables, "emit one of the shipped tables", [
        _arg("--which", required=True,
             choices=["stalks", "geomult", "repmult", "evs", "nevs", "fourier"])]),
    "packets": (cmd_packets, "packet membership and pairing characters", [
        _arg("action", nargs="?", default="show", choices=["show"]), _PSI]),
    "aubert": (cmd_aubert, "the involution on the six irreducibles", []),
    "stable": (cmd_stable, "stable virtual character of a parameter", [
        _PSI, _arg("--basis", choices=["irred", "standard"], default="irred")]),
    "formal-degree": (cmd_formal_degree, "formal-degree data at a given q", [
        _arg("--q", required=True)]),
    "roots": (cmd_roots, "root system and coroot data", []),
    "verify": (cmd_verify, "run the consistency-check suite", [
        _arg("--scope", choices=["all", "geometry", "sheaves", "packets", "g2"], default="all"),
        _arg("--tamper-evs", action="store_true",
             help="flip one raw-table entry first (sensitivity harness)")]),
}


class _Grammar(NamedTuple):
    """One subcommand as the table parser reads it."""

    defaults: dict  # the namespace before any token is read
    positional: tuple  # (dest, nargs, choices); ("", 0, None) for none
    flags: dict  # option -> (dest, type, choices), each taking one value
    switches: dict  # store_true option -> dest
    required: tuple  # dests of the required flags


_MISSING = object()  # the value of a required flag not yet given


def _kind(names: tuple, kwargs: dict) -> str:
    """How the table parser reads one declaration: "positional", "switch" or "flag".

    Raises ValueError on any other, so that a new kind of argument cannot
    parse differently from argparse unnoticed.
    """
    keys, nargs = kwargs.keys() - {"help", "metavar", "choices"}, kwargs.get("nargs")
    if len(names) == 1 and not names[0].startswith("-"):
        if keys == {"nargs"} and type(nargs) is int and nargs > 0:
            return "positional"
        if keys == {"nargs", "default"} and nargs == "?":
            return "positional"
    elif len(names) == 1 and names[0].startswith("--"):
        if keys == {"action"} and kwargs["action"] == "store_true":
            return "switch"
        if keys <= {"type", "required", "default"} and kwargs.get("type", str) in (int, str):
            return "flag"
    raise ValueError(f"the table parser does not read the declaration {names} {kwargs}")


@functools.cache
def _grammar(command: str) -> _Grammar:
    """The table parser's reading of `COMMANDS[command]` and `GLOBAL_FLAGS`."""
    fn, _help, arguments = COMMANDS[command]
    defaults = {"command": command, "fn": fn}
    positional, flags, switches, required = ("", 0, None), {}, {}, []
    for names, kwargs in [*arguments, *GLOBAL_FLAGS]:
        kind, name = _kind(names, kwargs), names[0]
        dest = name[2:].replace("-", "_")
        if kind == "switch":
            switches[name] = dest
            defaults[dest] = False
        elif kind == "flag":
            convert = kwargs.get("type", str)
            flags[name] = (dest, convert, kwargs.get("choices"))
            if kwargs.get("required"):
                required.append(dest)
                defaults[dest] = _MISSING
            else:
                # argparse passes a string default through the type
                default = kwargs.get("default")
                defaults[dest] = convert(default) if isinstance(default, str) else default
        elif positional[0]:
            raise ValueError(f"{command}: the table parser reads one positional argument")
        else:
            positional = (name, kwargs["nargs"], kwargs.get("choices"))
            if "default" in kwargs:
                defaults[name] = kwargs["default"]
    return _Grammar(defaults, positional, flags, switches, tuple(required))


def _is_value(token: str) -> bool:
    """Whether argparse reads the token as a value rather than as a flag."""
    return not token.startswith("-") or NEGATIVE_NUMBER.match(token) is not None


def _parse_table(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would build for `argv`, or None to leave it to argparse.

    Accepted: a subcommand, its positional values as one run, then any of its
    own or the global flags, each exact, as `--flag value` or a bare switch.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    grammar = _grammar(argv[0])
    values = dict(grammar.defaults)
    end = 1
    while end < len(argv) and _is_value(argv[end]):
        end += 1
    dest, nargs, choices = grammar.positional
    if nargs == "?":
        if end > 2:
            return None
        if end == 2:
            values[dest] = argv[1]
        given = [values[dest]]
    elif end - 1 != nargs:
        return None
    else:
        given = argv[1:end]
        if dest:
            values[dest] = given
    if choices is not None and any(v not in choices for v in given):
        return None
    i = end
    while i < len(argv):
        token = argv[i]
        if token in grammar.switches:
            values[grammar.switches[token]] = True
            i += 1
            continue
        spec = grammar.flags.get(token)
        if spec is None or i + 1 == len(argv) or not _is_value(argv[i + 1]):
            return None
        dest, convert, choices = spec
        try:
            value = convert(argv[i + 1])
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        i += 2
    if any(values[dest] is _MISSING for dest in grammar.required):
        return None
    return SimpleNamespace(**values)


def _add_global_flags(p: argparse.ArgumentParser, root: bool = False) -> None:
    import argparse

    for names, kwargs in GLOBAL_FLAGS:
        # on subparsers the defaults are suppressed so a flag given before the
        # subcommand is not clobbered
        p.add_argument(*names, **(kwargs if root else {**kwargs, "default": argparse.SUPPRESS}))


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="g2cubics",
        description="Exact computations with binary cubics, conormal geometry, "
        "perverse-sheaf tables and packet data.",
    )
    _add_global_flags(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)
    parser._negative_number_matcher = NEGATIVE_NUMBER
    for name, (fn, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        _add_global_flags(p)
        p.set_defaults(fn=fn)
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first argv that the table parser leaves to it
    and reused by later ones.

    The cache stores only a returned parser, so an exception or signal that
    interrupts the build leaves nothing cached; `parse_args` makes a fresh
    Namespace on every call, so no state passes from one command to the next.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_table(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
