"""Answer checks: every captured CLI result against what its input implies.

JSON payloads are validated against the program's result schema, parametric
answers against the construction or an exact formula, and fixed outputs
against the digests pinned in golden.json.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import jsonschema

from workloads import VERIFY_COUNTS, fmt, formal_degree, moment, normal_line, pairing

GOLDEN = Path(__file__).with_name("golden.json")

_ORBIT_DIM = {"C1": 2, "C2": 3, "C3": 4}
_STRUCTURE = {"C1": "triple_line", "C2": "double_plus_simple", "C3": "three_distinct"}
_KERNEL_DIM = {"C1": 2, "C2": 1, "C3": 0}
_STABILIZER = {"C1": (2, "trivial", 1), "C2": (1, "trivial", 1), "C3": (0, "S3", 6)}


class WrongAnswer(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def _fractions(values) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(v) for v in values)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise WrongAnswer(f"not a rational vector: {values!r}") from exc


def _fixes(h, r) -> bool:
    """Whether h = (a, b, c, d) is invertible and (h.r)(x, y) =
    det(h)^-1 r((x, y) h) equals r. Two binary cubics are equal when they
    agree at four pairwise independent points."""
    a, b, c, d = h
    det = a * d - b * c

    def value(x, y):
        r0, r1, r2, r3 = r
        return r0 * y**3 - 3 * r1 * y * y * x - 3 * r2 * y * x * x - r3 * x**3

    points = ((0, 1), (1, 0), (1, 1), (1, -1))
    return det != 0 and all(value(a * x + c * y, b * x + d * y) == det * value(x, y) for x, y in points)


def _check_stabilizer(body: dict, c: dict) -> None:
    dim, group, order = _STABILIZER[c["orbit"]]
    _require(body["dimension"] == dim, f"stabilizer dimension {body['dimension']}, expected {dim}")
    _require(body["component_group"] == group, f"component group {body['component_group']}, expected {group}")
    gens = [_fractions(x for row in g for x in row) for g in body["generators"]]
    _require(len(gens) == (order if order > 1 else 0), f"{len(gens)} generators for order {order}")
    _require(len(set(gens)) == len(gens), "repeated stabilizer generators")
    for h in gens:
        _require(_fixes(h, c["r"]), f"generator {h} does not fix r")


def _check_cubic(payload: dict, c: dict) -> None:
    cmd = c["check"]
    if cmd == "kernel":
        basis = [_fractions(s) for s in payload["basis"]]
        want = _KERNEL_DIM[c["orbit"]]
        _require(payload["dimension"] == len(basis) == want, f"kernel dimension {len(basis)}, expected {want}")
        for s in basis:
            _require(any(s), "zero kernel vector")
            _require(not any(any(row) for row in moment(c["r"], s)), f"{s} is not in the kernel")
        if len(basis) == 2:
            (p0, p1, p2, p3), (q0, q1, q2, q3) = basis
            minors = (p0 * q1 - p1 * q0, p0 * q2 - p2 * q0, p0 * q3 - p3 * q0,
                      p1 * q2 - p2 * q1, p1 * q3 - p3 * q1, p2 * q3 - p3 * q2)
            _require(any(minors), "kernel basis is dependent")
        return
    if cmd == "stabilizer":
        _check_stabilizer(payload, c)
        return
    orbit = c["orbit"]
    _require(_fractions(payload["r"]) == c["r"], "echoed r differs from the input")
    _require(payload["orbit"] == orbit, f"orbit {payload['orbit']}, expected {orbit}")
    _require(payload["orbit_dimension"] == _ORBIT_DIM[orbit], "wrong orbit dimension")
    _require(payload["multiplicity_structure"] == _STRUCTURE[orbit], "wrong multiplicity structure")
    hessian = _fractions(payload["hessian_quadratic"])
    _require(any(hessian) == (orbit != "C1"), "Hessian quadratic vanishes off C1")
    _require((Fraction(payload["discriminant"]) != 0) == (orbit == "C3"), "discriminant zero pattern")
    lines = {}
    for item in payload["rational_lines"]:
        u = _fractions(item["line"])
        _require(normal_line(*u) == u, f"line {u} not normalized")
        lines[u] = item["multiplicity"]
    _require(lines == c["lines"], f"rational lines {lines}, expected {c['lines']}")
    _require(payload["residual_degree"] == c["residual"], f"residual degree {payload['residual_degree']}")
    if c["residual"]:
        _require(payload["stabilizer"] is None, "stabilizer reported for a cubic that does not split")
    else:
        _check_stabilizer(payload["stabilizer"], c)


def _check_payload(payload: dict, e: dict) -> None:
    kind = e["check"]
    if kind in ("classify", "stabilizer", "kernel"):
        _check_cubic(payload, e)
    elif kind == "pair":
        _require(payload["pairing"] == fmt(pairing(e["r"], e["s"])), "wrong pairing")
    elif kind == "moment":
        m = moment(e["r"], e["s"])
        _require(payload["moment"] == [[fmt(x) for x in row] for row in m], "wrong moment matrix")
        _require(payload["is_zero"] == (not any(any(row) for row in m)), "wrong is_zero")
    elif kind == "lambda":
        _require(payload["stratum"] == e["stratum"], f"stratum {payload['stratum']}, expected {e['stratum']}")
    elif kind == "formal-degree":
        dim_sigma, gamma0 = formal_degree(e["q"])
        _require(payload == {"q": fmt(e["q"]), "dim_sigma": fmt(dim_sigma), "gamma0": fmt(gamma0)},
                 "wrong formal-degree values")
    elif kind == "verify":
        n = VERIFY_COUNTS[e["scope"]]
        checks = payload["checks"]
        _require(payload["scope"] == e["scope"], "wrong verify scope")
        _require(payload["passed"] == n and payload["failed"] == 0, f"{payload['passed']}/{n} checks passed")
        _require(len(checks) == n and all(x["passed"] for x in checks), "check list does not match")
        _require(len({x["name"] for x in checks}) == n, "repeated check names")
    else:
        raise RuntimeError(f"unknown check {kind!r}")


def expected_exit(op) -> tuple[int, str | None]:
    """The exit code and, for an error exit, the message stderr must hold."""
    e = op.expect
    if e["check"] == "formal-degree" and formal_degree(e["q"]) is None:
        return 2, "pole at q"
    return e.get("exit", 0), e.get("error")


class Checker:
    """Judges one captured result at a time; `check` returns None when the
    answer is right and a reason when it is wrong."""

    def __init__(self, src: Path):
        schema = json.loads((src / "g2cubics" / "schemas" / "result.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.golden = json.loads(GOLDEN.read_text())

    def check(self, op, rc, out: str, err: str) -> str | None:
        want, message = expected_exit(op)
        if rc != want:
            return f"exit code {rc}, expected {want}"
        if want != 0:
            if out != "":
                return "output on an error exit"
            if not (err.startswith("error: ") and message in err):
                return f"error message {err.strip()[:120]!r}, expected one saying {message!r}"
            return None
        try:
            if op.expect["check"] == "golden":
                digest = hashlib.sha256(out.encode()).hexdigest()
                _require(self.golden.get(" ".join(op.argv)) == digest, "output differs from golden.json")
                if op.argv[-1] != "json":
                    return None
            payload = json.loads(out)
            error = jsonschema.exceptions.best_match(self.validator.iter_errors(payload))
            _require(error is None, f"schema: {error and error.message}")
            if op.expect["check"] != "golden":
                _check_payload(payload, op.expect)
        except WrongAnswer as exc:
            return str(exc)
        except (ValueError, ZeroDivisionError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None
