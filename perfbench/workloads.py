"""Seeded inputs for the g2cubics benchmark workloads.

Each operation is a CLI argv plus the answer its construction implies. The
program only ever sees the argv; the seed stays on this side. A workload is
an endless sequence of blocks, and every block of a workload has the same
composition of query kinds, so runs that complete different numbers of
blocks still measure the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterator

# coeff-sweep: an operation still running after this many seconds counts as
# failed. Ten times the 50 ms target for 1000-digit inputs; BENCHMARK.json
# states the same value.
DEADLINE_S = 0.5
SIZES = (1, 20, 100, 1000)  # decimal digits of the cubic's coefficients
CONSTRUCTIONS = ("three-lines", "double-line", "triple-line", "line-quadratic", "eisenstein")
LINE_PRODUCTS = CONSTRUCTIONS[:3]
# fresh cubics per construction in a coeff-sweep block, by size; weighted
# toward 1000 digits so that the largest size takes most of the answered time
SWEEP_INSTANCES = {1: 4, 20: 4, 100: 8, 1000: 32}
# the message `stabilizer` gives, with exit 2, for a cubic that does not split
NO_SPLIT = "does not split into three distinct rational lines"

VERIFY_COUNTS = {"all": 51, "sheaves": 10, "packets": 11, "g2": 11}  # checks per verify scope
TABLES = ("stalks", "geomult", "repmult", "evs", "nevs", "fourier")
FORMATS = ("json", "md", "csv", "text")

# commands whose output is fixed; their answers are pinned in golden.json
FIXED_QUERIES = (
    [("tables", "--which", w, "--format", f) for w in TABLES for f in FORMATS]
    + [("packets", "show", "--psi", str(p), "--format", f) for p in range(4) for f in ("json", "text")]
    + [
        ("stable", "--psi", str(p), "--basis", b, "--format", f)
        for p in range(4)
        for b in ("irred", "standard")
        for f in ("json", "text")
    ]
    + [(c, "--format", f) for c in ("aubert", "roots") for f in ("json", "text")]
)
_FIXED_BY_COMMAND: dict[str, list[tuple]] = {}
for _argv in FIXED_QUERIES:
    _FIXED_BY_COMMAND.setdefault(_argv[0], []).append(_argv)

# the canonical regular conormal pair of each stratum (r, s)
_THIRD = Fraction(-1, 3)
REGULAR_PAIRS = {
    0: ((0, 0, 0, 0), (0, _THIRD, _THIRD, 0)),
    1: ((1, 0, 0, 0), (0, 0, _THIRD, 0)),
    2: ((0, 1, 0, 0), (0, 0, 0, 1)),
    3: ((0, _THIRD, _THIRD, 0), (0, 0, 0, 0)),
}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect: dict
    deadline_s: float | None = None


# -- exact helpers shared with the answer checker --------------------------------


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def twisted(plain) -> tuple[Fraction, ...]:
    """Coefficients r of a0 y^3 + a1 y^2 x + a2 y x^2 + a3 x^3, where
    r(x, y) = r0 y^3 - 3 r1 y^2 x - 3 r2 y x^2 - r3 x^3."""
    a0, a1, a2, a3 = plain
    return (Fraction(a0), Fraction(-a1, 3), Fraction(-a2, 3), Fraction(-a3))


def normal_line(u1, u2) -> tuple[Fraction, Fraction]:
    """[u1:u2] scaled so that its first nonzero coordinate is 1."""
    scale = Fraction(u1 if u1 != 0 else u2)
    return (u1 / scale, u2 / scale)


def pairing(r, s) -> Fraction:
    return r[0] * s[0] + 3 * r[1] * s[1] + 3 * r[2] * s[2] + r[3] * s[3]


def moment(r, s) -> list[list[Fraction]]:
    """The 2x2 moment map [r, s]; it vanishes exactly on the conormal variety."""
    r0, r1, r2, r3 = r
    s0, s1, s2, s3 = s
    return [
        [r0 * s0 + 2 * r1 * s1 + r2 * s2, -r1 * s0 + 2 * r2 * s1 + r3 * s2],
        [-r0 * s1 + 2 * r1 * s2 + r2 * s3, r1 * s1 + 2 * r2 * s2 + r3 * s3],
    ]


def formal_degree(q: Fraction) -> tuple[Fraction, Fraction] | None:
    """(dim sigma, gamma(0)) at q, or None at a pole."""
    den = (q + 1) ** 2 * (q * q + q + 1)
    if den == 0:
        return None
    return (q * (q**6 - 1) * (q * q - 1) / (6 * den), q**9 / den)


# -- random inputs ---------------------------------------------------------------


def _int(rng: random.Random, digits: int) -> int:
    """A nonzero integer of exactly `digits` decimal digits, random sign."""
    return rng.choice((-1, 1)) * rng.randint(10 ** (digits - 1), 10**digits - 1)


def _rational(rng: random.Random, span: int = 99) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _lines(rng: random.Random, count: int, digits: int) -> list[tuple[int, int]]:
    """`count` pairwise distinct projective lines with `digits`-digit entries."""
    out: list[tuple[int, int]] = []
    while len(out) < count:
        u = (_int(rng, digits), _int(rng, digits))
        if all(u[0] * v[1] != u[1] * v[0] for v in out):
            out.append(u)
    return out


def cubic(kind: str, digits: int, rng: random.Random) -> dict:
    """A cubic whose answers are known from how it was built.

    Line entries have digits/3 digits, rounded up, so the coefficients of
    the product have about `digits` digits.
    """
    k = -(-digits // 3)
    form = lambda u: [u[0], -u[1]]  # the line [u1:u2] is the form u1 y - u2 x
    if kind in LINE_PRODUCTS:
        mults = {"three-lines": (1, 1, 1), "double-line": (2, 1), "triple-line": (3,)}[kind]
        lines = _lines(rng, len(mults), k)
        plain = [1]
        for u, m in zip(lines, mults):
            for _ in range(m):
                plain = poly_mul(plain, form(u))
        orbit = {3: "C3", 2: "C2", 1: "C1"}[len(mults)]
        found = {normal_line(*u): m for u, m in zip(lines, mults)}
        residual = 0
    elif kind == "line-quadratic":
        (u,) = _lines(rng, 1, k)
        while True:  # A y^2 + B y x + C x^2 with a non-square discriminant
            a, b, c = (_int(rng, 2 * k) for _ in range(3))
            disc = b * b - 4 * a * c
            if disc < 0 or isqrt(disc) ** 2 != disc:
                break
        plain = poly_mul(form(u), [a, b, c])
        orbit, found, residual = "C3", {normal_line(*u): 1}, 2
    elif kind == "eisenstein":
        # a0 + a1 t + a2 t^2 + a3 t^3 in t = x/y: p divides a0, a1, a2 but not
        # a3, and p^2 does not divide a0, so it is irreducible over Q
        p = rng.choice((2, 3, 5, 7))
        units = []
        while len(units) < 2:
            m = _int(rng, digits)
            if m % p:
                units.append(m)
        plain = [p * units[0], p * _int(rng, digits), p * _int(rng, digits), units[1]]
        orbit, found, residual = "C3", {}, 3
    else:
        raise ValueError(f"unknown construction {kind!r}")
    r = twisted(plain)
    return {"kind": kind, "r": r, "orbit": orbit, "lines": found, "residual": residual}


def cubic_op(cmd: str, c: dict, deadline_s: float | None = None) -> Op:
    expect = dict(c, check=cmd)
    if c["residual"] and cmd == "stabilizer":
        expect.update(exit=2, error=NO_SPLIT)
    return Op((cmd, *map(fmt, c["r"]), "--format", "json"), expect, deadline_s)


# -- workloads -------------------------------------------------------------------


def _verify_block(rng: random.Random, index: int) -> list[Op]:
    return [Op(("verify", "--format", "json"), {"check": "verify", "scope": "all"})]


def _query_block(rng: random.Random, index: int) -> list[Op]:
    """Three rounds of one command per subcommand, so every subcommand is
    equally frequent. The seed picks the arguments and the output format;
    `verify` takes the scopes sheaves, packets and g2 in turn."""
    ops: list[Op] = []
    for round_, scope in enumerate(("sheaves", "packets", "g2")):
        kind = LINE_PRODUCTS[round_]
        ops += [cubic_op(cmd, cubic(kind, 1, rng)) for cmd in ("classify", "stabilizer", "kernel")]
        r = tuple(_rational(rng) for _ in range(4))
        s = tuple(_rational(rng) for _ in range(4))
        ops.append(Op(("pair", *map(fmt, r), *map(fmt, s), "--format", "json"), {"check": "pair", "r": r, "s": s}))
        if round_ == 0:  # a random pair, off the conormal variety
            while not any(any(row) for row in moment(r, s)):
                s = tuple(_rational(rng) for _ in range(4))
            stratum = None
        else:  # a regular pair scaled on both sides stays on its stratum
            stratum = rng.randrange(4)
            a, b = (Fraction(rng.randint(1, 99), rng.randint(1, 99)) * rng.choice((-1, 1)) for _ in "ab")
            r0, s0 = REGULAR_PAIRS[stratum]
            r, s = tuple(a * x for x in r0), tuple(b * x for x in s0)
        pair_argv = (*map(fmt, r), *map(fmt, s), "--format", "json")
        ops.append(Op(("moment", *pair_argv), {"check": "moment", "r": r, "s": s}))
        ops.append(Op(("lambda-regular", *pair_argv), {"check": "lambda", "stratum": stratum}))
        q = _rational(rng)
        ops.append(Op(("formal-degree", "--q", fmt(q), "--format", "json"), {"check": "formal-degree", "q": q}))
        ops += [Op(rng.choice(variants), {"check": "golden"}) for variants in _FIXED_BY_COMMAND.values()]
        ops.append(Op(("verify", "--scope", scope, "--format", "json"), {"check": "verify", "scope": scope}))
    rng.shuffle(ops)
    return ops


def _sweep_block(rng: random.Random, index: int) -> list[Op]:
    """Fresh instances of every construction at each size. At 1 digit every
    instance runs all three commands. Above 1 digit `kernel` runs on every
    instance. Each block adds one classify and one stabilizer above 1 digit,
    because each of them costs the whole deadline while they hang; their
    size and construction rotate with the block index."""
    big = SIZES[1 + index % (len(SIZES) - 1)]
    ops: list[Op] = []
    for digits in SIZES:
        n = SWEEP_INSTANCES[digits]
        cubics = [cubic(kind, digits, rng) for kind in CONSTRUCTIONS for _ in range(n)]
        if digits == 1:
            cmds = [(cmd, c) for c in cubics for cmd in ("classify", "stabilizer", "kernel")]
        else:
            cmds = [("kernel", c) for c in cubics]
        if digits == big:
            first = n * (index % len(CONSTRUCTIONS))  # the first instance of one construction
            cmds += [("classify", cubics[first]), ("stabilizer", cubics[(first + n) % len(cubics)])]
        ops += [cubic_op(cmd, c, DEADLINE_S) for cmd, c in cmds]
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_block: Callable[[random.Random, int], list[Op]]
    min_samples: int  # answered samples, enough for ten beyond the tail percentile
    tail_pct: float
    warmup: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-suite", _verify_block, 20, 50, ("verify", "--scope", "g2", "--format", "json")),
        Workload("query-mix", _query_block, 1000, 99, ("roots", "--format", "json")),
        # p98: the top 1% is a few dozen 1-digit classify calls, whose cost
        # depends on the seed's cubics; their p99 spread twice as much
        Workload("coeff-sweep", _sweep_block, 500, 98, ("kernel", "1", "0", "0", "0", "--format", "json")),
    )
}

# the query every set-up measurement answers in a fresh interpreter
SETUP_QUERY = ("classify", "0", "-1/3", "-1/3", "0", "--format", "json")


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """The workload's endless block sequence for this seed."""
    rng = random.Random(f"{workload}/{seed}")
    make = WORKLOADS[workload].make_block
    index = 0
    while True:
        yield make(rng, index)
        index += 1
