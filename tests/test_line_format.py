"""The line format: `cubics.Line` keeps the primitive integer pair of a line.

- Against `fraction_reference.fraction_line`, the Fraction normalization
  (0, 1) or (1, t), at coordinates of 1 to 1000 digits: equality and hash,
  the printed form (`to_json`, `repr`), `perp` and the listing order of
  `rational_lines`.  The pair (0, 0) is no line.
- Every line that `rational_lines` returns holds two ints with gcd 1, the
  first nonzero one positive: on every cubic and dual cubic of
  `tests/golden_cli.json`, and on 1000-digit line products.
- `_repeated_line` returns a `Line` on C1 and C2, the line [0:1] included.
"""

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2cubics.cubics import (
    BinaryCubic,
    DualCubic,
    Line,
    OrbitClass,
    _line_order,
    _repeated_line,
    classify,
    rational_lines,
)
from g2cubics.linalg import format_rational, parse_rational

from fraction_reference import fraction_line, line_cubic

GOLDEN = Path(__file__).with_name("golden_cli.json")
DIGITS = (1, 2, 20, 100, 1000)


@st.composite
def rationals(draw):
    """An int or a Fraction with 1- to 1000-digit numerator and denominator; a sixth are 0."""
    if draw(st.integers(0, 5)) == 0:
        return 0
    bound = 10 ** draw(st.sampled_from(DIGITS))
    num = draw(st.integers(-bound, bound))
    return num if draw(st.booleans()) else Fraction(num, draw(st.integers(1, bound)))


pairs = st.tuples(rationals(), rationals()).filter(any)
scales = rationals().filter(bool)


def reference_json(pair):
    return [format_rational(x) for x in pair]


def reference_order(pair):
    """The listing order of `rational_lines` on the pair (0, 1) or (1, t)."""
    u1, t = pair
    if u1 == 0:
        return (0,)
    if t == 0:
        return (1,)
    return (2, abs(t.numerator), t.denominator, t < 0)


def assert_primitive(u):
    assert type(u) is Line
    assert type(u.u1) is int and type(u.u2) is int
    assert gcd(u.u1, u.u2) == 1
    assert u.u1 > 0 or (u.u1, u.u2) == (0, 1)


@settings(max_examples=300)
@given(pairs, scales)
@example((0, Fraction(-5, 7)), 3)
@example((Fraction(-2, 3), 0), Fraction(1, 2))
@example((3, -7), -1)
@example((Fraction(-4, 6), Fraction(10, 9)), Fraction(-9, 2))
def test_line_matches_fraction_reference(pair, scale):
    u, ref = Line(*pair), fraction_line(*pair)
    assert_primitive(u)
    assert u.u1 * ref[1] == u.u2 * ref[0]  # the same point
    assert u.to_json() == reference_json(ref)
    assert repr(u) == f"Line[{':'.join(reference_json(ref))}]"
    assert u.perp().to_json() == reference_json(fraction_line(-ref[1], ref[0]))
    v = Line(scale * pair[0], scale * pair[1])
    assert v == u and hash(v) == hash(u) and (v.u1, v.u2) == (u.u1, u.u2)


def test_the_zero_pair_is_no_line():
    for pair in ((0, 0), (Fraction(0), 0), ("0", "0/7")):
        with pytest.raises(ValueError, match="a line needs a nonzero coordinate pair"):
            Line(*pair)


@settings(max_examples=150)
@given(st.lists(pairs, min_size=2, max_size=6), st.lists(st.tuples(st.integers(0, 5), scales), max_size=3))
@example([(1, Fraction(1, 2)), (1, Fraction(-1, 2)), (1, 2), (0, 3), (5, 0)], [(0, -2)])
@example([(3, -1), (3, 1), (1, 3), (2, 3), (Fraction(1, 2), 0)], [(1, 7), (3, -1)])
def test_equality_and_listing_order_match_fraction_reference(coords, copies):
    # scaled copies of some of the lines, so that equal lines occur
    coords = coords + [(c * coords[i % len(coords)][0], c * coords[i % len(coords)][1]) for i, c in copies]
    lines = [Line(*p) for p in coords]
    refs = [fraction_line(*p) for p in coords]
    for u, ru in zip(lines, refs):
        for v, rv in zip(lines, refs):
            assert (u == v) is (ru == rv)
            if u == v:
                assert hash(u) == hash(v)
    assert len(set(lines)) == len(set(refs))
    listed = [u.to_json() for u in sorted(lines, key=_line_order)]
    assert listed == [reference_json(r) for r in sorted(refs, key=reference_order)]


def golden_cubics():
    """Every nonzero cubic and dual cubic on a command line of the golden snapshot."""
    found = set()
    for key in json.loads(GOLDEN.read_text()):
        argv = key.split()
        command = next((a for a in argv if not a.startswith("-") and a != "json"), None)
        if command not in ("classify", "kernel", "stabilizer", "pair", "moment", "lambda-regular"):
            continue
        tokens = argv[argv.index(command) + 1 :]
        tokens = tokens[: next((i for i, a in enumerate(tokens) if a.startswith("--")), len(tokens))]
        try:
            values = [parse_rational(a) for a in tokens]
        except (ValueError, ZeroDivisionError):
            continue  # the snapshot's malformed inputs
        for kind, coeffs in zip((BinaryCubic, DualCubic), (values[:4], values[4:])):
            if len(coeffs) == 4 and any(coeffs):
                found.add(kind(*coeffs))
    return found


def test_golden_cubics_have_primitive_integer_lines():
    cubics = golden_cubics()
    assert len(cubics) >= 15
    listed = set()
    for r in cubics:
        for u, _ in rational_lines(r)[0]:
            assert_primitive(u)
            listed.add(u)
    assert {Line(0, 1), Line(1, 0), Line(2, 1), Line(3, -2), Line(2, 5)} <= listed


def test_thousand_digit_line_products_have_primitive_integer_lines():
    rng = random.Random(29)

    def big():
        return rng.randrange(10**999, 10**1000) * rng.choice((1, -1))

    for _ in range(4):
        u, v, w = [(big(), big()) for _ in range(3)]
        scale = Fraction(big(), abs(big()))
        for factors in ((u, v, w), (u, u, v), (u, u, u), ((0, 1), v, w), ((1, 0), (1, 0), w)):
            r = line_cubic(*factors).scale(scale)
            lines, residual = rational_lines(r)
            assert residual == 0
            assert {line for line, _ in lines} == {Line(*f) for f in factors}
            for line, _ in lines:
                assert_primitive(line)


def test_repeated_line_is_a_line():
    rng = random.Random(31)
    u = (rng.randrange(10**999, 10**1000), -rng.randrange(10**999, 10**1000))
    v = (rng.randrange(1, 10**1000), rng.randrange(1, 10**1000))
    cases = [
        (BinaryCubic(1, 0, 0, 0), OrbitClass.C1, Line(1, 0)),  # y^3
        (BinaryCubic(0, 0, 0, 1), OrbitClass.C1, Line(0, 1)),  # -x^3
        (BinaryCubic(0, 1, 0, 0), OrbitClass.C2, Line(1, 0)),  # -3 x y^2
        (BinaryCubic(0, 0, 1, 0), OrbitClass.C2, Line(0, 1)),  # -3 y x^2
        (DualCubic(0, 0, Fraction(-1, 3), 0), OrbitClass.C2, Line(0, 1)),  # y x^2
        (line_cubic(u, u, u).scale(Fraction(-3, 7)), OrbitClass.C1, Line(*u)),
        (line_cubic(u, u, v), OrbitClass.C2, Line(*u)),
        (line_cubic((0, 1), (0, 1), v), OrbitClass.C2, Line(0, 1)),
        (line_cubic((0, 5), (0, 5), (0, 5)), OrbitClass.C1, Line(0, 1)),
    ]
    for r, orbit, line in cases:
        assert classify(r) is orbit
        found = _repeated_line(r)
        assert_primitive(found)
        assert found == line
