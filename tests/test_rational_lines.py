"""rational_lines and classify against independent references.

- `sympy.factor_list`, on cubics with 64- to 256-bit coefficients drawn by
  hypothesis: products of lines (some repeated), a line times an
  irreducible quadratic, and general (almost always irreducible) cubics.
- The divisor-enumeration root finder the package used before Hensel
  lifting, kept below as a test-only reference.  It is exponential in the
  bit-length, so it runs on small coefficients only, where it also pins the
  order in which lines are listed.
- For `classify`, the root-multiplicity pattern of `sympy.factor_list`, on
  line products (repeated lines and the line [0:1] among them) and general
  cubics with 64- to 2048-bit coefficients.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

import sympy
from hypothesis import assume, example, given
from hypothesis import strategies as st

from g2cubics.cubics import (
    BinaryCubic,
    Line,
    OrbitClass,
    classify,
    rational_lines,
    to_plain,
)
from fraction_reference import divide_by_form, from_plain, poly_mul

# -- the divisor-enumeration reference ----------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _reference_roots(p: list[Fraction]) -> list[Line]:
    """Rational zeros [u1:u2] of a plain-basis cubic, by the rational root test."""
    roots: list[Line] = []
    if p[0] == 0:
        roots.append(Line(0, 1))
    uni = list(reversed(p))  # index j: coefficient of t^j in p(1, t)
    while uni and uni[-1] == 0:
        uni.pop()
    lcm = 1
    for c in uni:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in uni]
    while ints and ints[0] == 0:
        if Line(1, 0) not in roots:
            roots.append(Line(1, 0))
        ints = ints[1:]
    if len(ints) <= 1:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])
    for pnum in _divisors(a0):
        for pden in _divisors(an):
            for sign in (1, -1):
                t = Fraction(sign * pnum, pden)
                if sum(c * t**j for j, c in enumerate(ints)) == 0 and Line(1, t) not in roots:
                    roots.append(Line(1, t))
    return roots


def reference_rational_lines(r: BinaryCubic):
    p = to_plain(r.coeffs)
    found = []
    for root in _reference_roots(p):
        mult = 0
        while True:
            q, exact = divide_by_form(p, root.u1, root.u2)
            if not exact:
                break
            p, mult = q, mult + 1
        found.append((root, mult))
    return found, len(p) - 1


# -- cubic builders -----------------------------------------------------------


def _form(u1, u2) -> list[Fraction]:
    return [Fraction(u1), Fraction(-u2)]  # u1*y - u2*x


def line_product(*factors, scale=Fraction(1)) -> BinaryCubic:
    """The cubic scale * prod(factors), each factor a plain-basis polynomial."""
    p = [Fraction(1)]
    for f in factors:
        p = poly_mul(p, f)
    return BinaryCubic(*from_plain(p)).scale(scale)


def _small_line(rng, span):
    while True:
        u = (rng.randint(-span, span), rng.randint(-span, span))
        if u != (0, 0):
            return u


def seeded_small_cubics(seed: int = 20):
    """2400 small-coefficient cubics over every orbit and splitting type."""
    rng = random.Random(seed)
    cubics = []
    for _ in range(1000):  # integer coefficients: mostly C3, few lines
        cubics.append(BinaryCubic(*(rng.randint(-6, 6) for _ in range(4))))
    for _ in range(400):  # rational coefficients
        coeffs = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        cubics.append(BinaryCubic(*coeffs))
    for _ in range(1000):  # line products, with forced repeats for C1 and C2
        u, v, w = (_small_line(rng, 5) for _ in range(3))
        shape = rng.choice(["distinct", "double", "triple"])
        lines = {"distinct": [u, v, w], "double": [u, u, v], "triple": [u, u, u]}[shape]
        scale = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
        cubics.append(line_product(*(_form(*x) for x in lines), scale=scale))
    return [r for r in cubics if not r.is_zero()]


# -- the sympy reference ------------------------------------------------------

X, Y = sympy.symbols("x y")


def sympy_lines(r: BinaryCubic):
    """({(Line, mult)}, residual degree) from sympy.factor_list."""
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * Y ** (3 - i) * X**i
        for i, c in enumerate(to_plain(r.coeffs))
    )
    _, factors = sympy.factor_list(expr, Y, X)
    lines, residual = set(), 0
    for f, m in factors:
        poly = sympy.Poly(f, Y, X)
        if poly.total_degree() == 1:
            cy, cx = int(poly.coeff_monomial(Y)), int(poly.coeff_monomial(X))
            lines.add((Line(cy, -cx), m))
        else:
            residual += poly.total_degree() * m
    return lines, residual


def assert_matches_sympy(r: BinaryCubic):
    lines, residual = rational_lines(r)
    assert len({u for u, _ in lines}) == len(lines)
    assert (set(lines), residual) == sympy_lines(r)


# line entries of 22-85 bits make cubic coefficients of about 64-256 bits
big_entry = st.integers(2**21, 2**85).flatmap(lambda n: st.sampled_from([n, -n]))
line_entry = st.one_of(st.sampled_from([-1, 0, 1]), big_entry)
line = st.tuples(line_entry, line_entry).filter(lambda u: u != (0, 0))
scale = st.builds(Fraction, st.integers(1, 2**64), st.integers(1, 2**64))
quad_entry = st.integers(2**42, 2**170).flatmap(lambda n: st.sampled_from([n, -n]))
cubic_entry = st.integers(2**63, 2**256).flatmap(lambda n: st.sampled_from([n, -n]))


@given(line, line, line, st.sampled_from(["distinct", "double", "triple"]), scale)
def test_line_products_match_sympy(u, v, w, shape, c):
    lines = {"distinct": [u, v, w], "double": [u, u, v], "triple": [u, u, u]}[shape]
    assert_matches_sympy(line_product(*(_form(*x) for x in lines), scale=c))


@given(line, quad_entry, quad_entry, quad_entry, scale)
def test_line_times_irreducible_quadratic_matches_sympy(u, a, b, c, k):
    disc = b * b - 4 * a * c
    assume(disc < 0 or isqrt(disc) ** 2 != disc)
    r = line_product(_form(*u), [Fraction(a), Fraction(b), Fraction(c)], scale=k)
    assert rational_lines(r)[1] == 2
    assert_matches_sympy(r)


@given(st.tuples(cubic_entry, cubic_entry, cubic_entry, cubic_entry), scale)
def test_general_cubics_match_sympy(coeffs, k):
    assert_matches_sympy(BinaryCubic(*coeffs).scale(k))


def test_order_matches_divisor_enumeration():
    cubics = seeded_small_cubics()
    assert len(cubics) >= 2000
    orbits = {classify(r) for r in cubics}
    assert orbits == {OrbitClass.C1, OrbitClass.C2, OrbitClass.C3}
    for r in cubics:
        assert rational_lines(r) == reference_rational_lines(r), r


def test_order_puts_axes_first_then_small_slopes():
    # [0:1], then [1:0], then [1:t] by |num t|, then den t, then t > 0 first
    r = line_product(_form(1, Fraction(-1, 2)), _form(1, 2), _form(1, Fraction(1, 2)))
    assert [u for u, _ in rational_lines(r)[0]] == [
        Line(1, Fraction(1, 2)),
        Line(1, Fraction(-1, 2)),
        Line(1, 2),
    ]
    r = line_product(_form(1, 0), _form(1, -1), _form(0, 1))
    assert [u for u, _ in rational_lines(r)[0]] == [Line(0, 1), Line(1, 0), Line(1, -1)]
    r = line_product(_form(1, 3), _form(1, 3), _form(0, 1))  # double line after [0:1]
    assert rational_lines(r) == ([(Line(0, 1), 1), (Line(1, 3), 2)], 0)


def test_thousand_digit_split_cubic():
    rng = random.Random(21)
    lines = [(rng.randrange(10**333, 10**334), rng.randrange(10**333, 10**334)) for _ in range(3)]
    r = line_product(*(_form(*u) for u in lines))
    found, residual = rational_lines(r)
    assert residual == 0
    assert {u for u, _ in found} == {Line(*u) for u in lines}
    # repeated lines, scaled by a 1000-digit fraction
    u, v = lines[:2]
    c = Fraction(rng.randrange(10**999, 10**1000), rng.randrange(10**999, 10**1000))
    found, residual = rational_lines(line_product(_form(*u), _form(*u), _form(*v), scale=c))
    assert residual == 0
    assert set(found) == {(Line(*u), 2), (Line(*v), 1)}
    assert rational_lines(line_product(_form(*u), _form(*u), _form(*u), scale=c)) == ([(Line(*u), 3)], 0)
    # double lines on the axes: [0:1] has a zero Hessian coefficient d0
    for axis in ((0, 1), (1, 0)):
        r = line_product(_form(*axis), _form(*axis), _form(*v), scale=c)
        assert rational_lines(r) == ([(Line(*axis), 2), (Line(*v), 1)], 0)


# -- classify against the multiplicity pattern of sympy.factor_list ----------

T = sympy.symbols("t")
ORBIT_OF_PATTERN = {(3,): OrbitClass.C1, (2, 1): OrbitClass.C2, (1, 1, 1): OrbitClass.C3}


def sympy_orbit(r: BinaryCubic) -> OrbitClass:
    """The orbit of a nonzero r from the multiplicities of its roots.

    f(t) = r(t, 1) in the plain basis; each irreducible factor of f of
    degree d and multiplicity m gives d roots of multiplicity m, and the
    line [1:0] (t at infinity) has multiplicity 3 - deg f.
    """
    plain = [sympy.Rational(c.numerator, c.denominator) for c in to_plain(r.coeffs)]
    f = sympy.Poly(list(reversed(plain)), T)
    _, factors = sympy.factor_list(f)
    pattern = [m for g, m in factors for _ in range(g.degree())] + [3 - f.degree()]
    return ORBIT_OF_PATTERN[tuple(sorted(filter(None, pattern), reverse=True))]


# line entries of 22-683 bits make cubic coefficients of about 64-2048 bits
wide_entry = st.integers(2**21, 2**683).flatmap(lambda n: st.sampled_from([n, -n]))
wide_line_entry = st.one_of(st.sampled_from([-1, 0, 1]), wide_entry)
wide_line = st.tuples(wide_line_entry, wide_line_entry).filter(lambda u: u != (0, 0))
wide_cubic_entry = st.integers(2**63, 2**2048).flatmap(lambda n: st.sampled_from([n, -n]))


@given(wide_line, wide_line, wide_line, st.sampled_from(["distinct", "double", "triple"]), scale)
@example((0, 1), (0, 1), (2**100, 3), "double", Fraction(1))  # double line [0:1]: u1 = 0
@example((0, 1), (0, 1), (0, 1), "triple", Fraction(2, 3))  # triple line [0:1]
@example((0, 1), (1, 0), (2**600 + 1, -(3**400)), "distinct", Fraction(1))
def test_classify_of_line_products_matches_sympy(u, v, w, shape, c):
    lines = {"distinct": [u, v, w], "double": [u, u, v], "triple": [u, u, u]}[shape]
    r = line_product(*(_form(*x) for x in lines), scale=c)
    assert classify(r) is sympy_orbit(r)


@given(st.tuples(wide_cubic_entry, wide_cubic_entry, wide_cubic_entry, wide_cubic_entry), scale)
def test_classify_of_general_cubics_matches_sympy(coeffs, k):
    r = BinaryCubic(*coeffs).scale(k)
    assert classify(r) is sympy_orbit(r)
