"""Differential tests of the integer kernel.

Each exact-arithmetic routine that clears denominators and runs over Python
ints is compared with a plain Fraction body of the same formula, kept here
as the reference: at 1- to 1000-digit numerators and denominators, with zero
coefficients and non-integer entries. A singular group element must raise
the same exception with the same message on both sides. Integer polynomials
in q are compared with `fraction_reference.FractionPoly` at 64- to 2048-bit
entries, and their arithmetic must build no `linalg.Fraction`: `eval_q`
builds one, the value.
"""

import re
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from g2cubics import linalg, rootdata, verify
from g2cubics.conormal import moment, pairing, pairing_factored
from g2cubics.cubics import (
    BinaryCubic,
    DualCubic,
    GroupElement,
    Line,
    OrbitClass,
    SingularGroupElement,
    act,
    act_dual,
    act_matrix,
    classify,
    discriminant,
    divides,
    evaluate,
    hessian_quadratic,
)
from g2cubics.linalg import (
    Matrix,
    PoleAtPoint,
    Poly,
    RationalFunctionQ,
    common_denominator,
    eval_q,
    format_rational,
)
from g2cubics.verify import int_poly_gcd

from fraction_reference import FractionPoly, divide_by_form, fraction_substitute, from_plain
from fraction_reference import poly_mul as fraction_poly_mul

DIGITS = (1, 2, 20, 100, 1000)


@st.composite
def fractions(draw):
    """A Fraction with up to 1000-digit numerator and denominator; a sixth are 0."""
    if draw(st.integers(0, 5)) == 0:
        return Fraction(0)
    bound = 10 ** draw(st.sampled_from(DIGITS))
    return Fraction(draw(st.integers(-bound, bound)), draw(st.integers(1, bound)))


@st.composite
def line_products(draw):
    """A cubic c * l1 * l2 * l3 whose lines may coincide, so every orbit shows up."""
    lines = [[draw(fractions()), draw(fractions())] for _ in range(3)]
    pattern = draw(st.sampled_from(((0, 1, 2), (0, 0, 1), (0, 0, 0))))
    plain = [draw(fractions())]
    for i in pattern:
        plain = fraction_poly_mul(plain, lines[i])
    return (plain[0], -plain[1] / 3, -plain[2] / 3, -plain[3])


coefficients = st.one_of(st.tuples(*[fractions()] * 4), line_products())
cubics = coefficients.map(lambda c: BinaryCubic(*c))
duals = coefficients.map(lambda c: DualCubic(*c))
# a fifth of the elements are singular: rank one, or zero
singular = st.tuples(fractions(), fractions(), fractions()).map(
    lambda t: GroupElement(t[0], t[1], t[0] * t[2], t[1] * t[2])
)
elements = st.one_of(st.tuples(*[fractions()] * 4).map(lambda e: GroupElement(*e)), singular)


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# -- Fraction references --------------------------------------------------------


def fraction_det(h):
    return h.a * h.d - h.b * h.c


def fraction_require_invertible(h):
    if fraction_det(h) == 0:
        raise SingularGroupElement(f"{h} has determinant 0")


def fraction_to_plain(coeffs):
    r0, r1, r2, r3 = coeffs
    return [r0, -3 * r1, -3 * r2, -r3]


def fraction_act(h, r):
    fraction_require_invertible(h)
    dt = fraction_det(h)
    plain = fraction_substitute(fraction_to_plain(r.coeffs), h.a, h.b, h.c, h.d)
    return BinaryCubic(*from_plain(plain, dt))


def fraction_act_dual(h, s):
    fraction_require_invertible(h)
    dt = fraction_det(h)
    plain = fraction_substitute(fraction_to_plain(s.coeffs), h.d, -h.c, -h.b, h.a)
    return DualCubic(*from_plain(plain, dt**2))


def fraction_act_matrix(h):
    fraction_require_invertible(h)
    a, b, c, d = h.a, h.b, h.c, h.d
    dt = fraction_det(h)
    raw = [
        [d**3, -3 * c * d**2, -3 * c**2 * d, -(c**3)],
        [-b * d**2, d * (a * d + 2 * b * c), c * (2 * a * d + b * c), a * c**2],
        [-(b**2) * d, b * (2 * a * d + b * c), a * (a * d + 2 * b * c), a**2 * c],
        [-(b**3), 3 * a * b**2, 3 * a**2 * b, a**3],
    ]
    return Matrix.from_rows([[e / dt for e in row] for row in raw])


def fraction_inverse(h):
    fraction_require_invertible(h)
    dt = fraction_det(h)
    return GroupElement(h.d / dt, -h.b / dt, -h.c / dt, h.a / dt)


def fraction_hessian_quadratic(r):
    r0, r1, r2, r3 = r.coeffs
    return -9 * (r2 * r0 + r1 * r1), -9 * (r0 * r3 + r1 * r2), 9 * (r1 * r3 - r2 * r2)


def fraction_discriminant(r):
    d0, d1, d2 = fraction_hessian_quadratic(r)
    return d1 * d1 - 4 * d0 * d2


def fraction_classify(r):
    if r.is_zero():
        return OrbitClass.C0
    d0, d1, d2 = fraction_hessian_quadratic(r)
    if d0 == 0 and d1 == 0 and d2 == 0:
        return OrbitClass.C1
    if d1 * d1 - 4 * d0 * d2 == 0:
        return OrbitClass.C2
    return OrbitClass.C3


def fraction_pairing(r, s):
    r0, r1, r2, r3 = r.coeffs
    s0, s1, s2, s3 = s.coeffs
    return r0 * s0 + 3 * r1 * s1 + 3 * r2 * s2 + r3 * s3


def fraction_moment(r, s):
    r0, r1, r2, r3 = r.coeffs
    s0, s1, s2, s3 = s.coeffs
    return Matrix.from_rows(
        [
            [r0 * s0 + 2 * r1 * s1 + r2 * s2, -r1 * s0 + 2 * r2 * s1 + r3 * s2],
            [-r0 * s1 + 2 * r1 * s2 + r2 * s3, r1 * s1 + 2 * r2 * s2 + r3 * s3],
        ]
    )


def fraction_pairing_factored(r, v1, v2, v3, v4, v5, v6):
    r0, r1, r2, r3 = r.coeffs
    ryy = 6 * r0 * v3 - 6 * r1 * v4
    ryx = -6 * r1 * v3 - 6 * r2 * v4
    rxx = -6 * r2 * v3 - 6 * r3 * v4
    w1 = v1 * ryy + v2 * ryx
    w2 = v1 * ryx + v2 * rxx
    return (w1 * v5 + w2 * v6) / 6


def fraction_matmul(m, n):
    out = []
    for i in range(m.rows):
        for j in range(n.cols):
            out.append(sum((m[i, k] * n[k, j] for k in range(m.cols)), Fraction(0)))
    return Matrix(m.rows, n.cols, out)


def fraction_matvec(m, v):
    return [sum((m[i, k] * v[k] for k in range(m.cols)), Fraction(0)) for i in range(m.rows)]


def fraction_poly_divmod(a, b):
    """Quotient and remainder of the FractionPoly a by a nonzero b, by long
    division over Fractions."""
    num, den = list(a.coeffs), b.coeffs
    quotient = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = quotient[i] = num[i + len(den) - 1] / den[-1]
        if c != 0:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return FractionPoly(quotient), FractionPoly(num)


def fraction_poly_gcd(a, b):
    """Euclid over Fractions, made monic."""
    while b.coeffs:
        a, b = b, fraction_poly_divmod(a, b)[1]
    if not a.coeffs:
        return a
    lead = a.coeffs[-1]
    return FractionPoly([c / lead for c in a.coeffs])


def fraction_rational_function(num, den):
    """The canonical (num, den) integer coefficients of the FractionPolys
    num / den by the monic Fraction gcd, Fraction division and one common
    scale that clears denominators and content and makes den's leading
    coefficient positive."""
    if not num.coeffs:
        return (), (1,)
    g = fraction_poly_gcd(num, den)
    n, d = fraction_poly_divmod(num, g)[0].coeffs, fraction_poly_divmod(den, g)[0].coeffs
    ints = common_denominator(n + d)[0]
    k = gcd(*ints) if d[-1] > 0 else -gcd(*ints)
    ints = [c // k for c in ints]
    return tuple(ints[: len(n)]), tuple(ints[len(n) :])


def fraction_evaluate(r, x, y):
    r0, r1, r2, r3 = r.coeffs
    return r0 * y**3 - 3 * r1 * y**2 * x - 3 * r2 * y * x**2 - r3 * x**3


def fraction_divides(u, r):
    if r.is_zero():
        return 3
    p, mult = fraction_to_plain(r.coeffs), 0
    while mult < 3:
        p, exact = divide_by_form(p, u.u1, u.u2)
        if not exact:
            break
        mult += 1
    return mult


# -- cubics ---------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(elements, cubics, duals)
@example(GroupElement(1, 2, 2, 4), BinaryCubic(1, 0, 0, 0), DualCubic(0, 1, 0, 0))
@example(GroupElement(0, 0, 0, 0), BinaryCubic(0, 0, 0, 0), DualCubic(0, 0, 0, 0))
@example(
    GroupElement(Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2), Fraction(0)),
    BinaryCubic(0, Fraction(-1, 3), Fraction(-1, 3), 0),
    DualCubic(Fraction(1, 2), 0, 0, Fraction(-4, 9)),
)
def test_group_action_matches_fraction_reference(h, r, s):
    assert h.det() == fraction_det(h)
    assert outcome(act, h, r) == outcome(fraction_act, h, r)
    assert outcome(act_dual, h, s) == outcome(fraction_act_dual, h, s)
    assert outcome(act_matrix, h) == outcome(fraction_act_matrix, h)
    assert outcome(GroupElement.inverse, h) == outcome(fraction_inverse, h)


def test_singular_elements_raise_the_same_message():
    h = GroupElement(Fraction(1, 2), 1, 1, 2)
    message = re.escape(f"{h} has determinant 0")
    for fn, args in ((act, (h, BinaryCubic(1, 0, 0, 0))), (act_dual, (h, DualCubic(1, 0, 0, 0))),
                     (act_matrix, (h,)), (GroupElement.inverse, (h,))):
        with pytest.raises(SingularGroupElement, match=message):
            fn(*args)


@settings(max_examples=200, deadline=None)
@given(cubics)
@example(BinaryCubic(0, 0, 0, 0))
@example(BinaryCubic(Fraction(1, 7), 0, 0, 0))
@example(BinaryCubic(0, Fraction(-5, 3), 0, 0))
def test_invariants_match_fraction_reference(r):
    assert hessian_quadratic(r) == fraction_hessian_quadratic(r)
    assert discriminant(r) == fraction_discriminant(r)
    assert classify(r) is fraction_classify(r)
    assert classify(DualCubic(*r.coeffs)) is fraction_classify(r)


@st.composite
def divided_cubics(draw):
    """A line and a cubic that it divides at least k times, k = 0..3."""
    u1, u2 = draw(fractions()), draw(fractions())
    assume(u1 != 0 or u2 != 0)
    u, k = Line(u1, u2), draw(st.integers(0, 3))
    plain = [draw(fractions()) for _ in range(4 - k)]
    for _ in range(k):
        plain = fraction_poly_mul(plain, [u.u1, -u.u2])
    return u, BinaryCubic(*from_plain(plain))


@settings(max_examples=150, deadline=None)
@given(divided_cubics(), fractions(), fractions())
@example((Line(0, 1), BinaryCubic(0, 1, 0, 0)), Fraction(0), Fraction(1))
@example((Line(1, 0), BinaryCubic(0, 0, 0, 0)), Fraction(-2, 3), Fraction(5))
@example((Line(3, 2), BinaryCubic(8, -4, 2, -1)), Fraction(1, 2), Fraction(-7, 4))
def test_division_and_evaluation_match_fraction_reference(line_and_cubic, x, y):
    u, r = line_and_cubic
    assert divides(u, r) == fraction_divides(u, r)
    assert divides(u, DualCubic(*r.coeffs)) == fraction_divides(u, r)
    assert evaluate(r, x, y) == fraction_evaluate(r, x, y)
    assert evaluate(r, u.u1, u.u2) == fraction_evaluate(r, u.u1, u.u2)


def test_line_products_reach_every_orbit():
    # the strategy above must exercise the zero tests of classify
    seen = set()

    @settings(max_examples=100, deadline=None)
    @given(line_products())
    def record(coeffs):
        seen.add(fraction_classify(BinaryCubic(*coeffs)))

    record()
    assert seen == set(OrbitClass)


# -- conormal -------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(cubics, duals, st.tuples(*[fractions()] * 6))
def test_pairing_and_moment_match_fraction_reference(r, s, vs):
    assert pairing(r, s) == fraction_pairing(r, s)
    assert moment(r, s) == fraction_moment(r, s)
    assert moment(r, s).trace() == fraction_moment(r, s)[0, 0] + fraction_moment(r, s)[1, 1]
    assert pairing_factored(r, *vs) == fraction_pairing_factored(r, *vs)


# -- linalg ---------------------------------------------------------------------


@st.composite
def matrix_pairs(draw):
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    left = Matrix(n, k, [draw(fractions()) for _ in range(n * k)])
    right = Matrix(k, m, [draw(fractions()) for _ in range(k * m)])
    return left, right, [draw(fractions()) for _ in range(k)]


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_matrix_products_match_fraction_reference(pair):
    left, right, v = pair
    assert left @ right == fraction_matmul(left, right)
    assert left.matvec(v) == fraction_matvec(left, v)


def to_sympy(p: Poly, x):
    return sympy.Poly([sympy.Integer(c) for c in reversed(p.nums)] or [0], x)


@st.composite
def integers(draw):
    """An integer with up to 1000 digits; a sixth are 0."""
    if draw(st.integers(0, 5)) == 0:
        return 0
    bound = 10 ** draw(st.sampled_from(DIGITS))
    return draw(st.integers(-bound, bound))


@st.composite
def poly_pairs(draw):
    """Two integer polynomials sharing a random factor."""
    def poly(max_degree):
        return Poly(draw(st.lists(integers(), max_size=max_degree + 1)))

    common = poly(3)
    return common * poly(4), common * poly(4)


@settings(max_examples=100, deadline=None)
@given(poly_pairs())
@example((Poly(), Poly()))
@example((Poly([3]), Poly()))
@example((Poly(), Poly([-2, 5])))
@example((Poly([2]), Poly([0, 0, 7])))
@example((Poly([-1, 0, 1]), Poly([3, 6, 3])))
def test_poly_gcd_matches_sympy(pair):
    a, b = pair
    g = int_poly_gcd(list(a.nums), list(b.nums))
    got = FractionPoly([Fraction(c, g[-1]) for c in g])
    assert got.coeffs == fraction_poly_gcd(FractionPoly(a.nums), FractionPoly(b.nums)).coeffs
    x = sympy.Symbol("x")
    expected = sympy.gcd(to_sympy(a, x), to_sympy(b, x))
    if expected.is_zero:
        assert not got.coeffs
    else:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.monic().all_coeffs())]
        assert list(got.coeffs) == coeffs


@settings(max_examples=100, deadline=None)
@given(poly_pairs(), st.integers(-3, 3))
@example((Poly([0, 2, 4]), Poly([1, 0, 2])), 2)
@example((Poly([-6, 0, -3]), Poly([0, -2])), -1)
@example((Poly([0, 6, 12]), Poly([-3, -6])), 1)
@example((Poly(), Poly([-2, 5])), 0)
def test_rational_functions_match_fraction_reference(pair, n):
    num, den = pair
    assume(not den.is_zero())
    f = RationalFunctionQ(num, den)
    assert (f.num, f.den) == (num, den)  # kept as built
    reduced = RationalFunctionQ(
        *map(Poly, fraction_rational_function(FractionPoly(num.nums), FractionPoly(den.nums)))
    )
    assert f == reduced and reduced == f
    scale = Poly([-3, 0, 10**40])
    assert RationalFunctionQ(num * scale, den * scale) == f
    assert RationalFunctionQ(num + den, den) != f  # f + 1
    assume(n >= 0 or not f.num.is_zero())
    power = RationalFunctionQ(Poly.const(1), Poly.const(1))
    for _ in range(abs(n)):
        power = power * f if n > 0 else power / f
    assert f**n == power == reduced**n


# -- polynomials in q ------------------------------------------------------------


@st.composite
def wide_integers(draw):
    """An integer of up to 64, 256 or 2048 bits; a sixth are 0 and a sixth
    are small."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return 0
    if kind == 1:
        return draw(st.integers(-3, 3))
    bound = 1 << draw(st.sampled_from((64, 256, 2048)))
    return draw(st.integers(-bound, bound))


@st.composite
def wide_fractions(draw):
    """A Fraction with 64- to 2048-bit numerator and denominator; a sixth are 0
    and a sixth are small integers."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(draw(st.integers(-3, 3)))
    bound = 1 << draw(st.sampled_from((64, 256, 2048)))
    return Fraction(draw(st.integers(-bound, bound)), draw(st.integers(1, bound)))


wide_polys = st.lists(wide_integers(), max_size=5)
BIG = Fraction(2**2048 + 1, 3**600)


def assert_same(poly, reference):
    """poly has the reference's coefficients, every one a Python int."""
    assert poly.nums == reference.coeffs
    assert all(type(c) is int for c in poly.nums)


@settings(max_examples=60, deadline=None)
@given(wide_polys, wide_polys, st.integers(0, 4), wide_fractions())
@example([], [], 0, Fraction(0))
@example([], [2], 3, BIG)
@example([5], [-5], 4, BIG)
@example([1, 0, -7 * 2**64], [-1, 3 * 2**64], 3, Fraction(0))
def test_poly_operations_match_fraction_reference(p, q, n, x):
    a, b, fa, fb = Poly(p), Poly(q), FractionPoly(p), FractionPoly(q)
    assert_same(a + b, fa + fb)
    assert_same(a - b, fa - fb)
    assert_same(a * b, fa * fb)
    assert_same(b * a, fb * fa)
    assert_same(a**n, fa**n)
    value, bpow = a._value(x.numerator, x.denominator)
    assert Fraction(value, bpow) == fa(x) and b._value(x.numerator, 1) == (fb(x.numerator), 1)


@settings(max_examples=80, deadline=None)
@given(wide_polys, wide_polys, wide_fractions())
@example([], [1], Fraction(0))
@example([4], [-9], BIG)
@example([0, 1], [3 * 2**64, 0, -1], Fraction(0))
@example([1], [-2, 1], Fraction(2))
@example([-2, 1], [-4, 0, 1], Fraction(2))
@example([-2, 1], [-4, 0, 1], Fraction(-2))
def test_eval_q_matches_fraction_reference(p, q, x):
    assume(any(q))
    f = RationalFunctionQ(Poly(p), Poly(q))
    num, den = FractionPoly(f.num.nums), FractionPoly(f.den.nums)
    if den(x) == 0:
        with pytest.raises(PoleAtPoint, match=re.escape(f"q = {format_rational(x)}")):
            eval_q(f, x)
        return
    value = num(x) / den(x)
    assert eval_q(f, x) == eval_q(f, format_rational(x)) == value
    if x.denominator == 1:
        assert eval_q(f, x.numerator) == value


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-(2**2048), 2**2048) | st.just(0), max_size=5),
    st.integers(0, 3),
    st.integers(-(2**2048), 2**2048).filter(bool),
    st.integers(-(2**64), 2**64).filter(bool),
)
def test_integer_form_is_unique(nums, zeros, den, k):
    p = Poly(nums + [0] * zeros)
    assert p.nums == FractionPoly(nums).coeffs and p == Poly(nums) and hash(p) == hash(Poly(nums))
    # nums / den equals its lowest-terms pair, whatever common scale k it was given in
    f = RationalFunctionQ(p, Poly.const(den))
    assert (f.num.nums, f.den.nums) == (p.nums, (den,))
    reduced_num, (d,) = fraction_rational_function(FractionPoly(nums), FractionPoly([den]))
    assert [Fraction(c, d) for c in reduced_num] == [Fraction(n, den) for n in p.nums]
    reduced = RationalFunctionQ(Poly(reduced_num), Poly.const(d))
    scaled = RationalFunctionQ(Poly([k * n for n in nums]), Poly.const(k * den))
    assert scaled == f == reduced
    if not p.is_zero():
        assert scaled**-1 == f**-1 == reduced**-1
        assert RationalFunctionQ(p, Poly.const(2 * den)) != f
    with pytest.raises(TypeError):
        hash(f)  # no canonical form, so no hash


def _counting_fraction():
    """A stand-in for `linalg.Fraction` that records each construction and
    answers isinstance checks as Fraction does."""
    built = []

    class Counted(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, Fraction)

        def __call__(cls, *args):
            built.append(args)
            return Fraction(*args)

    return Counted("Fraction", (), {}), built


def test_q_arithmetic_builds_no_fraction_until_read():
    p = Poly([21, 0, -5 * 2**70])
    stand_in, built = _counting_fraction()
    with mock.patch.object(linalg, "Fraction", stand_in):
        q, one = Poly.q(), Poly.const(1)
        f = RationalFunctionQ(p * q**3 - one, Poly.const(6) * (q + one) ** 2)
        g = f * RationalFunctionQ(q + p, one) / RationalFunctionQ(p - q, q**2) * f**-2
        assert g == g * RationalFunctionQ(one, one) and g != f
        assert verify.check_gamma_from_l_factor() is None
        assert verify.check_formal_degree_simplification() is None
        assert rootdata.adjoint_gamma_data.__wrapped__() == rootdata.adjoint_gamma_data()
        assert built == []
        assert all(type(c) is int for c in g.num.nums + g.den.nums)
        # eval_q builds one Fraction, the value
        for q0 in (0, 7, Fraction(-7, 3), BIG):
            value = eval_q(g, q0)
            assert len(built) == 1
            assert value == FractionPoly(g.num.nums)(q0) / FractionPoly(g.den.nums)(q0)
            built.clear()


def test_formal_degree_data_is_unchanged():
    # (numerator, denominator) coefficients as built, lowest degree first
    built = {
        "gamma0": ((0,) * 9 + (1,), (1, 3, 4, 3, 1)),
        "dim_sigma": ((0, 1, 0, -1, 0, 0, 0, -1, 0, 1), (6, 18, 24, 18, 6)),
    }
    # and the lowest-terms pairs they equal: dim sigma is q (q-1)^2 (q^2-q+1) / 6
    reduced = {
        "gamma0": built["gamma0"],
        "dim_sigma": ((0, 1, -3, 4, -3, 1), (6,)),
    }
    data = rootdata.adjoint_gamma_data.__wrapped__()
    for name, (num, den) in built.items():
        f = getattr(data, name)
        assert (f.num.nums, f.den.nums) == (num, den)
        assert fraction_rational_function(FractionPoly(num), FractionPoly(den)) == reduced[name]
        pair = RationalFunctionQ(*map(Poly, reduced[name]))
        scaled = RationalFunctionQ(f.num * Poly([-7, 2]), f.den * Poly([-7, 2]))
        assert f == pair == scaled and f**3 == pair**3 and f**-2 == pair**-2
        assert f != pair * RationalFunctionQ(Poly([2]), Poly([1]))
    simplified = rootdata.dim_sigma_simplified()
    assert (simplified.num.nums, simplified.den.nums) == reduced["dim_sigma"]
    q, one = Poly.q(), Poly.const(1)
    num, den = Poly([0, 6, 12]) * (q + one), Poly([-3, 0, -6]) * (q + one)
    reference = fraction_rational_function(FractionPoly(num.nums), FractionPoly(den.nums))
    assert reference == ((0, -2, -4), (1, 0, 2))
    assert RationalFunctionQ(num, den) == RationalFunctionQ(*map(Poly, reference))
