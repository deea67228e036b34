import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from g2cubics.cubics import (
    _P,
    _substitute,
    BinaryCubic,
    DualCubic,
    GroupElement,
    Line,
    OrbitClass,
    REPRESENTATIVES,
    SingularGroupElement,
    ZeroCubic,
    act,
    act_dual,
    act_matrix,
    classify,
    discriminant,
    divides,
    evaluate,
    hessian_quadratic,
    rational_lines,
    to_plain,
)
from g2cubics.linalg import Matrix, common_denominator

from fraction_reference import divide_by_form, fraction_substitute, line_cubic


def rng_cubic(rng, span=4):
    return BinaryCubic(*(Fraction(rng.randint(-span, span)) for _ in range(4)))


def rng_element(rng, span=4):
    while True:
        h = GroupElement(*(Fraction(rng.randint(-span, span)) for _ in range(4)))
        if h.det() != 0:
            return h


XY_X_PLUS_Y = BinaryCubic(0, Fraction(-1, 3), Fraction(-1, 3), 0)  # xy(x+y)


def test_evaluate_examples():
    assert evaluate(BinaryCubic(0, 0, 0, 0), 5, -7) == 0
    assert evaluate(BinaryCubic(1, 0, 0, 0), 2, 3) == 27
    assert evaluate(BinaryCubic(1, 0, 1, 0), 1, 1) == -2


def test_act_identity_and_scalars():
    rng = random.Random(1)
    for _ in range(20):
        r = rng_cubic(rng)
        assert act(GroupElement.identity(), r) == r
        a = Fraction(rng.randint(1, 5))
        assert act(GroupElement.diagonal(a, a), r) == r.scale(a)


def test_act_fixes_split_cubic_under_line_swap():
    h = GroupElement(0, -1, -1, 0)
    assert act(h, XY_X_PLUS_Y) == XY_X_PLUS_Y


def test_act_rejects_singular_elements():
    with pytest.raises(SingularGroupElement):
        act(GroupElement(1, 2, 2, 4), BinaryCubic(1, 0, 0, 0))
    with pytest.raises(SingularGroupElement):
        act_matrix(GroupElement(0, 0, 0, 0))


def test_act_matrix_identity_and_diagonal():
    identity = Matrix(4, 4, [int(i == j) for i in range(4) for j in range(4)])
    assert act_matrix(GroupElement.identity()) == identity
    a, d = Fraction(3), Fraction(5)
    expected = Matrix.from_rows(
        [
            [d * d / a, 0, 0, 0],
            [0, d, 0, 0],
            [0, 0, a, 0],
            [0, 0, 0, a * a / d],
        ]
    )
    assert act_matrix(GroupElement.diagonal(a, d)) == expected


def test_act_matrix_agrees_with_substitution():
    rng = random.Random(2)
    for _ in range(20):
        h, r = rng_element(rng), rng_cubic(rng)
        assert act_matrix(h).matvec(list(r.coeffs)) == list(act(h, r).coeffs)


def test_act_matrix_is_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        h1, h2 = rng_element(rng), rng_element(rng)
        assert act_matrix(h1 * h2) == act_matrix(h1) @ act_matrix(h2)


def test_integer_substitution_matches_fraction_expansion():
    rng = random.Random(9)

    def entry(digits):
        num = rng.randint(-(10**digits), 10**digits)
        return Fraction(num, rng.choice([1, 1, 3, rng.randint(1, 10**digits)]))

    for digits in [1] * 100 + [20] * 20 + [100] * 10 + [1000] * 5:
        h = GroupElement(*(entry(digits) for _ in range(4)))
        plain = [entry(digits) for _ in range(4)]
        if rng.random() < 0.2:
            plain[rng.randrange(4)] = Fraction(0)
        # the integer expansion of P((x, y) H) for p = P / pden, h = H / hden
        # carries pden * hden^3
        nums, pden = common_denominator(plain)
        a, b, c, d, hden, _ = h.integer_entries()
        got = [Fraction(v, pden * hden**3) for v in _substitute(nums, a, b, c, d)]
        assert got == fraction_substitute(plain, h.a, h.b, h.c, h.d)


# four integers of 64 to 2048 bits, either sign, or zero
_wide_ints = st.lists(
    st.integers(64, 2048).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)) | st.just(0),
    min_size=4,
    max_size=4,
)


@settings(max_examples=200)
@given(_wide_ints, _wide_ints)
def test_cubic_substitution_matches_fraction_expansion_at_wide_entries(plain, h):
    # the unrolled cubic Horner steps agree with the term-by-term expansion
    expected = fraction_substitute([Fraction(p) for p in plain], *map(Fraction, h))
    assert _substitute(plain, *h) == expected


def test_act_dual_identity_and_scalars():
    rng = random.Random(4)
    s = DualCubic(1, -2, 3, Fraction(1, 2))
    assert act_dual(GroupElement.identity(), s) == s
    for _ in range(10):
        a = Fraction(rng.randint(1, 6))
        assert act_dual(GroupElement.diagonal(a, a), s) == s.scale(1 / a)


def test_hessian_examples():
    assert hessian_quadratic(BinaryCubic(0, 0, 0, 0)) == (0, 0, 0)
    assert hessian_quadratic(BinaryCubic(1, 0, 0, 0)) == (0, 0, 0)
    assert hessian_quadratic(BinaryCubic(1, 0, 1, 0)) == (-9, 0, -9)


def test_discriminant_examples():
    assert discriminant(BinaryCubic(0, 1, 0, 0)) == 0
    assert discriminant(BinaryCubic(1, 0, 1, 0)) == -324
    assert discriminant(BinaryCubic(1, 0, 0, 0)) == 0
    assert discriminant(XY_X_PLUS_Y) == -3


def test_classify_representatives():
    assert classify(BinaryCubic(0, 0, 0, 0)) is OrbitClass.C0
    assert classify(BinaryCubic(1, 0, 0, 0)) is OrbitClass.C1
    assert classify(BinaryCubic(0, 1, 0, 0)) is OrbitClass.C2
    assert classify(BinaryCubic(1, 0, 1, 0)) is OrbitClass.C3


def test_classify_is_action_invariant():
    rng = random.Random(5)
    for _ in range(300):
        r, h = rng_cubic(rng), rng_element(rng)
        assert classify(act(h, r)) is classify(r)


def _exact_orbit(r):
    """The orbit read off the exact invariants, without `classify`."""
    if r.is_zero():
        return OrbitClass.C0
    if not any(hessian_quadratic(r)):
        return OrbitClass.C1
    return OrbitClass.C2 if discriminant(r) == 0 else OrbitClass.C3


def _big_line(rng):
    return rng.randint(10**333, 10**334), rng.choice([-1, 1]) * rng.randint(10**333, 10**334)


def _fallback_cubics():
    """Cubics whose discriminant the residue prime _P divides, with their orbits."""
    rng = random.Random(17)
    g = GroupElement(10**333 + 1, -(7**400), Fraction(3**700, 11), 2**1100)  # 1000-digit frame
    cases = []
    for k in (1, 2):  # x y (P^k y - x): lines [0:1], [1:0], [1:1/P^k]
        r = BinaryCubic(0, Fraction(-(_P**k), 3), Fraction(1, 3), 0)
        cases += [(r, OrbitClass.C3), (act(g, r), OrbitClass.C3)]
    for _ in range(3):  # line products at 1000 digits
        u, v = _big_line(rng), _big_line(rng)
        cases += [(line_cubic(u, u, u), OrbitClass.C1), (line_cubic(u, u, v), OrbitClass.C2)]
    cases += [(line_cubic((0, 1), (0, 1), _big_line(rng)), OrbitClass.C2),
              (line_cubic((0, 1), (0, 1), (0, 1)), OrbitClass.C1)]
    return cases


def test_classify_decides_on_the_exact_invariants_when_the_residue_vanishes():
    for r, orbit in _fallback_cubics():
        assert discriminant(r).numerator % _P == 0
        fresh = BinaryCubic(*r.coeffs)
        assert classify(fresh) is orbit is _exact_orbit(r)


def test_classify_agrees_with_the_exact_invariants_at_1000_digits():
    rng = random.Random(18)
    for _ in range(20):
        r = BinaryCubic(*(Fraction(rng.randint(-10**1000, 10**1000), rng.randint(1, 10**20)) for _ in range(4)))
        u, v, w = (_big_line(rng) for _ in range(3))
        for cubic in (r, line_cubic(u, v, w)):
            assert discriminant(cubic).numerator % _P != 0
            assert classify(cubic) is OrbitClass.C3 is _exact_orbit(cubic)


def test_the_prime_case_splits_into_its_three_lines():
    r = BinaryCubic(0, Fraction(-_P, 3), Fraction(1, 3), 0)
    assert rational_lines(r) == ([(Line(0, 1), 1), (Line(1, 0), 1), (Line(1, Fraction(1, _P)), 1)], 0)


def test_discriminant_equivariance_power_is_two():
    # the twisted-action discriminant picks up det(h)^2; the exponent was
    # pinned against scalar elements (a^4 = det^2) and diag(t, 1)
    rng = random.Random(6)
    for _ in range(100):
        r, h = rng_cubic(rng), rng_element(rng)
        assert discriminant(act(h, r)) == h.det() ** 2 * discriminant(r)
    t = Fraction(7)
    r = BinaryCubic(1, 0, 1, 0)
    assert discriminant(act(GroupElement.diagonal(t, 1), r)) == t**2 * discriminant(r)


def test_divides_examples():
    assert divides(Line(1, 0), BinaryCubic(1, 0, 0, 0)) == 3
    assert divides(Line(0, 1), BinaryCubic(0, 1, 0, 0)) == 1
    assert divides(Line(1, 1), BinaryCubic(1, 0, 1, 0)) == 0
    assert divides(Line(1, 0), BinaryCubic(0, 0, 0, 0)) == 3  # convention


def test_divides_matches_root_evaluation():
    # the form u1*y - u2*x vanishes at (x, y) = (u1, u2)
    rng = random.Random(7)
    for _ in range(300):
        r = rng_cubic(rng)
        if r.is_zero():
            continue
        u1, u2 = rng.randint(0, 3), rng.randint(-3, 3)
        if (u1, u2) == (0, 0):
            u1 = 1
        u = Line(u1, u2)
        assert (divides(u, r) >= 1) == (evaluate(r, u.u1, u.u2) == 0)


def test_multiplicity_structure_examples():
    assert classify(BinaryCubic(0, 0, 0, 0)).structure == "zero"
    assert classify(BinaryCubic(1, 0, 0, 0)).structure == "triple_line"
    assert classify(BinaryCubic(0, 1, 0, 0)).structure == "double_plus_simple"
    assert classify(XY_X_PLUS_Y).structure == "three_distinct"
    assert classify(DualCubic(0, 0, 0, 1)).structure == "triple_line"


def test_rational_lines_of_triple_line():
    lines, residual = rational_lines(BinaryCubic(1, 0, 0, 0))
    assert lines == [(Line(1, 0), 3)]
    assert residual == 0


def test_rational_lines_of_split_cubic():
    lines, residual = rational_lines(XY_X_PLUS_Y)
    assert residual == 0
    assert sorted(m for _, m in lines) == [1, 1, 1]
    assert {u for u, _ in lines} == {Line(1, 0), Line(0, 1), Line(1, -1)}


def test_rational_lines_with_residual_quadratic():
    lines, residual = rational_lines(BinaryCubic(1, 0, 1, 0))
    assert lines == [(Line(1, 0), 1)]
    assert residual == 2


def test_rational_lines_rejects_zero():
    with pytest.raises(ZeroCubic):
        rational_lines(BinaryCubic(0, 0, 0, 0))


def test_rational_lines_reconstruct_the_cubic():
    rng = random.Random(8)
    for _ in range(100):
        r = rng_cubic(rng)
        if r.is_zero():
            continue
        lines, residual = rational_lines(r)
        assert sum(m for _, m in lines) + residual == 3
        # multiply the found factors back and divide out
        plain = to_plain(r.coeffs)
        for u, m in lines:
            for _ in range(m):
                plain, exact = divide_by_form(plain, u.u1, u.u2)
                assert exact
        if residual == 0:
            assert len(plain) == 1 and plain[0] != 0


def test_line_normalization_and_perp():
    assert Line(2, 4) == Line(1, 2)
    assert Line(0, -5) == Line(0, 1)
    u = Line(1, 2)
    v = u.perp()
    assert u.u1 * v.u1 + u.u2 * v.u2 == 0


def test_json_encoding():
    r = BinaryCubic(1, Fraction(-1, 3), 0, 2)
    assert r.to_json() == ["1", "-1/3", "0", "2"]
    assert Line(1, Fraction(1, 2)).to_json() == ["1", "1/2"]


def test_representatives_table():
    for orbit, rep in REPRESENTATIVES.items():
        assert classify(rep) is orbit


# -- the integer form -------------------------------------------------------------


@st.composite
def fractions(draw):
    """A Fraction with 1- to 1000-digit parts, of either sign; a sixth are 0
    and half the others have denominator 1."""
    if draw(st.integers(0, 5)) == 0:
        return Fraction(0)
    bound = 10 ** draw(st.sampled_from((1, 2, 20, 100, 1000)))
    den = 1 if draw(st.booleans()) else draw(st.integers(1, bound))
    return Fraction(draw(st.integers(-bound, bound)), den)


vectors = st.tuples(*[fractions()] * 4)
ZERO = (0, 0, 0, 0)


@settings(max_examples=150, deadline=None)
@given(vectors)
@example(ZERO)
@example((-3, 6, 0, -9))
@example((Fraction(-1, 6), Fraction(5, 4), 0, Fraction(-7, 10)))
def test_integer_form_is_the_cleared_coefficients(coeffs):
    for cls in (BinaryCubic, DualCubic):
        v = cls(*coeffs)
        nums, den = v.integers()
        assert (list(nums), den) == common_denominator(v.coeffs)
        assert den > 0 and gcd(den, *nums) == 1


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[fractions()] * 4), vectors, vectors)
@example((0, 1, 1, 0), ZERO, ZERO)  # det -1
@example((Fraction(-1, 2), 0, 0, 3), (2, -4, 6, 8), (-3, 0, 9, 6))
@example((1, 0, 0, 1), (Fraction(1, 3), Fraction(-2, 3), 1, 0), (Fraction(-5, 7), 0, 0, 1))
def test_action_results_are_in_the_unique_integer_form(entries, r, s):
    h = GroupElement(*entries)
    assume(h.det() != 0)
    for out in (act(h, BinaryCubic(*r)), act_dual(h, DualCubic(*s))):
        nums, den = out.integers()
        assert den > 0 and gcd(den, *nums) == 1
        rebuilt = type(out)(*out.coeffs)
        assert out.integers() == rebuilt.integers()
        assert out == rebuilt and rebuilt == out
        assert hash(out) == hash(rebuilt)
        assert out.to_json() == rebuilt.to_json()


def test_hash_reads_the_integer_form_and_builds_no_fraction():
    v = BinaryCubic._from_integers((1, 2, 3, 4), 5)
    assert v._coeffs is None
    h = hash(v)
    assert v._coeffs is None
    # equal vectors hash alike, whichever form they were built from
    assert h == hash(BinaryCubic(*(Fraction(n, 5) for n in (1, 2, 3, 4))))
    g = GroupElement._from_integers((2, 0, 0, 2), 4)
    assert len({g, GroupElement(Fraction(1, 2), 0, 0, Fraction(1, 2))}) == 1
    assert g._coeffs is None
