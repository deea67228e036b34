import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2cubics import linalg
from g2cubics.linalg import (
    Matrix,
    Poly,
    PoleAtPoint,
    RationalFunctionQ,
    eval_q,
    format_rational,
    kernel_basis,
    parse_rational,
    rank,
    solve,
)

from fraction_reference import FractionPoly


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(Matrix.from_rows([[1, 0], [0, 1]])) == []


def test_kernel_of_zero_map_is_standard_basis():
    basis = kernel_basis(Matrix(2, 4, [0] * 8))
    assert len(basis) == 4
    for j, v in enumerate(basis):
        assert v == [Fraction(int(i == j)) for i in range(4)]


def _dense_rref(rows):
    """Dense Gauss-Jordan: every pivot row divided and every row with a
    nonzero in the pivot column updated in all columns.  The reference that
    the zero-skipping `linalg._rref` must match exactly."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _hand_gaussian_kernel(rows):
    """Independent elimination oracle, written without the library routines."""
    m, pivots = _dense_rref(rows)
    ncols = len(m[0])
    basis = []
    for free in [c for c in range(ncols) if c not in pivots]:
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -m[row_idx][free]
        basis.append(v)
    return basis


def test_kernel_matches_hand_elimination():
    rows = [[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    m = Matrix.from_rows(rows)
    got = kernel_basis(m)
    assert got == _hand_gaussian_kernel(rows)
    e3 = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
    e4 = [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    assert got == [e3, e4]


def test_kernel_vectors_are_annihilated():
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(1, 4))]
        m = Matrix.from_rows(rows)
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.matvec(v))
        assert len(kernel_basis(m)) == m.cols - rank(m)


def test_solve_consistent_and_inconsistent():
    m = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert solve(m, [1, 2, 3]) == [Fraction(1), Fraction(2)]
    assert solve(m, [1, 2, 4]) is None


def test_rational_serialization_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        x = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        assert parse_rational(format_rational(x)) == x
    assert format_rational(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_rational("1.5")


@settings(max_examples=60)
@given(
    st.integers(1, 20_000),
    st.integers(1, 20_000),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@example(4300, 1, False, random.Random(0))
@example(4301, 4301, True, random.Random(0))
@example(20_000, 8601, True, random.Random(1))
def test_rational_round_trip_at_any_size(num_digits, den_digits, negative, rnd):
    # the reference is `decimal`, whose int conversions have no digit limit
    num = rnd.randrange(10 ** (num_digits - 1), 10**num_digits)
    den = rnd.randrange(10 ** (den_digits - 1), 10**den_digits)
    x = Fraction(-num if negative else num, den)
    text = format_rational(x)
    reference = ("-" if negative else "") + str(Decimal(abs(x.numerator)))
    if x.denominator != 1:
        reference += "/" + str(Decimal(x.denominator))
    assert text == reference
    assert parse_rational(text) == x
    signed = f"{'-' if negative else '+'}{Decimal(num)}"
    assert parse_rational(f" {signed}/{Decimal(den)} ") == x
    with pytest.raises(ZeroDivisionError) as caught:
        parse_rational(f"{signed}/0")
    assert str(caught.value) == f"Fraction({'-' if negative else ''}{Decimal(num)}, 0)"


def test_parse_rational_grammar():
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert parse_rational("+7") == 7
    for bad in ["1_0", "1/2/3", "3/-4", "1e3", "", "-", "0x10"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_eval_q_examples():
    q, one = Poly.q(), Poly.const(1)
    assert eval_q(RationalFunctionQ(q, one), 7) == 7
    gamma = RationalFunctionQ(q**9, (q + one) ** 2 * (q**2 + q + one))
    assert eval_q(gamma, 2) == Fraction(512, 63)
    assert eval_q(gamma, "-1/2") == Fraction(-1, 96)
    with pytest.raises(PoleAtPoint):
        eval_q(RationalFunctionQ(one, q - one), 1)


def test_rational_function_canonical_form():
    # num and den are kept as built; == cross-multiplies, so each quotient
    # equals its lowest-terms pair (the FractionPoly reference's cross
    # products agree), a scaled copy and its powers, and no other value
    q = Poly.q()
    one = Poly.const(1)
    f = RationalFunctionQ(q**2 - one, q - one)
    assert (f.num.nums, f.den.nums) == ((-1, 0, 1), (-1, 1))
    g = RationalFunctionQ(Poly([0, 4]), Poly([0, -6]))
    assert (g.num.nums, g.den.nums) == ((0, 4), (0, -6))
    h = RationalFunctionQ(Poly([-1, 0, 1]), Poly.const(2))
    assert (h.num.nums, h.den.nums) == ((-1, 0, 1), (2,))
    zero = RationalFunctionQ(Poly(), q - one)
    assert (zero.num.nums, zero.den.nums) == ((), (-1, 1))
    # each with its lowest-terms pair: a positive leading coefficient in den
    # and no common integer content
    cases = [
        (f, (1, 1), (1,)),
        (g, (-2,), (3,)),
        (h, (-1, 0, 1), (2,)),
        (zero, (), (1,)),
    ]
    scale = Poly([5, 0, -3])
    for r, num, den in cases:
        reduced = RationalFunctionQ(Poly(num), Poly(den))
        left = FractionPoly(r.num.nums) * FractionPoly(den)
        assert left.coeffs == (FractionPoly(num) * FractionPoly(r.den.nums)).coeffs
        assert r == reduced == RationalFunctionQ(r.num * scale, r.den * scale)
        assert r**3 == reduced**3 and r**0 == RationalFunctionQ(one, one)
        if num:
            assert r**-2 == reduced**-2
        assert r != RationalFunctionQ(Poly(num) + Poly(den), Poly(den))  # r + 1
    assert g != RationalFunctionQ(Poly([2]), Poly([3]))
    with pytest.raises(ZeroDivisionError):
        RationalFunctionQ(one, Poly([0, 0]))
    with pytest.raises(TypeError):
        hash(f)


def test_negative_power_raises_on_poly_and_inverts_a_rational_function():
    q = Poly.q()
    for base in (q, Poly()):
        with pytest.raises(ValueError, match="negative Poly exponent -1"):
            base**-1
    assert RationalFunctionQ(q, Poly.const(1)) ** -2 == RationalFunctionQ(Poly.const(1), q**2)


@st.composite
def _systems(draw):
    """A 1x1 to 7x8 matrix of one entry size (1 to 1000 digits), with zero,
    integer and non-integer entries, and a right-hand side.  Some rows are
    zero or combinations of earlier rows and some columns are zero, so many
    matrices are rank-deficient."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    bound = 10 ** draw(st.sampled_from([1, 2, 20, 100, 1000]))
    ints = st.integers(-bound, bound)
    entry = st.one_of(st.just(0), ints, st.builds(Fraction, ints, st.integers(1, bound)))
    rows = []
    for i in range(nrows):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            rows.append([Fraction(0)] * ncols)
        elif kind == 1 and i >= 2:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows.append([a * x + b * y for x, y in zip(rows[j], rows[k])])
        else:
            rows.append([Fraction(draw(entry)) for _ in range(ncols)])
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = Fraction(0)
    rhs = draw(st.lists(st.integers(-9, 9), min_size=nrows, max_size=nrows))
    return rows, rhs


@st.composite
def _full_column_rank_systems(draw):
    """A square or tall matrix of full column rank, with entries of one size
    (1 to 1000 digits), and a right-hand side: an upper triangular block
    with a nonzero diagonal and up to three more rows, mixed by invertible
    row operations and shuffled."""
    ncols = draw(st.integers(1, 6))
    bound = 10 ** draw(st.sampled_from([1, 2, 20, 100, 1000]))
    ints = st.integers(-bound, bound)
    entry = st.builds(Fraction, ints, st.integers(1, bound))
    nonzero = st.builds(Fraction, ints.filter(bool), st.integers(1, bound))
    rows = [
        [Fraction(0)] * c + [draw(nonzero)] + [draw(entry) for _ in range(c + 1, ncols)]
        for c in range(ncols)
    ]
    rows += [[draw(entry) for _ in range(ncols)] for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2 * ncols))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a = draw(st.integers(-3, 3))
        if i != j:
            rows[i] = [x + a * y for x, y in zip(rows[i], rows[j])]
    rows = draw(st.permutations(rows))
    rhs = draw(st.lists(st.integers(-9, 9), min_size=len(rows), max_size=len(rows)))
    return rows, rhs


def _random_system(nrows, ncols, digits):
    rng = random.Random(5)
    bound = 10**digits
    rows = [
        [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return rows, [rng.randint(-9, 9) for _ in range(nrows)]


def _results(m, b):
    return {"rank": rank(m), "solve": solve(m, b)}


@settings(max_examples=150)
@given(st.one_of(_systems(), _full_column_rank_systems()))
@example(([[Fraction(0)]], [1]))
@example(_random_system(7, 8, 1))
@example(_random_system(3, 4, 1000))
@example(_random_system(4, 3, 1000))
@example(([[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]], [1, 2]))
def test_zero_skipping_rref_matches_dense_elimination(system):
    # the kernel is compared with the hand oracle, not with the library
    # under a patched `_rref`
    rows, b = system
    assert linalg._rref(rows) == _dense_rref(rows)
    m = Matrix.from_rows(rows)
    assert kernel_basis(m) == _hand_gaussian_kernel(rows)
    got = _results(m, b)
    with mock.patch.object(linalg, "_rref", _dense_rref):
        assert got == _results(m, b)
