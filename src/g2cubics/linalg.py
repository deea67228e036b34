"""Exact rational scalars, small dense matrices and rational functions in q.

Every answer is exact; there is no floating point anywhere.  Matrix entries
are `fractions.Fraction`s, cleared to integer numerators over one common
denominator where a formula runs over Python ints.  Polynomials in q have
integer coefficients, and a rational function in q is a ratio of two of them
kept as built, with no common factor cancelled; two ratios are compared by
cross-multiplication.  The formal-degree data are such ratios, so
q-arithmetic runs over Python ints and only `eval_q` builds a Fraction, its
value.
Matrices are small (the largest is the 21x18 stalk system) so
Gauss-Jordan elimination with exact pivoting is all we need.  Elimination
skips zeros: it updates only the rows with a nonzero entry in the pivot
column, and in them only the pivot row's nonzero columns, so the sparse
stalk system costs a fraction of a dense elimination.  `solve` and `rank`
serve the stalk system and the standard-module expansion; `kernel_basis`
shares their elimination but only `verify`'s oracles call it.  No inverse
is needed anywhere: an invertibility test is `rank(m) == m.rows`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Iterable, Sequence


class PoleAtPoint(ZeroDivisionError):
    """Raised when evaluating a rational function at a pole."""


def rational(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the Fractions `values` over their least common
    denominator: value i equals nums[i] / den.

    The exact-arithmetic kernels clear denominators with this once, run
    their formula over Python ints and build one Fraction per output.
    """
    den = lcm(*[v.denominator for v in values])
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


_RATIONAL = re.compile(r"\s*([+-]?)([0-9]+)(?:/([0-9]+))?\s*")

# CPython caps int <-> decimal string conversion at this many digits (0: no
# cap); the two helpers below split longer numbers by powers of ten, so every
# size converts, without changing the process-wide setting
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _str_to_int(digits: str) -> int:
    limit = _max_str_digits()
    if not limit or len(digits) <= limit:
        return int(digits)
    k = len(digits) // 2
    return _str_to_int(digits[:-k]) * 10**k + _str_to_int(digits[-k:])


def _int_to_str(n: int) -> str:
    limit = _max_str_digits()
    if not limit or n.bit_length() <= 3 * limit:  # then n has under 0.91 * limit digits
        return str(n)
    if n < 0:
        return "-" + _int_to_str(-n)
    k = n.bit_length() // 7  # about half of n's digits
    high, low = divmod(n, 10**k)
    return _int_to_str(high) + _int_to_str(low).zfill(k)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' (or plain 'p') with optional sign; no float syntax.

    The grammar is [+-]?digits(/digits)? with surrounding whitespace; any
    other string, such as '1_0' or '1/2/3', raises ValueError. Numbers of
    any length are read exactly.
    """
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not an exact rational: {text!r}")
    sign, num, den = match.groups()
    num = -_str_to_int(num) if sign == "-" else _str_to_int(num)
    den = _str_to_int(den or "1")
    if den == 0:  # Fraction's own message would print num with str()
        raise ZeroDivisionError(f"Fraction({_int_to_str(num)}, 0)")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    """Render as 'p/q', or 'p' when the denominator is 1; any size is exact."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    num = _int_to_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_to_str(x.denominator)}"


class Matrix:
    """Immutable dense matrix with Fraction entries, row-major."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(rational(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._entries = entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, flat)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        # each row of self and each column of other over its own denominator,
        # so one large denominator does not inflate every product
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        rows = [common_denominator(self.row(i)) for i in range(self.rows)]
        cols = [common_denominator(other._entries[j :: other.cols]) for j in range(other.cols)]
        out = []
        for ri, rden in rows:
            for cj, cden in cols:
                out.append(Fraction(sum(x * y for x, y in zip(ri, cj)), rden * cden))
        return Matrix(self.rows, other.cols, out)

    def matvec(self, v: Sequence) -> list[Fraction]:
        v = [rational(x) for x in v]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        vn, vden = common_denominator(v)
        out = []
        for i in range(self.rows):
            ri, rden = common_denominator(self.row(i))
            out.append(Fraction(sum(x * y for x, y in zip(ri, vn)), rden * vden))
        return out

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols, self.rows, [self[i, j] for j in range(self.cols) for i in range(self.rows)]
        )

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        diagonal = self._entries[:: self.cols + 1]
        return sum(diagonal[1:], diagonal[0]) if diagonal else Fraction(0)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self._entries)


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (in place on a copy); returns (rref, pivot cols).

    The pivot row is divided only when its pivot is not 1, and each other row
    is updated only in the pivot row's nonzero columns.  Left of its pivot a
    pivot row is all zero, so those columns are never scanned.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        nonzero = [j for j in range(c, ncols) if prow[j]]
        pv = prow[c]
        if pv != 1:
            for j in nonzero:
                prow[j] /= pv
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if f and i != r:
                for j in nonzero:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(m: Matrix) -> int:
    _, pivots = _rref(m.to_rows())
    return len(pivots)


def kernel_basis(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right null space {v : m v = 0}, exact.

    The basis is in the standard RREF form: one vector per free column, with
    a 1 in the free coordinate.  An empty matrix has the full standard basis.
    """
    rref, pivots = _rref(m.to_rows())
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def solve(m: Matrix, b: Sequence) -> list[Fraction] | None:
    """Solve m x = b exactly; None when inconsistent.

    When the solution is not unique the free coordinates are set to 0, so
    callers that need uniqueness should check `rank(m) == m.cols` first.
    """
    b = [rational(x) for x in b]
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = [list(m.row(i)) + [b[i]] for i in range(m.rows)]
    rref, pivots = _rref(aug)
    if m.cols in pivots:
        return None  # a pivot in the augmented column: inconsistent
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][m.cols]
    return x


# ---------------------------------------------------------------------------
# Polynomials in one formal variable q with integer coefficients, and their
# ratios: every operation runs over Python ints.
# ---------------------------------------------------------------------------


def int_poly_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """Product of two nonempty integer coefficient lists, by index: entry k
    of the result is the sum of p[i] q[j] over i + j = k."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


class Poly:
    """Univariate polynomial in q with integer coefficients `nums`, lowest
    degree first and with no trailing zero; the zero polynomial is ()."""

    __slots__ = ("nums",)

    def __init__(self, nums: Iterable[int] = ()):
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        self.nums = tuple(nums)

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls((c,))

    @classmethod
    def q(cls) -> "Poly":
        return cls((0, 1))

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nums == other.nums

    def __hash__(self):
        return hash(self.nums)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(a + b for a, b in zip_longest(self.nums, other.nums, fillvalue=0))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(a - b for a, b in zip_longest(self.nums, other.nums, fillvalue=0))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        return Poly(int_poly_mul(self.nums, other.nums))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError(f"negative Poly exponent {n}")
        if self.is_zero():
            return Poly.const(1) if n == 0 else self
        result, base = [1], list(self.nums)
        while True:
            if n & 1:
                result = int_poly_mul(result, base)
            n >>= 1
            if not n:
                return Poly(result)
            base = int_poly_mul(base, base)

    def _value(self, a: int, b: int) -> tuple[int, int]:
        """(numerator, denominator) of the value at q = a / b, b > 0, by
        Horner's rule over ints; the denominator is b^degree."""
        nums = self.nums
        if not nums:
            return 0, 1
        acc, bpow = nums[-1], 1
        for c in nums[-2::-1]:
            bpow *= b
            acc = acc * a + c * bpow
        return acc, bpow

    def __repr__(self):
        return f"Poly({', '.join(_int_to_str(c) for c in self.nums)})"


class RationalFunctionQ:
    """Quotient num / den of integer polynomials in q, kept as built.

    No common factor is cancelled and no form is canonical: num / den equals
    c / d exactly when num d = c den, so equality cross-multiplies and the
    arithmetic multiplies polynomials.  With no canonical form there is no
    hash.
    """

    __slots__ = ("num", "den")
    __hash__ = None

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = num, den

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunctionQ)
            and self.num * other.den == other.num * self.den
        )

    def __mul__(self, other: "RationalFunctionQ") -> "RationalFunctionQ":
        return RationalFunctionQ(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunctionQ") -> "RationalFunctionQ":
        return RationalFunctionQ(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RationalFunctionQ":
        num, den = self.num ** abs(n), self.den ** abs(n)
        return RationalFunctionQ(num, den) if n >= 0 else RationalFunctionQ(den, num)

    def __repr__(self):
        return f"RationalFunctionQ({self.num!r} / {self.den!r})"


def eval_q(f: RationalFunctionQ, q0) -> Fraction:
    """Exact evaluation of f at q = q0; raises PoleAtPoint where the stored
    denominator vanishes."""
    x = q0 if isinstance(q0, int) else rational(q0)  # an int is its own ratio
    a, b = x.numerator, x.denominator
    n, nden = f.num._value(a, b)
    d, dden = f.den._value(a, b)
    if d == 0:
        raise PoleAtPoint(f"denominator vanishes at q = {format_rational(x)}")
    return Fraction(n * dden, nden * d)
