"""Fraction references that the integer kernels of `g2cubics` are compared
with: the normalization of a line (`cubics.Line`), division by a linear form
(`divides`, `rational_lines`), the twisted coefficients of a plain-basis
cubic (`_twisted`), the product of coefficient lists (`int_poly_mul`; tests
also build their line products with it), the substitution of a 2x2 matrix
into a form (`_substitute`), and polynomials in q with one Fraction per
coefficient (`linalg.Poly`).
"""

from fractions import Fraction

from g2cubics.cubics import BinaryCubic


def fraction_line(u1, u2):
    """The line [u1:u2] as a pair of Fractions, both divided by the first
    nonzero one: (0, 1) or (1, u2/u1)."""
    u1, u2 = Fraction(u1), Fraction(u2)
    scale = u1 if u1 != 0 else u2
    return u1 / scale, u2 / scale


def divide_by_form(p, u1, u2):
    """Divide the homogeneous plain-basis polynomial p by the form u1*y - u2*x.

    Returns (quotient, exact) where exact says the division left no remainder.
    """
    p = [Fraction(c) for c in p]
    u1, u2 = Fraction(u1), Fraction(u2)
    if u1 == 0 and u2 == 0:
        raise ValueError("zero linear form")
    d = len(p) - 1
    if u1 == 0:  # form is -u2*x: divisible iff the y^d coefficient vanishes
        if p[0] != 0:
            return [Fraction(0)] * d, False
        return [c / -u2 for c in p[1:]], True
    # synthetic division along descending powers of y
    q, carry = [], Fraction(0)
    for c in p[:-1]:
        carry = (c + u2 * carry) / u1
        q.append(carry)
    return q, p[d] + u2 * carry == 0


def from_plain(plain, den=1):
    """Twisted coefficients of the plain-basis cubic plain / den, one Fraction
    per coefficient; plain holds ints or Fractions."""
    a0, a1, a2, a3 = plain
    return Fraction(a0, den), Fraction(a1, -3 * den), Fraction(a2, -3 * den), Fraction(a3, -den)


def poly_mul(p, q):
    """Product of two nonempty coefficient lists, one Fraction per entry."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def fraction_substitute(plain, a, b, c, d):
    """p((x, y) [[a, b], [c, d]]) expanded term by term over Fractions."""
    deg = len(plain) - 1
    out = [Fraction(0)] * (deg + 1)
    for i, coeff in enumerate(plain):
        term = [Fraction(1)]
        for _ in range(deg - i):
            term = poly_mul(term, [d, b])
        for _ in range(i):
            term = poly_mul(term, [c, a])
        for k, t in enumerate(term):
            out[k] += coeff * t
    return out


def line_cubic(*lines):
    """The cubic prod(u1*y - u2*x) over the given lines [u1:u2]."""
    p = [Fraction(1)]
    for u1, u2 in lines:
        p = poly_mul(p, [u1, -u2])
    return BinaryCubic(*from_plain(p))


class FractionPoly:
    """A polynomial in q kept as its trimmed tuple of Fraction coefficients,
    lowest degree first; every operation normalises Fractions."""

    def __init__(self, coeffs=()):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return FractionPoly(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return FractionPoly()
        return FractionPoly(poly_mul(self.coeffs, other.coeffs))

    def __pow__(self, n):
        result, base = FractionPoly([1]), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        x, acc = Fraction(x), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc
