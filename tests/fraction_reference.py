"""Fraction references that the integer kernels of `g2cubics.cubics` are
compared with: division by a linear form (`divides`, `rational_lines`) and
the twisted coefficients of a plain-basis cubic (`_twisted`).
"""

from fractions import Fraction


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
