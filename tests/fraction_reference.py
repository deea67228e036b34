"""Fraction division by a linear form: the test-side reference that the
integer division in `g2cubics.cubics` (`divides`, `rational_lines`) is
compared with.
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
