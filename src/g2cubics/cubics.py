"""Binary cubics, the det^{-1} x Sym^3 twisted GL2 action, and orbit invariants.

Coefficient convention, fixed once for the whole package: the vector
(r0, r1, r2, r3) stands for the cubic

    r(x, y) = r0*y^3 - 3*r1*y^2*x - 3*r2*y*x^2 - r3*x^3.

A line [u1:u2] stands for the linear form u(x, y) = u1*y - u2*x, whose zero
through the origin is the point (x, y) = (u1, u2).  All arithmetic is exact.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log

from .linalg import Matrix, common_denominator, format_rational, rational


class SingularGroupElement(ValueError):
    """Raised when a group element has zero determinant."""


class ZeroCubic(ValueError):
    """Raised by operations that are meaningless on the zero cubic."""


# -- plain-basis helpers ------------------------------------------------------
#
# Internally some routines expand cubics in the plain monomial basis
#     a0*y^3 + a1*y^2*x + a2*y*x^2 + a3*x^3,
# related to the twisted coefficients by a = (r0, -3r1, -3r2, -r3).
# A homogeneous polynomial of degree d is a list of d+1 ints, the
# coefficient of y^(d-i)*x^i at index i.


def to_plain(coeffs) -> list:
    """Plain-basis coefficients of a twisted 4-vector; ints stay ints."""
    r0, r1, r2, r3 = coeffs
    return [r0, -3 * r1, -3 * r2, -r3]


# -- domain types -------------------------------------------------------------


class OrbitClass(enum.Enum):
    """The four GL2 orbit classes of binary cubics, by increasing dimension.

    They are the four root-multiplicity types (`structure`), and the dual
    orbits Ci* are the same four types on dual cubics.
    """

    C0 = 0
    C1 = 1
    C2 = 2
    C3 = 3

    @property
    def dim(self) -> int:
        return (0, 2, 3, 4)[self.value]

    @property
    def structure(self) -> str:
        """The root-multiplicity type shared by the orbit's cubics."""
        return ("zero", "triple_line", "double_plus_simple", "three_distinct")[self.value]


class _CoeffVector:
    """Shared behaviour of the coefficient 4-vectors: cubics, dual cubics, group elements.

    A vector has two exact forms, each built on first use and kept: the
    Fraction `coeffs`, and the integer form `integers()`, the numerators over
    the least common denominator.  A vector built from coefficients clears
    them only when a reader asks for integers; one built by `_from_integers`
    (the group actions and group arithmetic) builds its Fractions only when
    `coeffs` is read.  Both forms are kept because neither is cheap to
    rebuild from the other at large sizes: printing from the integer form
    needs a gcd per coefficient, and clearing Fraction inputs needs an lcm.
    Cubics and dual cubics keep their integer Hessian, orbit and rational
    split in the same way (`_kept`).
    """

    __slots__ = ("_coeffs", "_integers")

    def __init__(self, c0, c1, c2, c3):
        self._coeffs = (rational(c0), rational(c1), rational(c2), rational(c3))
        self._integers = None

    @classmethod
    def _from_integers(cls, nums, den: int):
        """The vector nums / den for ints with den nonzero, reduced by one gcd
        to the unique integer form."""
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        v = cls.__new__(cls)
        v._coeffs = None
        v._integers = (tuple(n // g for n in nums), den // g)
        return v

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        if self._coeffs is None:
            nums, den = self._integers
            self._coeffs = tuple(Fraction(n, den) for n in nums)
        return self._coeffs

    def integers(self) -> tuple[tuple[int, int, int, int], int]:
        """(nums, den) with coeffs[i] = nums[i] / den, den > 0 and
        gcd(den, *nums) = 1: the unique integer form of the vector."""
        if self._integers is None:
            nums, den = common_denominator(self._coeffs)
            self._integers = (tuple(nums), den)
        return self._integers

    def is_zero(self) -> bool:
        if self._integers is not None:
            return not any(self._integers[0])
        return not any(self._coeffs)

    def scale(self, c):
        c = rational(c)
        return type(self)(*(c * x for x in self.coeffs))

    def __add__(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot mix primal and dual cubics")
        return type(self)(*(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.integers() == other.integers()

    def __hash__(self):
        return hash((type(self).__name__, self.integers()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(format_rational(c) for c in self.coeffs)})"

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]


class BinaryCubic(_CoeffVector):
    """A cubic in the moduli space V, in the twisted coefficient convention."""


class DualCubic(_CoeffVector):
    """A cubic viewed in the dual space V*; same coefficient convention."""


class GroupElement(_CoeffVector):
    """An invertible 2x2 rational matrix [[a, b], [c, d]], kept as the 4-vector (a, b, c, d)."""

    __slots__ = ()

    @property
    def a(self) -> Fraction:
        return self.coeffs[0]

    @property
    def b(self) -> Fraction:
        return self.coeffs[1]

    @property
    def c(self) -> Fraction:
        return self.coeffs[2]

    @property
    def d(self) -> Fraction:
        return self.coeffs[3]

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, a, d) -> "GroupElement":
        return cls(a, 0, 0, d)

    def integer_entries(self) -> tuple[int, int, int, int, int, int]:
        """(a, b, c, d, den, det) over Python ints: self = [[a, b], [c, d]] / den
        and det = ad - bc, so that det(self) = det / den^2."""
        (a, b, c, d), den = self.integers()
        return a, b, c, d, den, a * d - b * c

    def det(self) -> Fraction:
        *_, den, det = self.integer_entries()
        return Fraction(det, den * den)

    def require_invertible(self) -> tuple[int, int, int, int, int, int]:
        """Raise on a singular element; otherwise return `integer_entries()`."""
        entries = self.integer_entries()
        if entries[5] == 0:
            raise SingularGroupElement(f"{self} has determinant 0")
        return entries

    def inverse(self) -> "GroupElement":
        a, b, c, d, den, det = self.require_invertible()
        return GroupElement._from_integers((d * den, -b * den, -c * den, a * den), det)

    def transpose(self) -> "GroupElement":
        (a, b, c, d), den = self.integers()
        return GroupElement._from_integers((a, c, b, d), den)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        (a, b, c, d), den = self.integers()
        (e, f, g, h), oden = other.integers()
        return GroupElement._from_integers(
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), den * oden
        )

    def to_json(self) -> list[list[str]]:
        return [
            [format_rational(self.a), format_rational(self.b)],
            [format_rational(self.c), format_rational(self.d)],
        ]

    def __repr__(self):
        e = [format_rational(x) for x in (self.a, self.b, self.c, self.d)]
        return f"GroupElement([[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]])"


@dataclass(frozen=True, slots=True)
class Line:
    """A projective line [u1:u2], i.e. the form u1*y - u2*x, kept as its
    primitive integer pair: u1 and u2 are ints with gcd 1 and the first
    nonzero one positive, so two lines are equal exactly when their pairs
    are.  Built from any two rationals, not both zero.  Frozen: it is hashed,
    and the lines of a cubic's kept split are handed to every reader."""

    u1: int
    u2: int

    def __post_init__(self):
        (u1, u2), _ = common_denominator((rational(self.u1), rational(self.u2)))
        g = gcd(u1, u2)
        if g == 0:
            raise ValueError("a line needs a nonzero coordinate pair")
        if u1 < 0 or (u1 == 0 and u2 < 0):
            g = -g
        object.__setattr__(self, "u1", u1 // g)
        object.__setattr__(self, "u2", u2 // g)

    def perp(self) -> "Line":
        """The unique line v with u1*v1 + u2*v2 = 0."""
        return Line(-self.u2, self.u1)

    def __repr__(self):
        return f"Line[{':'.join(self.to_json())}]"

    def to_json(self) -> list[str]:
        """[0:1], or [1:t] with t = u2/u1."""
        if self.u1 == 0:
            return ["0", "1"]
        return ["1", format_rational(Fraction(self.u2, self.u1))]


# canonical orbit representatives, each split into rational lines
REPRESENTATIVES = {
    OrbitClass.C0: BinaryCubic(0, 0, 0, 0),
    OrbitClass.C1: BinaryCubic(1, 0, 0, 0),  # y^3
    OrbitClass.C2: BinaryCubic(0, 1, 0, 0),  # -3xy^2
    OrbitClass.C3: BinaryCubic(0, Fraction(-1, 3), Fraction(-1, 3), 0),  # xy(x+y)
}


# -- operations ---------------------------------------------------------------


def evaluate(r: BinaryCubic | DualCubic, x, y) -> Fraction:
    """r(x, y) = r0*y^3 - 3*r1*y^2*x - 3*r2*y*x^2 - r3*x^3, exactly.

    With r = R / rden and (x, y) = (X, Y) / den over the integers, the value
    is R(X, Y) / (rden den^3).
    """
    (r0, r1, r2, r3), rden = r.integers()
    (x, y), den = common_denominator((rational(x), rational(y)))
    value = ((r0 * y - 3 * r1 * x) * y - 3 * r2 * x * x) * y - r3 * x**3
    return Fraction(value, rden * den**3)


def _substitute(plain: list[int], a: int, b: int, c: int, d: int) -> list[int]:
    """Expand p((x, y) [[a, b], [c, d]]) over Python ints, for a cubic p
    with integer coefficients in the plain basis; cubics only.

    The substitution is x |-> X = a x + c y, y |-> Y = b x + d y, and
    p(X, Y) = ((p3 X + p2 Y) X + p1 Y^2) X + p0 Y^3 is expanded by
    homogeneous Horner, one step per line.
    """
    p0, p1, p2, p3 = plain
    l0, l1 = p3 * c + p2 * d, p3 * a + p2 * b  # p3 X + p2 Y
    q0 = l0 * c + p1 * d * d  # (p3 X + p2 Y) X + p1 Y^2
    q1 = l0 * a + l1 * c + 2 * p1 * b * d
    q2 = l1 * a + p1 * b * b
    e0, e1 = p0 * d, p0 * b  # p0 Y^3 = (e0 d^2, 3 e1 d^2, 3 e1 b d, e1 b^2)
    return [
        q0 * c + e0 * d * d,
        q0 * a + q1 * c + 3 * e1 * d * d,
        q1 * a + q2 * c + 3 * e1 * b * d,
        q2 * a + e1 * b * b,
    ]


def act(h: GroupElement, r: BinaryCubic) -> BinaryCubic:
    """The twisted action (h.r)(x, y) = det(h)^{-1} r((x, y) h).

    Implemented by polynomial substitution and expansion; the closed-form
    matrix of the same action lives in `act_matrix` and the two are kept as
    independent routes on purpose.  With h = H / hden and r = R / rden over
    the integers, det(h) = det(H) / hden^2 and the expansion of R((x, y) H)
    carries hden^3, so the plain-basis result is R((x, y) H) / (det(H) rden hden).
    """
    a, b, c, d, hden, det = h.require_invertible()
    nums, rden = r.integers()
    plain = _substitute(to_plain(nums), a, b, c, d)
    return BinaryCubic._from_integers(*_twisted(plain, det * rden * hden))


def _twisted(plain: list[int], den: int) -> tuple[tuple[int, int, int, int], int]:
    """Integer numerators and denominator of the twisted coefficients of the
    plain-basis cubic plain / den: (3 a0, -a1, -a2, -3 a3) / (3 den)."""
    a0, a1, a2, a3 = plain
    return (3 * a0, -a1, -a2, -3 * a3), 3 * den


def act_matrix(h: GroupElement) -> Matrix:
    """The 4x4 matrix of the twisted action on coefficient vectors.

    The closed-form entries are cubic in h = H / hden, so over the integers
    each is its value at H divided by det(H) hden.
    """
    a, b, c, d, hden, det = h.require_invertible()
    raw = [
        [d**3, -3 * c * d**2, -3 * c**2 * d, -(c**3)],
        [-b * d**2, d * (a * d + 2 * b * c), c * (2 * a * d + b * c), a * c**2],
        [-(b**2) * d, b * (2 * a * d + b * c), a * (a * d + 2 * b * c), a**2 * c],
        [-(b**3), 3 * a * b**2, 3 * a**2 * b, a**3],
    ]
    den = det * hden
    return Matrix(4, 4, [Fraction(e, den) for row in raw for e in row])


def act_dual(h: GroupElement, s: DualCubic) -> DualCubic:
    """The contragredient twisted action (h.s)(x, y) = det(h) s((x, y) t(h^{-1})).

    t(h^{-1}) = adj / det(h) with adj = [[d, -c], [-b, a]], and s is cubic:
    det(h) s((x, y) adj / det(h)) = s((x, y) adj) / det(h)^2.  Over the
    integers (h = H / hden, s = S / sden) that is S((x, y) adj(H)) hden / (det(H)^2 sden).
    """
    a, b, c, d, hden, det = h.require_invertible()
    nums, sden = s.integers()
    plain = [hden * v for v in _substitute(to_plain(nums), d, -c, -b, a)]
    return DualCubic._from_integers(*_twisted(plain, det * det * sden))


def _kept(derive):
    """Keep derive(r), never None, as an attribute of the cubic r: derived on
    the first call, read after (`act` and arithmetic make new cubics)."""
    name = derive.__name__

    def read(r):
        fact = getattr(r, name, None)
        if fact is None:
            fact = derive(r)
            setattr(r, name, fact)
        return fact

    return functools.update_wrapper(read, derive)


def hessian_quadratic(r: BinaryCubic | DualCubic):
    """Coefficients (d0, d1, d2) of the Hessian quadratic d0 y^2 + d1 xy + d2 x^2.

    This equals one quarter of det Hess(r); the factor is pinned by an
    expansion oracle in the test-suite.
    """
    den = r.integers()[1] ** 2
    return tuple(Fraction(d, den) for d in _hessian_integers(r))


def _hessian(r0: int, r1: int, r2: int, r3: int) -> tuple[int, int, int]:
    """The Hessian quadratic (d0, d1, d2) of the cubic with coefficients r0..r3."""
    return -9 * (r2 * r0 + r1 * r1), -9 * (r0 * r3 + r1 * r2), 9 * (r1 * r3 - r2 * r2)


@_kept
def _hessian_integers(r: BinaryCubic | DualCubic) -> tuple[int, int, int]:
    """The Hessian quadratic of r's integer numerators (r0, r1, r2, r3); for
    r = R / den its coefficients are these divided by den^2."""
    return _hessian(*r.integers()[0])


def discriminant(r: BinaryCubic | DualCubic) -> Fraction:
    """Discriminant of the Hessian quadratic; zero iff r has a repeated root."""
    d0, d1, d2 = _hessian_integers(r)
    return Fraction(d1 * d1 - 4 * d0 * d2, r.integers()[1] ** 4)


# a prime below 2^30: it fits in one CPython digit, so reducing a numerator
# of any size modulo it is a single-digit division
_P = 1073741789


@_kept
def classify(r: BinaryCubic | DualCubic) -> OrbitClass:
    """Orbit class from the two rational invariants only (no factoring).

    Both invariants are tested for zero on r's integer numerators: a common
    denominator does not change which of them vanish.  The discriminant is
    first evaluated on the numerators' residues modulo the prime `_P`; a
    nonzero residue certifies a nonzero discriminant, so r is C3 and no
    full-size product is formed.  A zero residue (every C0, C1 and C2 cubic,
    and the C3 cubics whose discriminant `_P` divides) decides on the exact
    Hessian.
    """
    if r.is_zero():
        return OrbitClass.C0
    d0, d1, d2 = _hessian(*(n % _P for n in r.integers()[0]))
    if (d1 * d1 - 4 * d0 * d2) % _P:
        return OrbitClass.C3
    d0, d1, d2 = _hessian_integers(r)
    if not (d0 or d1 or d2):
        return OrbitClass.C1
    if d1 * d1 == 4 * d0 * d2:
        return OrbitClass.C2
    return OrbitClass.C3


def divides(u: Line, r: BinaryCubic | DualCubic) -> int:
    """Largest k with u(x,y)^k dividing r, by exact polynomial division.

    By convention the zero cubic is divisible by every line (returns 3).
    The division runs on r's integer numerators and u's primitive pair: by
    Gauss's lemma a primitive form divides an integer polynomial over the
    rationals iff it does over the integers, so a step that leaves a
    fraction ends the count.
    """
    if r.is_zero():
        return 3
    p = to_plain(r.integers()[0])
    mult = 0
    while mult < 3:
        p = _divide_by_integer_form(p, u.u1, u.u2)
        if p is None:
            break
        mult += 1
    return mult


def _divide_by_integer_form(p: list[int], u1: int, u2: int) -> list[int] | None:
    """p / (u1*y - u2*x) over the integers for a primitive form; None when
    the quotient is not an integer polynomial or leaves a remainder."""
    if u1 == 0:  # form is -u2*x with u2 = +-1: divisible iff p[0] vanishes
        return None if p[0] else [-u2 * c for c in p[1:]]
    q, carry = [], 0
    for c in p[:-1]:
        carry, rem = divmod(c + u2 * carry, u1)
        if rem:
            return None
        q.append(carry)
    return None if p[-1] + u2 * carry else q


def rational_lines(r: BinaryCubic | DualCubic):
    """All rational projective roots of r with multiplicities.

    Returns (lines, residual_degree) where lines is a list of (Line, mult)
    and residual_degree is the degree of the remaining factor with no
    rational root (0 when r splits over the rationals).  Lines are listed
    [0:1] first, then [1:0], then the lines [1:t] by (|num t|, den t) with
    t > 0 before -t.

    The work is polynomial in the bit-length of r and runs on its integer
    form: the repeated line of a C1 or C2 cubic is read off in closed form,
    and the simple lines of a C3 cubic come from one Hensel-lifted root and
    a square root (`_monic_integer_roots`).
    """
    lines, residual = _split(r)
    return list(lines), residual


@_kept
def _split(r: BinaryCubic | DualCubic) -> tuple[list[tuple[Line, int]], int]:
    """The split of `rational_lines`, kept on r; each reader gets a copy of the list."""
    if r.is_zero():
        raise ZeroCubic("the zero cubic has no well-defined root list")
    orbit = classify(r)
    if orbit is OrbitClass.C1:
        return [(_repeated_line(r), 3)], 0
    p = to_plain(r.integers()[0])
    if orbit is OrbitClass.C2:
        # by Gauss's lemma the primitive u divides p exactly over the integers
        double = _repeated_line(r)
        u1, u2 = double.u1, double.u2
        p = _divide_by_integer_form(_divide_by_integer_form(p, u1, u2), u1, u2)
        simple = Line(p[0], -p[1])
        return sorted([(double, 2), (simple, 1)], key=lambda lm: _line_order(lm[0])), 0
    lines = _simple_rational_lines(p)
    return [(u, 1) for u in lines], 3 - len(lines)


def _repeated_line(r: BinaryCubic | DualCubic) -> Line:
    """The repeated line of a C1 or C2 cubic r, read off its integer form.

    On C1 the plain form is p = k u^3 with u = u1*y - u2*x, so
    (3 p[0], -p[1]) = 3 k u1^2 (u1, u2), and that pair is 3 (r0, r1).  On C2
    the Hessian quadratic d0 y^2 + d1 xy + d2 x^2 is a multiple of u^2, so
    (2 d0, -d1) is a multiple of (u1, u2).  Either pair is zero exactly when
    u1 = 0, and then the line is [0:1]; otherwise `Line` reduces it.
    """
    if classify(r) is OrbitClass.C1:
        a, b = r.integers()[0][:2]
    else:
        d0, d1, _ = _hessian_integers(r)
        a, b = 2 * d0, -d1
    return Line(a, b) if a else Line(0, 1)


def _line_order(u: Line):
    """Sort key giving the listing order of `rational_lines`."""
    if u.u1 == 0:
        return (0,)
    if u.u2 == 0:
        return (1,)
    return (2, abs(u.u2), u.u1, u.u2 < 0)


def _simple_rational_lines(p: list[int]) -> list[Line]:
    """Rational zeros of a square-free integer plain-basis cubic, in listing order."""
    lines = []
    if p[0] == 0:  # x divides: the point (x, y) = (0, 1), line [0:1]
        lines.append(Line(0, 1))
    if p[3] == 0:  # y divides: line [1:0]
        lines.append(Line(1, 0))
    # the other lines [1:t] vanish at (x, y) = (1, t): roots of
    # g(t) = sum p_i t^(3-i), once the zero end coefficients of [0:1] and
    # [1:0] are dropped
    g = list(reversed(p))
    while g[-1] == 0:
        g.pop()
    while g[0] == 0:
        g.pop(0)
    content = gcd(*g)
    g = [c // content for c in g]
    # t = s/lead makes lead^(n-1) g(s/lead) monic with integer roots |s| <= |g0*lead|
    n, lead = len(g) - 1, g[-1]
    monic = [c * lead ** (n - 1 - j) for j, c in enumerate(g[:-1])] + [1]
    roots = _monic_integer_roots(monic, abs(g[0] * lead))
    lines.extend(sorted((Line(lead, s) for s in roots), key=_line_order))
    return lines


def _eval_int(f: list[int], x: int) -> int:
    """f(x) for integer coefficients listed lowest degree first."""
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def _monic_discriminant(f: list[int]) -> int:
    """Discriminant of a monic integer cubic, lowest degree first."""
    c, b, a, _ = f
    return a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c


def _good_prime(disc: int) -> int:
    """The smallest prime not dividing the nonzero integer disc."""
    p = 2
    while disc % p == 0 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
        p += 1
    return p


def _monic_integer_roots(f: list[int], bound: int) -> list[int]:
    """The integer roots of a square-free monic f (lowest degree first) of
    degree 1, 2 or 3, all of whose integer roots have |s| <= bound.

    A quadratic takes its roots from one `isqrt` of its discriminant.  A
    cubic is deflated by one integer root to a monic integer quadratic.  To
    find that root: modulo the smallest prime p not dividing the
    discriminant every root is simple, so each root mod p lifts uniquely.
    Newton-Hensel lifts it, at most doubling the exponent e of the precision
    p^e per step and updating the inverse derivative by its own Newton step,
    up to p^k > 2*bound with k the least such exponent (up to float
    rounding); the symmetric residue is then the only candidate, kept if f
    vanishes there exactly.
    """
    if len(f) == 2:
        return [-f[0]]
    if len(f) == 3:
        c, b, _ = f
        disc = b * b - 4 * c
        root = isqrt(disc) if disc > 0 else 0
        if root * root != disc:
            return []
        return [(-b - root) // 2, (-b + root) // 2]
    p = _good_prime(_monic_discriminant(f))
    k = int(log(2 * bound, p)) + 1
    if p**k <= 2 * bound:
        k += 1
    moduli = []  # p^e for the exponents e of the lift, each at most twice the one before
    while k > 1:
        moduli.insert(0, p**k)
        k = (k + 1) // 2
    df = [j * c for j, c in enumerate(f)][1:]
    fp = [c % p for c in f]
    for x in range(p):
        if _eval_int(fp, x) % p:
            continue
        m, inv = p, pow(_eval_int(df, x), -1, p)
        for step, m in enumerate(moduli, 1):
            x = (x - _eval_int(f, x) * inv) % m
            if step < len(moduli):  # the last step needs no inverse
                inv = inv * (2 - _eval_int(df, x) * inv) % m
        if x > m // 2:
            x -= m
        if _eval_int(f, x) == 0:
            c, b, a, _ = f
            return [x, *_monic_integer_roots([b + x * (a + x), a + x, 1], bound)]
    return []
