"""Root data for G2 and its dual, torus weights, and formal-degree functions.

The dual side is stated once, with alpha the long simple root: its positive
roots with their coroots, and its Cartan matrix. The G2 side is read from it
by Langlands duality: the positive roots of G2 (alpha short) are the dual
coroots, and its Cartan matrix is the transpose of the dual one. Roots are
written a*alpha + b*beta in the simple-root basis of their side; torus
elements are tracked as exponent pairs (e1, e2) standing for m(q^e1, q^e2)
in the fixed coordinates, on which the simple roots act by

    alpha(m(x, y)) = x^{-1} y^2,     beta(m(x, y)) = x y^{-1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .linalg import Poly, RationalFunctionQ, eval_q


@dataclass(frozen=True)
class Root:
    a: int
    b: int

    def __neg__(self) -> "Root":
        return Root(-self.a, -self.b)


@dataclass(frozen=True)
class TorusExponentPair:
    e1: int
    e2: int


@dataclass(frozen=True)
class ArthurParamMeta:
    index: int
    component_group: str  # "S3" or "S2", named as in `packets.character_table`
    s_psi_class: str  # the class of s_psi in that group's character table
    swap_partner: int


# The positive dual roots, in listing order, each with its coroot in the
# simple-coroot basis.
_COROOTS = {
    (1, 0): (1, 0),
    (0, 1): (0, 1),
    (1, 1): (3, 1),
    (1, 2): (3, 2),
    (1, 3): (1, 1),
    (2, 3): (2, 1),
}

# Rows/columns ordered (alpha, beta): entry (i, j) is <root i, coroot j>.
_CARTAN_DUAL = ((2, -3), (-1, 2))


def positive_roots(side: str = "dual") -> list[Root]:
    """The positive roots of the dual group, or of G2 (its coroots) by height."""
    if side == "g2":
        return [Root(a, b) for a, b in sorted(_COROOTS.values(), key=sum)]
    return [Root(a, b) for a, b in _COROOTS]


def all_roots() -> list[Root]:
    pos = positive_roots()
    return pos + [-r for r in pos]


def cartan_matrix(side: str) -> list[list[int]]:
    """Rows/columns ordered (alpha, beta); the G2 matrix is the transpose."""
    if side == "g2":
        return [list(column) for column in zip(*_CARTAN_DUAL)]
    return [list(row) for row in _CARTAN_DUAL]


def root_weight(gamma: Root, t: TorusExponentPair) -> int:
    """Exponent of q in gamma(m(q^e1, q^e2)) for a dual-side root."""
    return gamma.a * (-t.e1 + 2 * t.e2) + gamma.b * (t.e1 - t.e2)


# The infinitesimal-parameter torus element: m(q, q).  The check
# `frobenius-torus-selfcheck` reconciles this with the coroot expressions.
FROBENIUS_TORUS = TorusExponentPair(1, 1)


def weight_space(exponent: int) -> list[Root]:
    """Dual-side roots of the given Frobenius weight.

    Weight +1 is the four-dimensional moduli space of cubics, -1 its dual,
    and weight 0 carries +/-beta (the two-dimensional Cartan is tracked
    separately by convention).
    """
    return [r for r in all_roots() if root_weight(r, FROBENIUS_TORUS) == exponent]


def coroot(gamma: Root) -> tuple[int, int]:
    """Coroot of a positive dual-side root, in the simple-coroot basis."""
    return _COROOTS[(gamma.a, gamma.b)]


def coroot_torus_exponents(coroot_pair: tuple[int, int]) -> TorusExponentPair:
    """m-coordinates of (c alpha^vee + d beta^vee)(q).

    alpha^vee(q) = m(1, q) and beta^vee(q) = m(q, q^{-1}).
    """
    c, d = coroot_pair
    return TorusExponentPair(d, c - d)


def root_coroot_pairing(gamma: Root, delta: Root) -> int:
    """<gamma, delta^vee> computed through torus weights."""
    return root_weight(gamma, coroot_torus_exponents(coroot(delta)))


def arthur_parameters() -> list[ArthurParamMeta]:
    """Metadata for the four Arthur parameters with this infinitesimal class,
    one record per conormal stratum: A_psi_i is the stabilizer of stratum i."""
    return [
        ArthurParamMeta(0, "S3", "e", 3),
        ArthurParamMeta(1, "S2", "t", 2),
        ArthurParamMeta(2, "S2", "t", 1),
        ArthurParamMeta(3, "S3", "e", 0),
    ]


# -- formal degree data -------------------------------------------------------


@dataclass(frozen=True)
class AdjointGammaData:
    """Adjoint L-factor specializations, gamma(0), and the formal-degree dim."""

    gamma0: RationalFunctionQ
    dim_sigma: RationalFunctionQ

    def l_factor(self, s: int) -> RationalFunctionQ:
        """L(s, Ad) = 1/((1 - q^{-s-2})(1 - q^{-s-1})^3) at an integer s >= 0,
        cleared into a ratio of polynomials in q."""
        q = Poly.q()
        one = Poly.const(1)
        num = q ** (4 * s + 5)
        den = (q ** (s + 2) - one) * (q ** (s + 1) - one) ** 3
        return RationalFunctionQ(num, den)

    def epsilon_power(self, s: int) -> RationalFunctionQ:
        """epsilon(s, Ad) = q^{10(1/2 - s)} at an integer s; q^5 at s = 0."""
        return RationalFunctionQ(Poly.q(), Poly.const(1)) ** (5 - 10 * s)


@functools.cache
def adjoint_gamma_data() -> AdjointGammaData:
    """gamma(0) and dim sigma as the quotients that define them, built on
    first use and shared by every caller in the process."""
    q = Poly.q()
    one = Poly.const(1)
    gamma0 = RationalFunctionQ(q**9, (q + one) ** 2 * (q**2 + q + one))
    dim_sigma = RationalFunctionQ(
        q * (q**6 - one) * (q**2 - one),
        Poly.const(6) * (q + one) ** 2 * (q**2 + q + one),
    )
    return AdjointGammaData(gamma0=gamma0, dim_sigma=dim_sigma)


def dim_sigma_simplified() -> RationalFunctionQ:
    """The reduced closed form q (q-1)^2 (q^2-q+1) / 6."""
    q = Poly.q()
    one = Poly.const(1)
    return RationalFunctionQ(q * (q - one) ** 2 * (q**2 - q + one), Poly.const(6))


def formal_degree_values(q0) -> dict:
    data = adjoint_gamma_data()
    return {
        "q": q0,
        "dim_sigma": eval_q(data.dim_sigma, q0),
        "gamma0": eval_q(data.gamma0, q0),
    }
