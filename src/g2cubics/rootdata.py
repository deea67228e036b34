"""Root data for G2 and its dual, torus weights, and formal-degree functions.

Roots are written a*alpha + b*beta in the simple-root basis of the chosen
side.  On the dual side alpha is the long simple root; torus elements are
tracked as exponent pairs (e1, e2) standing for m(q^e1, q^e2) in the fixed
coordinates, on which the simple roots act by

    alpha(m(x, y)) = x^{-1} y^2,     beta(m(x, y)) = x y^{-1}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .linalg import Poly, RationalFunctionQ, eval_q


class WrongSide(ValueError):
    """Raised when a root from the wrong side of the duality is supplied."""


class NonPositive(ValueError):
    """Raised when a positive root is required."""


@dataclass(frozen=True)
class Root:
    a: int
    b: int
    side: str = "dual"  # "dual" (alpha long) or "g2" (alpha short)

    def __neg__(self) -> "Root":
        return Root(-self.a, -self.b, self.side)


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


_POSITIVE_DUAL = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)]
_POSITIVE_G2 = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]


def positive_roots(side: str = "dual") -> list[Root]:
    if side == "dual":
        return [Root(a, b, "dual") for a, b in _POSITIVE_DUAL]
    if side == "g2":
        return [Root(a, b, "g2") for a, b in _POSITIVE_G2]
    raise ValueError(f"unknown side {side!r}")


def all_roots(side: str = "dual") -> list[Root]:
    pos = positive_roots(side)
    return pos + [-r for r in pos]


def cartan_matrix(side: str) -> list[list[int]]:
    """Rows/columns ordered (alpha, beta); the two sides are transposes."""
    if side == "g2":
        return [[2, -1], [-3, 2]]
    if side == "dual":
        return [[2, -3], [-1, 2]]
    raise ValueError(f"unknown side {side!r}")


def root_weight(gamma: Root, t: TorusExponentPair) -> int:
    """Exponent of q in gamma(m(q^e1, q^e2)) for a dual-side root."""
    if gamma.side != "dual":
        raise WrongSide("torus weights are defined on the dual side")
    return gamma.a * (-t.e1 + 2 * t.e2) + gamma.b * (t.e1 - t.e2)


# The infinitesimal-parameter torus element: m(q, q).  A startup self-check
# (`frobenius_torus_selfcheck`) reconciles this with the coroot expressions.
FROBENIUS_TORUS = TorusExponentPair(1, 1)


def weight_space(exponent: int) -> list[Root]:
    """Dual-side roots of the given Frobenius weight.

    Weight +1 is the four-dimensional moduli space of cubics, -1 its dual,
    and weight 0 carries +/-beta (the two-dimensional Cartan is tracked
    separately by convention).
    """
    return [r for r in all_roots("dual") if root_weight(r, FROBENIUS_TORUS) == exponent]


_COROOTS = {
    (1, 0): (1, 0),
    (0, 1): (0, 1),
    (1, 1): (3, 1),
    (1, 2): (3, 2),
    (1, 3): (1, 1),
    (2, 3): (2, 1),
}


def coroot(gamma: Root) -> tuple[int, int]:
    """Coroot of a positive dual-side root, in the simple-coroot basis."""
    if gamma.side != "dual":
        raise WrongSide("coroot table is stated for the dual side")
    key = (gamma.a, gamma.b)
    if key not in _COROOTS:
        raise NonPositive(f"{gamma} is not a positive root")
    return _COROOTS[key]


def coroot_torus_exponents(coroot_pair: tuple[int, int]) -> TorusExponentPair:
    """m-coordinates of (c alpha^vee + d beta^vee)(q).

    alpha^vee(q) = m(1, q) and beta^vee(q) = m(q, q^{-1}).
    """
    c, d = coroot_pair
    return TorusExponentPair(d, c - d)


def root_coroot_pairing(gamma: Root, delta: Root) -> int:
    """<gamma, delta^vee> computed through torus weights."""
    return root_weight(gamma, coroot_torus_exponents(coroot(delta)))


def frobenius_torus_selfcheck() -> dict:
    """Reconcile the three expressions for the Frobenius torus element.

    The coroot form (2 alpha^vee + beta^vee)(q) gives m(q, q), matching the
    explicit unramified-parameter value.  The composite h_alpha(q) h_beta(q^2)
    evaluates to m(q^2, q^{-1}) in these coordinates, which does not match;
    swapping the two arguments does.  The m(q, q) value is normative.
    """
    e_alpha = coroot_torus_exponents((1, 0))  # alpha^vee(q)
    e_beta = coroot_torus_exponents((0, 1))  # beta^vee(q)

    def combine(*pairs_with_mult):
        e1 = sum(m * p.e1 for p, m in pairs_with_mult)
        e2 = sum(m * p.e2 for p, m in pairs_with_mult)
        return TorusExponentPair(e1, e2)

    coroot_form = combine((e_alpha, 2), (e_beta, 1))  # (2a^vee + b^vee)(q)
    stated = combine((e_alpha, 1), (e_beta, 2))  # h_alpha(q) h_beta(q^2)
    swapped = combine((e_alpha, 2), (e_beta, 1))  # h_alpha(q^2) h_beta(q)
    return {
        "normative": FROBENIUS_TORUS,
        "coroot_form": coroot_form,
        "stated_composite": stated,
        "swapped_composite": swapped,
        "coroot_form_matches": coroot_form == FROBENIUS_TORUS,
        "stated_matches": stated == FROBENIUS_TORUS,
        "swapped_matches": swapped == FROBENIUS_TORUS,
    }


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
        if s < 0:
            raise ValueError("specialize at a nonnegative integer")
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
    """gamma(0) and dim sigma as canonical rational functions, built on first
    use and shared by every caller in the process."""
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
