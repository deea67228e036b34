"""Killing pairing, moment map, conormal strata and (microlocal) stabilizers.

The conormal variety is the vanishing locus of the 2x2 moment map [r, s];
its regular strata pair an orbit with its dual orbit.  Stabilizer component
groups are computed honestly: every finite generator is g b g^{-1}, with b
from a fixed stabilizer of a base point and g = `_line_frame(r)`, one
explicit element moving the base lines onto the lines of r, and every
generator is verified to fix its input.  Strata 0 and 1 are mirrors of
strata 3 and 2: the moment map of the swapped pair (s, r) is the transpose
of that of (r, s), and h |-> t(h^{-1}) carries the mirror's stabilizer onto
the point's.  Dimensions are the strata's constants, and the conormal fibre
over a cubic is a closed form in its repeated line: nothing here solves a
linear system.  The eliminations that re-derive both, the kernel of the
infinitesimal action and that of the moment matrix, are `verify`'s oracles
and live there.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .cubics import (
    BinaryCubic,
    DualCubic,
    GroupElement,
    OrbitClass,
    REPRESENTATIVES,
    _repeated_line,
    _substitute,
    _twisted,
    classify,
    rational_lines,
    to_plain,
)
from .linalg import Matrix, common_denominator, int_poly_mul, rational


class IrrationalSplitting(ValueError):
    """Raised when a stabilizer needs lines that are not rational."""


class NotRegularConormal(ValueError):
    """Raised when a point is not on a regular conormal stratum."""


@dataclass(frozen=True)
class ConormalPoint:
    r: BinaryCubic
    s: DualCubic


@dataclass
class StabilizerDescription:
    dimension: int
    component_group: str  # "trivial", "S2" or "S3"
    generators: list[GroupElement] = field(default_factory=list)

    def group_elements(self) -> list[GroupElement]:
        """Closure of the finite part under multiplication."""
        elems = [GroupElement.identity()]
        frontier = list(self.generators)
        while frontier:
            g = frontier.pop()
            if g not in elems:
                elems.append(g)
                frontier.extend([g * h for h in elems] + [h * g for h in elems])
        return elems

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "component_group": self.component_group,
            "generators": [g.to_json() for g in self.generators],
        }


# -- pairing and moment map ---------------------------------------------------


def pairing(r: BinaryCubic, s: DualCubic) -> Fraction:
    """The invariant pairing <r, s> = r0 s0 + 3 r1 s1 + 3 r2 s2 + r3 s3."""
    (r0, r1, r2, r3), rden = r.integers()
    (s0, s1, s2, s3), sden = s.integers()
    return Fraction(r0 * s0 + 3 * r1 * s1 + 3 * r2 * s2 + r3 * s3, rden * sden)


def dual_from_factors(v1, v2, v3, v4, v5, v6) -> DualCubic:
    """Expand (v1 y + v2 x)(v3 y + v4 x)(v5 y + v6 x) into dual coordinates."""
    (p, pden), (q, qden), (f, fden) = (
        common_denominator((rational(a), rational(b))) for a, b in ((v1, v2), (v3, v4), (v5, v6))
    )
    return DualCubic._from_integers(*_twisted(int_poly_mul(int_poly_mul(p, q), f), pden * qden * fden))


def pairing_factored(r: BinaryCubic, v1, v2, v3, v4, v5, v6) -> Fraction:
    """<r, s> for factored s, via the Hessian of r.

    Equals (1/6) (v1 v2) . Hess(r)|_{y=v3, x=v4} . (v5 v6)^t, with the Hessian
    in the (y, x) variable order; symmetric in the three factors.
    """
    (r0, r1, r2, r3), rden = r.integers()
    (v1, v2), den12 = common_denominator((rational(v1), rational(v2)))
    (v3, v4), den34 = common_denominator((rational(v3), rational(v4)))
    (v5, v6), den56 = common_denominator((rational(v5), rational(v6)))
    # Hess(r) / 6 = [[r_yy, r_yx], [r_xy, r_xx]] / 6 at (y, x) = (v3, v4)
    ryy = r0 * v3 - r1 * v4
    ryx = -r1 * v3 - r2 * v4
    rxx = -r2 * v3 - r3 * v4
    w1 = v1 * ryy + v2 * ryx
    w2 = v1 * ryx + v2 * rxx
    return Fraction(w1 * v5 + w2 * v6, rden * den12 * den34 * den56)


def moment(r: BinaryCubic, s: DualCubic) -> Matrix:
    """The 2x2 moment map [r, s]; its vanishing defines the conormal variety."""
    (r0, r1, r2, r3), rden = r.integers()
    (s0, s1, s2, s3), sden = s.integers()
    den = rden * sden
    entries = [
        r0 * s0 + 2 * r1 * s1 + r2 * s2,
        -r1 * s0 + 2 * r2 * s1 + r3 * s2,
        -r0 * s1 + 2 * r1 * s2 + r2 * s3,
        r1 * s1 + 2 * r2 * s2 + r3 * s3,
    ]
    return Matrix(2, 2, [Fraction(e, den) for e in entries])


# the four unit dual cubics (1, 0, 0, 0) .. (0, 0, 0, 1)
UNIT_DUALS = tuple(DualCubic(*(int(i == j) for i in range(4))) for j in range(4))


def conormal_kernel(r: BinaryCubic) -> list[DualCubic]:
    """Exact basis of {s : [r, s] = 0}, in the RREF form of `kernel_basis`;
    dimension 4 - dim(orbit of r), so 4, 2, 1, 0 on C0..C3.

    With u = [u1:u2] the repeated line of a C1 or C2 cubic and f the form of
    the perpendicular line, the kernel is spanned by f^3 on C2 and by f^2 y,
    f^2 x on C1.  For u1 != 0 and t = u2/u1 that gives (-t^3, t^2, t, 1) on
    C2 and (-3t^2, 2t, 1, 0), (2t^3, -t^2, 0, 1) on C1; no linear system is
    solved.  `verify` compares the result with the elimination.
    """
    orbit = classify(r)
    if orbit is OrbitClass.C3:
        return []
    if orbit is not OrbitClass.C0:
        u = _repeated_line(r)
        if u.u1:
            t = Fraction(u.u2, u.u1)
            if orbit is OrbitClass.C2:
                return [DualCubic(-t**3, t**2, t, 1)]
            return [DualCubic(-3 * t**2, 2 * t, 1, 0), DualCubic(2 * t**3, -t**2, 0, 1)]
    # on C0 every dual cubic; on the line [0:1], f = y and the kernel is
    # spanned by y^3 (and y^2 x on C1): the first 4 - dim unit dual cubics
    return list(UNIT_DUALS[: 4 - orbit.dim])


def dual_orbit_class(i: int) -> OrbitClass:
    """The orbit with the root-multiplicity type of the dual orbit Ci* paired
    with stratum i, i.e. `classify` of the dual cubics on stratum i: C_{3-i},
    since the swapped pair (s, r) has the transposed moment map and so lies
    on stratum 3 - i."""
    return OrbitClass(3 - i)


def in_lambda_regular(p: ConormalPoint) -> int | None:
    """Stratum index 0..3 when p lies on a regular conormal stratum, else None."""
    if not moment(p.r, p.s).is_zero():
        return None
    i = classify(p.r).value
    return i if classify(p.s) is dual_orbit_class(i) else None


# canonical regular base points, one per stratum, all rational-split
def canonical_regular_pairs() -> dict[int, ConormalPoint]:
    xy_x_plus_y = REPRESENTATIVES[OrbitClass.C3].coeffs
    return {
        0: ConormalPoint(BinaryCubic(0, 0, 0, 0), DualCubic(*xy_x_plus_y)),
        1: ConormalPoint(BinaryCubic(1, 0, 0, 0), DualCubic(0, 0, Fraction(-1, 3), 0)),
        2: ConormalPoint(BinaryCubic(0, 1, 0, 0), DualCubic(0, 0, 0, 1)),
        3: ConormalPoint(BinaryCubic(*xy_x_plus_y), DualCubic(0, 0, 0, 0)),
    }


# -- finite stabilizers -------------------------------------------------------


# the six integer elements fixing y x (x - y), whose lines are [1:0], [0:1]
# and [1:1] in this order; the k-th sends base line i to base line perm[i],
# for the k-th perm of permutations(range(3))
_S3_BASE = (
    GroupElement(1, 0, 0, 1),
    GroupElement(1, 0, -1, -1),
    GroupElement(0, 1, 1, 0),
    GroupElement(-1, -1, 1, 0),
    GroupElement(0, 1, -1, -1),
    GroupElement(-1, -1, 0, 1),
)

# (group name, base stabilizer) on strata 2 and 3: of the canonical pair
# (-3 x y^2, -x^3), whose double line is [1:0] and simple line [0:1], and of
# y x (x - y); strata 0 and 1 take the group and mirrors t(b^{-1}) of 3 and 2
_BASES = {2: ("S2", (GroupElement.diagonal(-1, 1),)), 3: ("S3", _S3_BASE)}
_BASES.update(
    {3 - i: (group, tuple(b.inverse().transpose() for b in base)) for i, (group, base) in _BASES.items()}
)


def _conjugates(
    g: GroupElement, base: Sequence[GroupElement], r: BinaryCubic, s: DualCubic | None = None
) -> list[GroupElement]:
    """g b g^{-1} for each b in base, each verified to fix r (and s).

    An element fixing the base point is carried to one fixing its image
    under g; the check makes every returned element honest.  It runs on
    integers: with g = G / gden and b = B / bden, h = g b g^{-1} is
    G B adj(G) / (bden det(G)), reduced by one gcd to its integer form
    H / lam.  t I acts on cubics by t and on dual cubics by 1/t, so h fixes
    r = R / rden exactly when R((x, y) H) = lam det(H) R, and s = S / sden
    exactly when lam S((x, y) t(adj(H))) = det(H)^2 S, in the plain basis.
    """
    g0, g1, g2, g3, _, gdet = g.require_invertible()
    r_plain = to_plain(r.integers()[0])
    s_plain = None if s is None else to_plain(s.integers()[0])
    out = []
    for b in base:
        (b0, b1, b2, b3), bden = b.integers()
        # G B, then (G B) adj(G) with adj(G) = [[g3, -g1], [-g2, g0]]
        e0, e1, e2, e3 = g0 * b0 + g1 * b2, g0 * b1 + g1 * b3, g2 * b0 + g3 * b2, g2 * b1 + g3 * b3
        h0, h1, h2, h3 = e0 * g3 - e1 * g2, e1 * g0 - e0 * g1, e2 * g3 - e3 * g2, e3 * g0 - e2 * g1
        h = GroupElement._from_integers((h0, h1, h2, h3), bden * gdet)
        h0, h1, h2, h3, lam, det = h.integer_entries()
        r_scale, s_scale = lam * det, det * det
        if _substitute(r_plain, h0, h1, h2, h3) != [r_scale * c for c in r_plain] or (
            s_plain is not None
            and [lam * c for c in _substitute(s_plain, h3, -h2, -h1, h0)] != [s_scale * c for c in s_plain]
        ):
            raise IrrationalSplitting("a conjugated base element does not fix the point")
        out.append(h)
    return out


def _line_frame(r: BinaryCubic | DualCubic) -> GroupElement:
    """An element sending the base lines [1:0], [0:1] (and [1:1]) to the
    rational lines of a C2 or C3 cubic (or dual cubic) r: the double line
    first on C2, the three lines in the listing order of `rational_lines` on C3.

    h sends a line u to u adj(h), so adj(g) has rows alpha L0 and beta L1.
    On C2 alpha = beta = 1; on C3 alpha L0 + beta L1 is parallel to L2, and
    Cramer's rule gives alpha and beta on the lines' primitive integer pairs.
    """
    lines, residual = rational_lines(r)
    if residual != 0:
        raise IrrationalSplitting(
            f"{r!r} does not split into three distinct rational lines"
        )
    # the double line first; the sort is stable, so C3 keeps the listing order
    lines = sorted(lines, key=lambda lm: lm[1], reverse=True)
    reps = [(u.u1, u.u2) for u, _ in lines]
    (p0, q0), (p1, q1) = reps[:2]
    alpha = beta = 1
    if len(reps) == 3:
        p2, q2 = reps[2]
        alpha, beta = p2 * q1 - q2 * p1, p0 * q2 - q0 * p2
    return GroupElement._from_integers((beta * q1, -alpha * q0, -beta * p1, alpha * p0), 1)


def stabilizer_of_cubic(r: BinaryCubic) -> StabilizerDescription:
    """Stabilizer of r under the twisted action, at rational-split inputs.

    Orbit invariance makes the component group independent of the chosen
    representative; C3 inputs must have three rational lines.
    """
    orbit = classify(r)
    if orbit is not OrbitClass.C3:
        # connected: no finite part, and the dimension is 4 - dim(orbit)
        return StabilizerDescription(4 - orbit.dim, "trivial", [])
    # t I acts on cubics by t, so one element realizes each permutation of
    # the lines and fixes r: the conjugate of the base element, unscaled
    group, base = _BASES[3]
    return StabilizerDescription(0, group, _conjugates(_line_frame(r), base, r))


def microlocal_stabilizer(p: ConormalPoint) -> StabilizerDescription:
    """Stabilizer of a regular conormal point; S3, S2, S2, S3 on strata 0..3,
    all finite, so of dimension 0."""
    stratum = in_lambda_regular(p)
    if stratum is None:
        raise NotRegularConormal(f"{p!r} is not on a regular conormal stratum")
    if stratum >= 2:
        g = _line_frame(p.r)
    else:
        # the mirror (s, r) lies on stratum 3 - i, and h |-> t(h^{-1}) carries
        # its stabilizer g b g^{-1} to the conjugate of t(b^{-1}) by t(g^{-1})
        g = _line_frame(p.s).inverse().transpose()
    group, base = _BASES[stratum]
    return StabilizerDescription(0, group, _conjugates(g, base, p.r, p.s))
