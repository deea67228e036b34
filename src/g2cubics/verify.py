"""Named consistency checks over the whole library.

Each check is a pure function returning None on success or a short witness
string on failure.  The CLI `verify` command runs them all (never stopping
early).  A check that reads the sheaf tables declares a `derived` parameter
and is handed the `packets.Derived` of the table set under test.
Randomized checks draw from a seeded generator, so runs are reproducible;
the acceptance tests reuse the random generators and the repeated-root
oracle below.  The oracles that only the checks use live here too: the
homogeneous gcd with the integer Euclid under it, the derivatives it needs,
and the exact eliminations of the infinitesimal action and of the moment
matrix.  No command calls them.

A scope that holds a randomized check (one with a `trials` parameter) runs
on two processes when `run_checks` can fork a worker beside it: `os.fork`
exists, the process runs one thread and may use two or more CPUs.  Before
the fork the parent writes the scope's registry positions, one byte each,
into a task pipe and closes its write end; the parent and one forked worker
each read one position at a time and run that check until the pipe is
empty.  The worker sends (position, passed, witness) per check back as JSON
through a second pipe; the parent merges them into registry order and runs
again any position with no result.  The worker leaves only through
`os._exit`; the parent always reaps it, killing it first if it still runs,
so no `BaseException` in the parent leaves a process behind.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import random
import signal
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import conormal, cubics, packets, rootdata, sheaves
from .cubics import (
    BinaryCubic,
    DualCubic,
    GroupElement,
    Line,
    OrbitClass,
    REPRESENTATIVES,
    act,
    act_dual,
    act_matrix,
    classify,
    discriminant,
    divides,
    evaluate,
    hessian_quadratic,
    to_plain,
)
from .linalg import Matrix, eval_q, int_poly_mul, kernel_basis, rank
from .packets import Derived


@dataclass
class CheckResult:
    name: str
    scope: str
    passed: bool
    witness: str = ""


# every value _random_fraction can draw, built once: num/den for num in -4..4
# and den in 1, 2, 3
_RANDOM_DENOMINATORS = (1, 1, 1, 2, 3)
_RANDOM_FRACTIONS = {(n, d): Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)}


def _random_int(rng: random.Random) -> int:
    """The draw of rng.randint(-4, 4), made with the getrandbits calls it
    makes: the smallest number of bits that holds the range size, redrawn
    until it falls inside."""
    num = rng.getrandbits(4)
    while num >= 9:
        num = rng.getrandbits(4)
    return num - 4


def _random_pair(rng: random.Random) -> tuple[int, int]:
    """(num, den): the draws of rng.randint(-4, 4) and
    rng.choice(_RANDOM_DENOMINATORS), made as `_random_int` makes the first."""
    num = _random_int(rng)
    den = rng.getrandbits(3)
    while den >= 5:
        den = rng.getrandbits(3)
    return num, _RANDOM_DENOMINATORS[den]


def _random_fraction(rng: random.Random) -> Fraction:
    """The `_random_pair` draw as one Fraction."""
    return _RANDOM_FRACTIONS[_random_pair(rng)]


def _random_vector(cls, rng: random.Random):
    """cls of four `_random_fraction` draws, built in integer form from the
    drawn (num, den) pairs, so no Fraction is made or cleared."""
    pairs = [_random_pair(rng) for _ in range(4)]
    den = lcm(*(d for _, d in pairs))
    return cls._from_integers([n * (den // d) for n, d in pairs], den)


def _random_cubic(rng: random.Random) -> BinaryCubic:
    return _random_vector(BinaryCubic, rng)


def _random_dual(rng: random.Random) -> DualCubic:
    return _random_vector(DualCubic, rng)


def _random_group_element(rng: random.Random) -> GroupElement:
    while True:
        h = _random_vector(GroupElement, rng)
        if h.integer_entries()[5] != 0:  # det(h) times den^2
            return h


# --- oracles ------------------------------------------------------------------


def _poly_dx(p: list) -> list:
    """d/dx of a homogeneous polynomial in the plain basis (ints stay ints)."""
    return [p[i] * i for i in range(1, len(p))]


def _poly_dy(p: list) -> list:
    """d/dy of a homogeneous polynomial in the plain basis (ints stay ints)."""
    d = len(p) - 1
    return [p[i] * (d - i) for i in range(d)]


def _primitive(coeffs: list[int]) -> list[int]:
    """An integer coefficient list divided by its content; [] stays []."""
    g = gcd(*coeffs)
    return [c // g for c in coeffs]


def int_poly_gcd(p: list[int], q: list[int]) -> list[int]:
    """A primitive gcd of two integer coefficient lists (lowest degree
    first, trimmed), up to sign; [] when both are zero.

    Both are made primitive and reduced by the primitive pseudo-remainder
    sequence over Python ints: each step scales the remainder by the
    smallest factor that cancels its leading term, and each new remainder is
    made primitive.
    """
    p, q = _primitive(p), _primitive(q)
    while q:
        r, lead, n = p, q[-1], len(q)
        while len(r) >= n:  # one pseudo-division step: cancel r's leading term
            top, shift = r[-1], len(r) - n
            g = gcd(top, lead)
            rscale, qscale = lead // g, top // g
            r = [c * rscale for c in r]
            for j, c in enumerate(q):
                r[shift + j] -= qscale * c
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        p, q = q, _primitive(r)
    return p


def _gcd_poly(p: list[int], q: list[int]) -> list[int]:
    """Homogeneous gcd of two integer plain-basis polynomials, up to a
    constant factor."""
    # strip the x- and y-powers, take the univariate gcd, reassemble
    def split(p):
        if not any(p):
            return None
        lead = next(i for i, c in enumerate(p) if c != 0)
        tail = next(i for i, c in enumerate(reversed(p)) if c != 0)
        return lead, tail, p[lead : len(p) - tail]

    sp, sq = split(p), split(q)
    if sp is None:
        return list(q)
    if sq is None:
        return list(p)
    xp, yp, a = sp
    xq, yq, b = sq
    core = int_poly_gcd(a, b)
    gx, gy = min(xp, xq), min(yp, yq)
    return [0] * gx + core + [0] * gy


def _has_repeated_root(r: BinaryCubic) -> bool:
    """Brute-force oracle: gcd(r, dr/dx, dr/dy) is nonconstant.

    It runs on r's integer numerators, which have the same roots as r.  By
    Euler's identity 3 r = x dr/dx + y dr/dy, gcd(dr/dx, dr/dy) divides r,
    so that one gcd is the three-way gcd.
    """
    p = to_plain(r.integers()[0])
    if not any(p):
        return True
    return len(_gcd_poly(_poly_dx(p), _poly_dy(p))) - 1 > 0


def _moment_matrix_of(r: BinaryCubic) -> Matrix:
    """Matrix of the linear map s |-> entries of [r, s] (4 rows, 4 cols):
    column j is `moment` at the j-th unit dual cubic."""
    columns = [conormal.moment(r, s) for s in conormal.UNIT_DUALS]
    return Matrix(4, 4, [m[k // 2, k % 2] for k in range(4) for m in columns])


_GL2_BASIS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (row, col) of the four E_ij


def _lie_act_primal(ij, r: BinaryCubic | DualCubic) -> list[int]:
    """d/dt act(exp(t E_ij), r) at t = 0, as a plain-basis cubic, times r's
    common denominator (one nonzero scale per cubic, so no kernel moves)."""
    i, j = ij
    plain = to_plain(r.integers()[0])
    rx, ry = _poly_dx(plain), _poly_dy(plain)
    # (x X11 + y X21) r_x + (x X12 + y X22) r_y - tr(X) r
    cx = [int(i == 1 and j == 0), int(i == 0 and j == 0)]  # x coeff of X row
    cy = [int(i == 1 and j == 1), int(i == 0 and j == 1)]
    out = [a + b for a, b in zip(int_poly_mul(cx, rx), int_poly_mul(cy, ry))]
    return [a - b for a, b in zip(out, plain)] if i == j else out


def _stabilizer_dimension(r: BinaryCubic, s: DualCubic | None = None) -> int:
    """Dimension of the stabilizer of r (and s) via the infinitesimal action.

    act_dual(h) = act(t(h^{-1})), so E_ij acts on s as -E_ji acts on r.
    """
    rows = []
    for i, j in _GL2_BASIS:
        row = _lie_act_primal((i, j), r)
        if s is not None:
            row += [-c for c in _lie_act_primal((j, i), s)]
        rows.append(row)
    # rows index gl2 basis vectors; stabilizer = kernel of the transposed map
    m = Matrix.from_rows(rows).transpose()
    return len(kernel_basis(m))


# --- geometry checks ----------------------------------------------------------


def check_orbit_representatives() -> str | None:
    for orbit, rep in REPRESENTATIVES.items():
        if classify(rep) is not orbit:
            return f"{rep!r} classified as {classify(rep)} not {orbit}"
    return None


def check_discriminant_oracle(trials: int = 1000, seed: int = 101) -> str | None:
    rng = random.Random(seed)
    for k in range(trials):
        r = BinaryCubic._from_integers([_random_int(rng) for _ in range(4)], 1)
        lhs = discriminant(r) == 0
        rhs = _has_repeated_root(r)
        if lhs != rhs:
            return f"trial {k}: {r!r} D==0 is {lhs} but gcd oracle says {rhs}"
    return None


def check_classify_invariance(trials: int = 1000, seed: int = 102) -> str | None:
    rng = random.Random(seed)
    for k in range(trials):
        r = _random_cubic(rng)
        h = _random_group_element(rng)
        if classify(act(h, r)) is not classify(r):
            return f"trial {k}: class changed under {h!r}"
    return None


def check_action_matrix_identity(trials: int = 100, seed: int = 103) -> str | None:
    rng = random.Random(seed)
    for k in range(trials):
        r = _random_cubic(rng)
        h = _random_group_element(rng)
        via_matrix = act_matrix(h).matvec(list(r.coeffs))
        via_substitution = list(act(h, r).coeffs)
        if via_matrix != via_substitution:
            return f"trial {k}: matrix route {via_matrix} != substitution {via_substitution}"
    return None


def check_action_matrix_entries(trials: int = 5, seed: int = 104) -> str | None:
    """act_matrix agrees with the displayed closed-form entries."""
    rng = random.Random(seed)
    for k in range(trials):
        h = _random_group_element(rng)
        a, b, c, d = h.a, h.b, h.c, h.d
        dt = h.det()
        expected = Matrix.from_rows(
            [
                [e / dt for e in row]
                for row in [
                    [d**3, -3 * c * d**2, -3 * c**2 * d, -(c**3)],
                    [-b * d**2, d * (a * d + 2 * b * c), c * (2 * a * d + b * c), a * c**2],
                    [-(b**2) * d, b * (2 * a * d + b * c), a * (a * d + 2 * b * c), a**2 * c],
                    [-(b**3), 3 * a * b**2, 3 * a**2 * b, a**3],
                ]
            ]
        )
        if act_matrix(h) != expected:
            return f"trial {k}: closed-form mismatch at {h!r}"
    return None


def check_action_homomorphism(trials: int = 50, seed: int = 105) -> str | None:
    rng = random.Random(seed)
    for k in range(trials):
        h1 = _random_group_element(rng)
        h2 = _random_group_element(rng)
        if act_matrix(h1 * h2) != act_matrix(h1) @ act_matrix(h2):
            return f"trial {k}: act_matrix is not multiplicative"
    return None


# The discriminant transforms by det(h)^2; the exponent was pinned by a
# one-off oracle run over random group elements (scalars alone force an even
# power, and diag(t, 1) on the three-distinct representative fixes it at 2).
DISCRIMINANT_DET_POWER = 2


def check_discriminant_equivariance(trials: int = 200, seed: int = 106) -> str | None:
    rng = random.Random(seed)
    for k in range(trials):
        r = _random_cubic(rng)
        h = _random_group_element(rng)
        if discriminant(act(h, r)) != h.det() ** DISCRIMINANT_DET_POWER * discriminant(r):
            return f"trial {k}: D(h.r) != det^{DISCRIMINANT_DET_POWER} D(r) at {h!r}"
    return None


def check_hessian_quarter_determinant(trials: int = 200, seed: int = 107) -> str | None:
    """Coefficient formula equals (1/4) det Hess via symbolic expansion."""
    rng = random.Random(seed)
    for k in range(trials):
        r = _random_cubic(rng)
        # the expansion runs on r's integer numerators R = den r, whose
        # Hessian determinant is den^2 times r's
        nums, den = r.integers()
        p = to_plain(nums)
        px, py = _poly_dx(p), _poly_dy(p)
        pyy, pyx = _poly_dy(py), _poly_dx(py)
        pxx = _poly_dx(px)
        det = [a - b for a, b in zip(int_poly_mul(pyy, pxx), int_poly_mul(pyx, pyx))]
        quarter = [Fraction(c, 4 * den * den) for c in det]
        d0, d1, d2 = hessian_quadratic(r)
        if quarter != [d0, d1, d2]:
            return f"trial {k}: expansion {quarter} != formula {(d0, d1, d2)}"
    return None


def check_line_division_root(trials: int = 300, seed: int = 108) -> str | None:
    """divides(u, r) >= 1 iff r vanishes at the zero (u1, u2) of the form."""
    rng = random.Random(seed)
    for k in range(trials):
        r = _random_cubic(rng)
        if r.is_zero():
            continue
        u1, u2 = rng.randint(0, 3), rng.randint(-3, 3)
        u = Line(u1, u2) if (u1, u2) != (0, 0) else Line(1, 0)
        lhs = divides(u, r) >= 1
        rhs = evaluate(r, u.u1, u.u2) == 0
        if lhs != rhs:
            return f"trial {k}: division and evaluation disagree at {u!r}, {r!r}"
    return None


def check_pairing_trace(trials: int = 1000, seed: int = 109) -> str | None:
    rng = random.Random(seed)
    for k in range(trials):
        r, s = _random_cubic(rng), _random_dual(rng)
        if conormal.moment(r, s).trace() != conormal.pairing(r, s):
            return f"trial {k}: trace of moment != pairing"
    return None


def check_pairing_invariance(trials: int = 1000, seed: int = 110) -> str | None:
    rng = random.Random(seed)
    for k in range(trials):
        r, s = _random_cubic(rng), _random_dual(rng)
        h = _random_group_element(rng)
        if conormal.pairing(act(h, r), act_dual(h, s)) != conormal.pairing(r, s):
            return f"trial {k}: pairing moved under {h!r}"
    return None


def check_pairing_factored(trials: int = 500, seed: int = 111) -> str | None:
    rng = random.Random(seed)
    for k in range(trials):
        r = _random_cubic(rng)
        vs = [_random_fraction(rng) for _ in range(6)]
        s = conormal.dual_from_factors(*vs)
        direct = conormal.pairing(r, s)
        hessian = conormal.pairing_factored(r, *vs)
        if direct != hessian:
            return f"trial {k}: Hessian form {hessian} != coordinate form {direct}"
    return None


def check_dual_action_matrix(trials: int = 50, seed: int = 112) -> str | None:
    """act_dual is the contragredient of act with respect to the pairing.

    With G = diag(1, 3, 3, 1) the Gram matrix of the pairing and A the
    invertible matrix of act(h), the matrix D of act_dual(h) is the
    contragredient G^{-1} transpose(A^{-1}) G exactly when
    transpose(A) G D = G, which needs no inverse.
    """
    rng = random.Random(seed)
    gram = Matrix.from_rows(
        [[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]]
    )
    for k in range(trials):
        h = _random_group_element(rng)
        cols = [list(act_dual(h, e).coeffs) for e in conormal.UNIT_DUALS]
        dual_matrix = Matrix.from_rows(cols).transpose()
        if act_matrix(h).transpose() @ gram @ dual_matrix != gram:
            return f"trial {k}: dual action matrix mismatch at {h!r}"
    return None


# frames moving the representatives: the identity keeps the repeated line of
# C1 and C2 at [1:0], two frames move it to [1:t] with t = 5/2 and t = -9/2,
# and the swap moves it to [0:1]; the third makes the moved stabilizers
# non-integral, so their fixed-point test sees its scale factors
_FRAMES = (
    GroupElement(1, 0, 0, 1),
    GroupElement(2, -5, 1, 2),
    GroupElement(Fraction(1, 2), 3, -1, Fraction(2, 3)),
    GroupElement(0, 1, 1, 0),
)


# the codimension of each orbit: the dimension of its conormal fiber and of
# the stabilizer of each of its points
_CODIMENSIONS = {OrbitClass.C0: 4, OrbitClass.C1: 2, OrbitClass.C2: 1, OrbitClass.C3: 0}


def check_conormal_kernel_dims() -> str | None:
    """The exact kernel of each moved representative's moment matrix has the
    expected dimension, and `conormal_kernel` returns that basis."""
    for g in _FRAMES:
        for orbit, rep in REPRESENTATIVES.items():
            r = act(g, rep)
            solved = [DualCubic(*v) for v in kernel_basis(_moment_matrix_of(r))]
            got = len(solved)
            if got != _CODIMENSIONS[orbit]:
                return f"{orbit} moved by {g!r}: kernel dim {got} != {_CODIMENSIONS[orbit]}"
            if got + orbit.dim != 4:
                return f"{orbit} moved by {g!r}: kernel dim + orbit dim != 4"
            if conormal.conormal_kernel(r) != solved:
                return f"{orbit} moved by {g!r}: conormal_kernel differs from the solved kernel"
    return None


def check_conormal_kernel_typing() -> str | None:
    """Kernel typing via division: C2 kernels are perp triple lines, C1
    kernels are divisible twice by the perp line, on every moved
    representative."""
    for g in _FRAMES:
        r2 = act(g, REPRESENTATIVES[OrbitClass.C2])
        (lines2, _) = cubics.rational_lines(r2)
        v2 = {m: u for u, m in lines2}[2].perp()
        for s in conormal.conormal_kernel(r2):
            if divides(v2, s) != 3:
                return f"C2 kernel element {s!r} is not the cube of the perp line"
        r1 = act(g, REPRESENTATIVES[OrbitClass.C1])
        (lines1, _) = cubics.rational_lines(r1)
        v1 = lines1[0][0].perp()
        for s in conormal.conormal_kernel(r1):
            if divides(v1, s) < 2:
                return f"C1 kernel element {s!r} lacks a square perp factor"
    return None


def check_conormal_kernel_equivariance(trials: int = 100, seed: int = 113) -> str | None:
    rng = random.Random(seed)
    reps = [act(g, rep) for g in _FRAMES for rep in REPRESENTATIVES.values()]
    for k in range(trials):
        r = reps[rng.randrange(len(reps))]
        basis = conormal.conormal_kernel(r)
        if not basis:
            continue
        coeffs = [rng.randint(-3, 3) for _ in basis]
        s = DualCubic(0, 0, 0, 0)
        for c, vec in zip(coeffs, basis):
            s = s + vec.scale(c)
        h = _random_group_element(rng)
        if not conormal.moment(act(h, r), act_dual(h, s)).is_zero():
            return f"trial {k}: kernel membership lost under {h!r}"
    return None


def check_stabilizer_orders() -> str | None:
    expected_orders = {OrbitClass.C0: 1, OrbitClass.C1: 1, OrbitClass.C2: 1, OrbitClass.C3: 6}
    for orbit, base in REPRESENTATIVES.items():
        # the dimension is constant on the orbit: solved once, on the representative
        solved = _stabilizer_dimension(base)
        for g in _FRAMES:
            rep = act(g, base)
            desc = conormal.stabilizer_of_cubic(rep)
            if desc.dimension != _CODIMENSIONS[orbit]:
                return f"{orbit} moved by {g!r}: dimension {desc.dimension} != {_CODIMENSIONS[orbit]}"
            if solved != desc.dimension:
                return f"{orbit} moved by {g!r}: dimension {desc.dimension} != solved {solved}"
            elems = desc.group_elements()
            if len(elems) != expected_orders[orbit]:
                return f"{orbit} moved by {g!r}: component order {len(elems)} != {expected_orders[orbit]}"
            for h in elems:
                if act(h, rep) != rep:
                    return f"{orbit} moved by {g!r}: listed element {h!r} does not stabilize"
    return None


# the order of each component group, by the name the character tables use
_GROUP_ORDERS = {"S3": 6, "S2": 2}


def check_microlocal_orders() -> str | None:
    """The stabilizer of stratum i is A_psi_i: the group of the i-th Arthur
    parameter, named as the record names it, of that group's order."""
    for stratum, base in conormal.CANONICAL_REGULAR_PAIRS.items():
        group = rootdata.ARTHUR_PARAMETERS[stratum].component_group
        order = _GROUP_ORDERS[group]
        # the dimension is constant on the stratum: solved once, on the canonical pair
        solved = _stabilizer_dimension(base.r, base.s)
        for g in _FRAMES:
            point = conormal.ConormalPoint(act(g, base.r), act_dual(g, base.s))
            desc = conormal.microlocal_stabilizer(point)
            if desc.dimension != solved:
                return f"stratum {stratum} moved by {g!r}: dimension {desc.dimension} != solved {solved}"
            elems = desc.group_elements()
            if len(elems) != order:
                return f"stratum {stratum} moved by {g!r}: order {len(elems)} != {order}"
            if desc.component_group != group:
                return f"stratum {stratum} moved by {g!r}: group {desc.component_group}"
            for h in elems:
                if act(h, point.r) != point.r or act_dual(h, point.s) != point.s:
                    return f"stratum {stratum} moved by {g!r}: element {h!r} does not fix the pair"
    return None


def check_lambda_regular_base_points() -> str | None:
    for stratum, point in conormal.CANONICAL_REGULAR_PAIRS.items():
        got = conormal.in_lambda_regular(point)
        if got != stratum:
            return f"canonical pair of stratum {stratum} landed in {got}"
    return None


# --- sheaf checks ---------------------------------------------------------------


def check_stalk_solver(derived: Derived) -> str | None:
    solved = derived.stalk_ranks
    for key, value in sheaves.graded_stalk_totals(derived.tables).items():
        if solved[key] != value:
            return f"{key}: solved {solved[key]} != encoded {value}"
    return None


def check_rhoe_redundancy(derived: Derived) -> str | None:
    """The rhoE cover, left out of the solve, is satisfied by the solved ranks."""
    ranks, tables = derived.stalk_ranks, derived.tables
    decomp = tables.decompositions[sheaves.Cover.RHOE]
    for orbit in sheaves.ORBITS:
        total = sum(mult * ranks[(obj, orbit)] for (obj, _), mult in decomp.items())
        if total != tables.fiber_ranks[sheaves.Cover.RHOE][orbit]:
            return "rhoE cover equations are not satisfied by the solved ranks"
    return None


def check_fiber_rank_recompute(derived: Derived) -> str | None:
    fiber_ranks = derived.tables.fiber_ranks
    for (cover, orbit), count in sheaves.recomputed_finite_fiber_counts().items():
        if fiber_ranks[cover][orbit] != count:
            return f"{cover.value} at {orbit}: encoded {fiber_ranks[cover][orbit]} != recomputed {count}"
    return None


def check_geomult(derived: Derived) -> str | None:
    got = [list(row) for row in derived.geomult]
    expected = [
        [1, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0],
        [2, 1, 1, 0, 0, 0],
        [1, 1, 1, 1, 0, 0],
        [1, 0, 1, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    if got != expected:
        return f"geometric multiplicity matrix mismatch: {got}"
    return None


def check_kl_transpose(derived: Derived) -> str | None:
    """Geometric multiplicities equal the transposed module multiplicities."""
    geo, rep = derived.geomult, derived.tables.rep_multiplicity
    if any(geo[i][j] != rep[j][i] for i in range(len(rep)) for j in range(len(rep))):
        return "geometric multiplicity matrix is not the transposed module matrix"
    return None


def check_evs_zero_pattern(derived: Derived) -> str | None:
    """Raw rows vanish on strata above the support orbit."""
    for obj in sheaves.SIMPLE_ORDER:
        if any(stratum > obj.support.value for stratum in derived.tables.evs[obj]):
            return "a raw table entry lives above its support orbit"
    return None


def check_nevs_derivation(derived: Derived) -> str | None:
    for obj in sheaves.SIMPLE_ORDER:
        try:
            derived.nevs(obj)
        except sheaves.NEvsMismatch as exc:
            return str(exc)
    return None


def check_nevs_diagonal(derived: Derived) -> str | None:
    for obj in sheaves.SIMPLE_ORDER:
        if obj.local_system == "triv" and derived.nevs(obj).get(obj.support.value) != "one":
            return f"{obj.name}: normalised diagonal entry is not trivial"
    return None


def check_fourier_involution(derived: Derived) -> str | None:
    mapping = {obj: derived.fourier(obj)[1] for obj in sheaves.SIMPLE_ORDER}
    for obj, image in mapping.items():
        if mapping[image] is not obj:
            return f"fourier is not an involution at {obj.name}"
    return None


def check_local_system_rank_accounting() -> str | None:
    """The regular cover of stratum i holds each local system, an
    irreducible of the group of psi_i, as often as its rank chi(e), so the
    ranks' squares sum to |G|; so do the class sizes."""
    for meta in rootdata.ARTHUR_PARAMETERS:
        stratum, order = meta.index, _GROUP_ORDERS[meta.component_group]
        table = packets.character_table(meta.component_group)
        total = sum(table.values[(chi, "e")] ** 2 for chi in table.irreducibles)
        if total != order:
            return f"stratum {stratum}: total rank {total} != |G| = {order}"
        total = sum(table.sizes.values())
        if total != order:
            return f"stratum {stratum}: class sizes sum to {total} != |G| = {order}"
    return None


# --- packet checks ---------------------------------------------------------------


def check_packets_match(derived: Derived) -> str | None:
    for psi, got in enumerate(derived.packets):
        if got != packets.EXPECTED_PACKETS[psi]:
            return f"psi{psi}: packet {sorted(p.label() for p in got)}"
    return None


def check_lpacket_containment(derived: Derived) -> str | None:
    for i, got in enumerate(derived.packets):
        if not packets.L_PACKETS[i] <= got:
            return f"phi{i}: L-packet not inside the packet"
    return None


def check_supercuspidal_everywhere(derived: Derived) -> str | None:
    for psi, got in enumerate(derived.packets):
        if packets.Irreducible.PI3E not in got:
            return f"psi{psi}: missing the supercuspidal member"
    return None


def check_stable_characters(derived: Derived) -> str | None:
    for psi, theta in enumerate(derived.stable):
        if theta != packets.EXPECTED_STABLE[psi]:
            return f"psi{psi}: coefficients {theta}"
    return None


def check_change_of_basis(derived: Derived) -> str | None:
    got = derived.change_of_basis
    if got != packets.EXPECTED_CHANGE_OF_BASIS:
        return f"change of basis {got!r}"
    return None


def check_change_of_basis_roundtrip(derived: Derived) -> str | None:
    """The change of basis reproduces the Theta vectors from the standard
    rows and is invertible."""
    m = derived.change_of_basis
    stable = Matrix.from_rows(derived.stable)
    if m @ Matrix.from_rows(derived.standard_rows) != stable or rank(m) != m.rows:
        return "inverse does not round-trip the stable vectors"
    return None


def check_stable_independence(derived: Derived) -> str | None:
    if rank(Matrix.from_rows(derived.stable)) != 4:
        return "the four stable characters are not linearly independent"
    return None


def check_aubert(derived: Derived) -> str | None:
    expected = {
        packets.Irreducible.PI0: packets.Irreducible.PI3,
        packets.Irreducible.PI1: packets.Irreducible.PI3R,
        packets.Irreducible.PI2: packets.Irreducible.PI2,
        packets.Irreducible.PI3: packets.Irreducible.PI0,
        packets.Irreducible.PI3R: packets.Irreducible.PI1,
        packets.Irreducible.PI3E: packets.Irreducible.PI3E,
    }
    for pi, image in expected.items():
        if packets.aubert(pi, derived) is not image:
            return f"{pi.label()} -> {packets.aubert(pi, derived).label()}"
        if packets.aubert(image, derived) is not pi:
            return "involution failure"
    return None


def check_aubert_packet_swap(derived: Derived) -> str | None:
    pairs = [(m.index, m.swap_partner) for m in rootdata.ARTHUR_PARAMETERS if m.index < m.swap_partner]
    for a, b in pairs:
        image = {packets.aubert(pi, derived) for pi in derived.packets[a]}
        if image != derived.packets[b]:
            return f"psi{a} does not map onto psi{b}"
    return None


def check_temperedness_pattern(derived: Derived) -> str | None:
    p = derived.packets
    if not all(pi.tempered for pi in p[3]):
        return "packet 3 contains a non-tempered member"
    chars3 = {packets.pairing_character(3, pi, derived) for pi in p[3]}
    if chars3 != set(packets.character_table("S3").irreducibles):
        return "packet 3 pairing is not bijective onto the S3 dual"
    for psi in (0, 1, 2):
        if all(pi.tempered for pi in p[psi]):
            return f"psi{psi}: expected a non-tempered member"
    vals1 = [packets.pairing_character(1, pi, derived) for pi in p[1]]
    if len(set(vals1)) == len(vals1):
        return "psi1 pairing is unexpectedly injective"
    spherical_vals = [
        packets.pairing_character(psi, packets.Irreducible.PI0, derived)
        for psi in range(4)
        if packets.Irreducible.PI0 in p[psi]
    ]
    if any(v != "1" for v in spherical_vals):
        return "spherical member pairs non-trivially"
    return None


def check_character_orthogonality() -> str | None:
    for group, order in _GROUP_ORDERS.items():
        table = packets.character_table(group)
        sizes = table.sizes
        for chi1 in table.irreducibles:
            for chi2 in table.irreducibles:
                total = sum(
                    sizes[c] * table.values[(chi1, c)] * table.values[(chi2, c)]
                    for c in table.classes
                )
                if total != (order if chi1 == chi2 else 0):
                    return f"{group}: <{chi1}, {chi2}> = {total}"
    return None


# --- root-data checks --------------------------------------------------------------


def check_cartan_matrices() -> str | None:
    if rootdata.CARTAN_G2 != ((2, -1), (-3, 2)) or rootdata.CARTAN_DUAL != ((2, -3), (-1, 2)):
        return "Cartan matrices are wrong"
    return None


def check_coroot_relations() -> str | None:
    expected = {(1, 1): (3, 1), (1, 2): (3, 2), (1, 3): (1, 1), (2, 3): (2, 1)}
    for (a, b), pair in expected.items():
        if rootdata.coroot(rootdata.Root(a, b)) != pair:
            return f"coroot of {a}a+{b}b is {rootdata.coroot(rootdata.Root(a, b))}"
    return None


def check_weight_spaces() -> str | None:
    plus = {(r.a, r.b) for r in rootdata.WEIGHT_SPACES[1]}
    if plus != {(1, 0), (1, 1), (1, 2), (1, 3)}:
        return f"weight +1 space is {sorted(plus)}"
    minus = {(r.a, r.b) for r in rootdata.WEIGHT_SPACES[-1]}
    if minus != {(-1, 0), (-1, -1), (-1, -2), (-1, -3)}:
        return f"weight -1 space is {sorted(minus)}"
    sizes = [len(rootdata.WEIGHT_SPACES[e]) for e in (-2, -1, 0, 1, 2)]
    if sizes != [1, 4, 2, 4, 1]:
        return f"weight partition sizes {sizes}"
    return None


def check_cartan_from_weights() -> str | None:
    simple = [rootdata.Root(1, 0), rootdata.Root(0, 1)]
    for i, gamma in enumerate(simple):
        for j, delta in enumerate(simple):
            if rootdata.root_coroot_pairing(gamma, delta) != rootdata.CARTAN_DUAL[i][j]:
                return f"<{gamma}, {delta}^vee> != Cartan entry"
    for gamma in rootdata.POSITIVE_ROOTS_DUAL:
        if rootdata.root_coroot_pairing(gamma, gamma) != 2:
            return f"<{gamma}, {gamma}^vee> != 2"
    return None


def check_root_closure() -> str | None:
    roots = rootdata.ROOTS
    if len(roots) != 12 or len(set((r.a, r.b) for r in roots)) != 12:
        return "root list is not twelve distinct roots"
    pairs = {(r.a, r.b) for r in roots}
    if any((-a, -b) not in pairs for a, b in pairs):
        return "roots are not closed under negation"
    return None


def check_torus_selfcheck() -> str | None:
    # h_alpha(q^2) h_beta(q) is the coroot form (2 alpha^vee + beta^vee)(q)
    # and must give m(q, q), the explicit unramified-parameter value, which is
    # normative; the composite h_alpha(q) h_beta(q^2) gives m(q^2, q^{-1}).
    if rootdata.coroot_torus_exponents((2, 1)) != rootdata.FROBENIUS_TORUS:
        return "coroot form of the Frobenius element does not give m(q, q)"
    if rootdata.coroot_torus_exponents((1, 2)) == rootdata.FROBENIUS_TORUS:
        return "unexpected: the composite h_a(q) h_b(q^2) matches m(q, q)"
    return None


def check_arthur_metadata() -> str | None:
    metas = rootdata.ARTHUR_PARAMETERS
    if [m.component_group for m in metas] != ["S3", "S2", "S2", "S3"]:
        return "component groups wrong"
    if [m.s_psi_class for m in metas] != ["e", "t", "t", "e"]:
        return "s_psi images wrong"
    if [m.swap_partner for m in metas] != [3, 2, 1, 0]:
        return "swap partners wrong"
    return None


def check_formal_degree_simplification() -> str | None:
    data = rootdata.adjoint_gamma_data()
    if data.dim_sigma != rootdata.dim_sigma_simplified():
        return "dim sigma does not reduce to q(q-1)^2(q^2-q+1)/6"
    return None


def check_formal_degree_values() -> str | None:
    data = rootdata.adjoint_gamma_data()
    if eval_q(data.dim_sigma, 2) != 1:
        return f"dim sigma at q=2 is {eval_q(data.dim_sigma, 2)}"
    if eval_q(data.dim_sigma, 3) != 14:
        return f"dim sigma at q=3 is {eval_q(data.dim_sigma, 3)}"
    if eval_q(data.gamma0, 2) != Fraction(512, 63):
        return f"gamma(0) at q=2 is {eval_q(data.gamma0, 2)}"
    return None


def check_gamma_from_l_factor() -> str | None:
    data = rootdata.adjoint_gamma_data()
    derived = data.epsilon_power(0) * (data.l_factor(1) / data.l_factor(0))
    if derived != data.gamma0:
        return "gamma(0) != epsilon(0) L(1)/L(0)"
    return None


def check_dim_sigma_integrality() -> str | None:
    data = rootdata.adjoint_gamma_data()
    for q0 in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        value = eval_q(data.dim_sigma, q0)
        if value.denominator != 1 or value <= 0:
            return f"dim sigma at q={q0} is {value}"
    return None


# --- registry -----------------------------------------------------------------------


CHECKS: list[tuple[str, str, object]] = [
    ("orbit-representatives", "geometry", check_orbit_representatives),
    ("discriminant-repeated-root-oracle", "geometry", check_discriminant_oracle),
    ("classify-action-invariance", "geometry", check_classify_invariance),
    ("action-matrix-substitution", "geometry", check_action_matrix_identity),
    ("action-matrix-entries", "geometry", check_action_matrix_entries),
    ("action-matrix-homomorphism", "geometry", check_action_homomorphism),
    ("discriminant-equivariance", "geometry", check_discriminant_equivariance),
    ("hessian-quarter-determinant", "geometry", check_hessian_quarter_determinant),
    ("line-division-root-convention", "geometry", check_line_division_root),
    ("pairing-trace-of-moment", "geometry", check_pairing_trace),
    ("pairing-invariance", "geometry", check_pairing_invariance),
    ("pairing-factored-hessian", "geometry", check_pairing_factored),
    ("dual-action-matrix", "geometry", check_dual_action_matrix),
    ("conormal-kernel-dimensions", "geometry", check_conormal_kernel_dims),
    ("conormal-kernel-typing", "geometry", check_conormal_kernel_typing),
    ("conormal-kernel-equivariance", "geometry", check_conormal_kernel_equivariance),
    ("stabilizer-orders", "geometry", check_stabilizer_orders),
    ("microlocal-stabilizer-orders", "geometry", check_microlocal_orders),
    ("lambda-regular-base-points", "geometry", check_lambda_regular_base_points),
    ("stalk-solver", "sheaves", check_stalk_solver),
    ("rhoE-redundant-equations", "sheaves", check_rhoe_redundancy),
    ("fiber-rank-recompute", "sheaves", check_fiber_rank_recompute),
    ("geometric-multiplicity-matrix", "sheaves", check_geomult),
    ("kl-transpose", "sheaves", check_kl_transpose),
    ("evs-zero-pattern", "sheaves", check_evs_zero_pattern),
    ("nevs-derivation", "sheaves", check_nevs_derivation),
    ("nevs-diagonal", "sheaves", check_nevs_diagonal),
    ("fourier-involution", "sheaves", check_fourier_involution),
    ("local-system-rank-accounting", "sheaves", check_local_system_rank_accounting),
    ("packets-from-nevs", "packets", check_packets_match),
    ("lpacket-containment", "packets", check_lpacket_containment),
    ("supercuspidal-in-every-packet", "packets", check_supercuspidal_everywhere),
    ("stable-characters", "packets", check_stable_characters),
    ("standard-module-matrix", "packets", check_change_of_basis),
    ("standard-module-roundtrip", "packets", check_change_of_basis_roundtrip),
    ("stable-independence", "packets", check_stable_independence),
    ("aubert-involution", "packets", check_aubert),
    ("aubert-packet-swap", "packets", check_aubert_packet_swap),
    ("temperedness-pattern", "packets", check_temperedness_pattern),
    ("character-orthogonality", "packets", check_character_orthogonality),
    ("cartan-matrices", "g2", check_cartan_matrices),
    ("coroot-relations", "g2", check_coroot_relations),
    ("weight-space-partition", "g2", check_weight_spaces),
    ("cartan-from-weights", "g2", check_cartan_from_weights),
    ("root-closure", "g2", check_root_closure),
    ("frobenius-torus-selfcheck", "g2", check_torus_selfcheck),
    ("arthur-metadata", "g2", check_arthur_metadata),
    ("formal-degree-simplification", "g2", check_formal_degree_simplification),
    ("formal-degree-values", "g2", check_formal_degree_values),
    ("gamma-from-l-factor", "g2", check_gamma_from_l_factor),
    ("dim-sigma-integrality", "g2", check_dim_sigma_integrality),
]

# computed once from the plain functions: a tracer may later swap the CHECKS
# entries for *args wrappers, whose signatures no longer name `derived` or
# `trials`
_TABLE_CHECKS = {
    name for name, _, fn in CHECKS if "derived" in inspect.signature(fn).parameters
}
_RANDOMIZED_CHECKS = {
    name for name, _, fn in CHECKS if "trials" in inspect.signature(fn).parameters
}


def _run(entry: tuple, derived: Derived) -> CheckResult:
    """Run one registry entry; a raising check is a failing check."""
    name, check_scope, fn = entry
    try:
        witness = fn(derived) if name in _TABLE_CHECKS else fn()
    except Exception as exc:
        witness = f"{type(exc).__name__}: {exc}"
    return CheckResult(name, check_scope, witness is None, witness or "")


def _take(tasks, entries: list, derived: Derived):
    """Read positions from the task pipe one byte at a time, until it is
    empty, and yield (position, result) of the entry at each."""
    while task := tasks.read(1):
        yield task[0], _run(entries[task[0]], derived)


def _can_fork_a_worker() -> bool:
    """Whether a forked worker can run beside this process: `os.fork` exists,
    this process runs one thread (a fork copies no other, and the signal mask
    below is per thread) and it may run on two or more CPUs."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and threading.active_count() == 1
        and len(os.sched_getaffinity(0)) >= 2
    )


def run_checks(scope: str, derived: Derived) -> list[CheckResult]:
    """Run every check in the scope ("all" or one scope) against the facts
    derived from one table set; never stops early.  A scope with a randomized
    check runs on two processes when it can (see the module docstring)."""
    entries = [entry for entry in CHECKS if scope in ("all", entry[1])]
    if not (any(name in _RANDOMIZED_CHECKS for name, _, _ in entries) and _can_fork_a_worker()):
        return [_run(entry, derived) for entry in entries]
    results: list[CheckResult | None] = [None] * len(entries)
    task_read, task_write = os.pipe()
    read_end, write_end = os.pipe()
    with open(task_write, "wb") as queue:
        queue.write(bytes(range(len(entries))))  # one byte per position
    with (
        open(task_read, "rb", buffering=0) as tasks,
        open(read_end, "rb") as reply,
        open(write_end, "wb") as out,
    ):
        held = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        pid = -1  # no worker
        try:
            # every signal is blocked across the fork, and in the worker for
            # good: no handler can run before the parent is inside this try,
            # nor unwind the worker into the caller's stack
            signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            with contextlib.suppress(OSError):  # no worker: its reply is empty
                pid = os.fork()
            if pid == 0:
                try:
                    sent = [(i, r.passed, r.witness) for i, r in _take(tasks, entries, derived)]
                    out.write(json.dumps(sent).encode())
                    out.close()
                finally:
                    os._exit(0)
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            out.close()  # the read below ends when the worker's copy closes
            for i, result in _take(tasks, entries, derived):
                results[i] = result
            data = reply.read()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            if pid > 0:
                os.kill(pid, signal.SIGKILL)  # no effect on a worker that has exited
                os.waitpid(pid, 0)
    try:
        sent = json.loads(data)
    except ValueError:
        sent = []
    for i, passed, witness in sent:
        name, check_scope, _ = entries[i]
        results[i] = CheckResult(name, check_scope, passed, witness)
    # a position with no result was taken by a worker that died before its reply
    return [_run(entry, derived) if r is None else r for entry, r in zip(entries, results)]
