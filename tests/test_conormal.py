import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from g2cubics import cli, conormal, linalg, verify
from g2cubics.conormal import (
    ConormalPoint,
    IrrationalSplitting,
    NotRegularConormal,
    canonical_regular_pairs,
    conormal_kernel,
    dual_from_factors,
    dual_orbit_class,
    in_lambda_regular,
    microlocal_stabilizer,
    moment,
    pairing,
    pairing_factored,
    stabilizer_of_cubic,
)
from g2cubics.cubics import (
    BinaryCubic,
    DualCubic,
    GroupElement,
    OrbitClass,
    REPRESENTATIVES,
    act,
    act_dual,
    classify,
    divides,
    rational_lines,
)
from g2cubics.linalg import Matrix, kernel_basis, parse_rational
from g2cubics.verify import _moment_matrix_of, _stabilizer_dimension

from fraction_reference import line_cubic

XY_X_PLUS_Y = (0, Fraction(-1, 3), Fraction(-1, 3), 0)


def rng_cubic(rng, cls=BinaryCubic):
    return cls(*(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(4)))


def rng_element(rng):
    while True:
        h = GroupElement(*(Fraction(rng.randint(-4, 4)) for _ in range(4)))
        if h.det() != 0:
            return h


def test_pairing_examples():
    assert pairing(BinaryCubic(0, 0, 0, 0), DualCubic(0, 0, 0, 0)) == 0
    assert pairing(BinaryCubic(1, 0, 0, 0), DualCubic(5, 7, 0, 0)) == 5
    assert pairing(BinaryCubic(1, 0, 1, 0), DualCubic(0, 1, 0, 1)) == 0


def test_pairing_is_trace_of_moment():
    rng = random.Random(11)
    for _ in range(300):
        r, s = rng_cubic(rng), rng_cubic(rng, DualCubic)
        assert moment(r, s).trace() == pairing(r, s)


def test_pairing_invariance():
    rng = random.Random(12)
    for _ in range(300):
        r, s, h = rng_cubic(rng), rng_cubic(rng, DualCubic), rng_element(rng)
        assert pairing(act(h, r), act_dual(h, s)) == pairing(r, s)


def test_pairing_factored_examples():
    r = BinaryCubic(2, -1, 3, 5)
    assert pairing_factored(r, 0, 0, 1, 2, 3, 4) == 0
    assert pairing_factored(BinaryCubic(1, 0, 0, 0), 1, 0, 1, 0, 1, 0) == 1


def test_pairing_factored_matches_expansion():
    rng = random.Random(13)
    for _ in range(200):
        r = rng_cubic(rng)
        vs = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        assert pairing_factored(r, *vs) == pairing(r, dual_from_factors(*vs))


def test_pairing_factored_is_symmetric_in_factors():
    rng = random.Random(14)
    for _ in range(50):
        r = rng_cubic(rng)
        vs = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        base = pairing_factored(r, *vs)
        assert pairing_factored(r, vs[2], vs[3], vs[0], vs[1], vs[4], vs[5]) == base
        assert pairing_factored(r, vs[4], vs[5], vs[2], vs[3], vs[0], vs[1]) == base


def test_moment_examples():
    assert moment(BinaryCubic(0, 0, 0, 0), DualCubic(1, 2, 3, 4)).is_zero()
    m = moment(BinaryCubic(1, 0, 0, 0), DualCubic(5, 7, 0, 0))
    assert m.to_rows() == [[5, 0], [-7, 0]]
    assert moment(BinaryCubic(0, 1, 0, 0), DualCubic(0, 0, 0, 1)).is_zero()


def test_conormal_kernel_examples():
    assert conormal_kernel(BinaryCubic(1, 0, 1, 0)) == []
    assert conormal_kernel(BinaryCubic(0, 1, 0, 0)) == [DualCubic(0, 0, 0, 1)]
    assert conormal_kernel(BinaryCubic(1, 0, 0, 0)) == [
        DualCubic(0, 0, 1, 0),
        DualCubic(0, 0, 0, 1),
    ]


def test_conormal_kernel_dimension_count():
    expected = {OrbitClass.C0: 4, OrbitClass.C1: 2, OrbitClass.C2: 1, OrbitClass.C3: 0}
    from g2cubics.cubics import REPRESENTATIVES

    for orbit, rep in REPRESENTATIVES.items():
        basis = conormal_kernel(rep)
        assert len(basis) == expected[orbit]
        assert len(basis) + orbit.dim == 4
        for s in basis:
            assert moment(rep, s).is_zero()


def test_conormal_kernel_typing():
    # double-line input: kernel elements are cubes of the perpendicular line
    r2 = BinaryCubic(0, 1, 0, 0)
    u = {m: line for line, m in rational_lines(r2)[0]}[2]
    for s in conormal_kernel(r2):
        assert divides(u.perp(), s) == 3
    # triple-line input: kernel elements have the perpendicular line squared
    r1 = BinaryCubic(1, 0, 0, 0)
    u = rational_lines(r1)[0][0][0]
    for s in conormal_kernel(r1):
        assert divides(u.perp(), s) >= 2


def test_kernel_membership_is_equivariant():
    rng = random.Random(15)
    from g2cubics.cubics import REPRESENTATIVES

    for _ in range(100):
        r = REPRESENTATIVES[OrbitClass(rng.randrange(4))]
        basis = conormal_kernel(r)
        if not basis:
            continue
        s = DualCubic(0, 0, 0, 0)
        for v in basis:
            s = s + v.scale(rng.randint(-3, 3))
        h = rng_element(rng)
        assert moment(act(h, r), act_dual(h, s)).is_zero()


def test_dual_orbit_classes():
    assert [dual_orbit_class(i) for i in range(4)] == [
        OrbitClass.C3,
        OrbitClass.C2,
        OrbitClass.C1,
        OrbitClass.C0,
    ]
    # the dual cubic of each canonical pair has the type of its dual orbit
    for i, p in canonical_regular_pairs().items():
        assert classify(p.s) is dual_orbit_class(i)
    assert [dual_orbit_class(i).structure for i in range(4)] == [
        "three_distinct",
        "double_plus_simple",
        "triple_line",
        "zero",
    ]


def test_in_lambda_regular_examples():
    assert in_lambda_regular(ConormalPoint(BinaryCubic(1, 0, 1, 0), DualCubic(0, 0, 0, 0))) == 3
    assert in_lambda_regular(ConormalPoint(BinaryCubic(0, 1, 0, 0), DualCubic(0, 0, 0, 1))) == 2
    assert in_lambda_regular(ConormalPoint(BinaryCubic(1, 0, 1, 0), DualCubic(0, 1, 0, 1))) is None


def test_canonical_pairs_land_in_their_strata():
    for stratum, point in canonical_regular_pairs().items():
        assert in_lambda_regular(point) == stratum
        assert moment(point.r, point.s).is_zero()


def test_stabilizer_dimensions_by_orbit():
    assert _stabilizer_dimension(BinaryCubic(0, 0, 0, 0)) == 4
    assert _stabilizer_dimension(BinaryCubic(1, 0, 0, 0)) == 2
    assert _stabilizer_dimension(BinaryCubic(0, 1, 0, 0)) == 1
    assert _stabilizer_dimension(BinaryCubic(*XY_X_PLUS_Y)) == 0


def test_stabilizer_dimension_of_dual_cubics():
    # the dual infinitesimal action alone (r = 0), then paired with r
    duals = [DualCubic(*r.coeffs) for r in REPRESENTATIVES.values()]
    assert [_stabilizer_dimension(BinaryCubic(0, 0, 0, 0), s) for s in duals] == [4, 2, 1, 0]
    pairs = zip(REPRESENTATIVES.values(), duals)
    assert [_stabilizer_dimension(r, s) for r, s in pairs] == [4, 1, 1, 0]


def test_stabilizer_descriptions():
    d = stabilizer_of_cubic(BinaryCubic(1, 0, 0, 0))
    assert (d.dimension, d.component_group) == (2, "trivial")
    d = stabilizer_of_cubic(BinaryCubic(0, 1, 0, 0))
    assert (d.dimension, d.component_group) == (1, "trivial")
    d = stabilizer_of_cubic(BinaryCubic(0, 0, 0, 0))
    assert (d.dimension, d.component_group) == (4, "trivial")


def test_split_c3_stabilizer_is_s3():
    r = BinaryCubic(*XY_X_PLUS_Y)
    d = stabilizer_of_cubic(r)
    assert (d.dimension, d.component_group) == (0, "S3")
    elems = d.group_elements()
    assert len(elems) == 6
    assert GroupElement(0, -1, -1, 0) in elems
    for h in elems:
        assert act(h, r) == r
    # closure under products and inverses
    for g in elems:
        for h in elems:
            assert g * h in elems
        assert g.inverse() in elems


def test_non_split_c3_raises():
    with pytest.raises(IrrationalSplitting):
        stabilizer_of_cubic(BinaryCubic(1, 0, 1, 0))


def test_microlocal_orders_at_canonical_pairs():
    expected = {0: (6, "S3"), 1: (2, "S2"),
                2: (2, "S2"), 3: (6, "S3")}
    for stratum, point in canonical_regular_pairs().items():
        d = microlocal_stabilizer(point)
        order, group = expected[stratum]
        assert d.component_group == group
        elems = d.group_elements()
        assert len(elems) == order
        for h in elems:
            assert act(h, point.r) == point.r
            assert act_dual(h, point.s) == point.s


def test_microlocal_involutions_in_standard_coordinates():
    pairs = canonical_regular_pairs()
    d2 = microlocal_stabilizer(pairs[2])
    assert set(d2.group_elements()) == {GroupElement.identity(), GroupElement.diagonal(-1, 1)}
    d1 = microlocal_stabilizer(pairs[1])
    assert set(d1.group_elements()) == {GroupElement.identity(), GroupElement.diagonal(1, -1)}


def test_microlocal_on_translated_pair():
    # move the stratum-2 canonical pair by a group element and recompute
    h = GroupElement(2, 1, 1, 1)
    base = canonical_regular_pairs()[2]
    moved = ConormalPoint(act(h, base.r), act_dual(h, base.s))
    assert in_lambda_regular(moved) == 2
    d = microlocal_stabilizer(moved)
    assert d.component_group == "S2"
    assert len(d.group_elements()) == 2


def test_microlocal_rejects_non_regular_points():
    with pytest.raises(NotRegularConormal):
        microlocal_stabilizer(ConormalPoint(BinaryCubic(1, 0, 1, 0), DualCubic(0, 1, 0, 1)))


def test_stabilizer_json():
    d = stabilizer_of_cubic(BinaryCubic(0, 1, 0, 0))
    payload = d.to_json()
    assert payload["dimension"] == 1
    assert payload["component_group"] == "trivial"


# -- the S3 stabilizer by transport of a base stabilizer ------------------------


def reference_s3_generators(r):
    """The former route to the six stabilizer elements of a three-line cubic:
    for each permutation of the lines solve the linear equations 'u adj(h)
    parallel to w' for h, then rescale h so that act(h, r) = r."""
    lines = [u for u, _ in rational_lines(r)[0]]
    out = []
    for perm in permutations(range(3)):
        rows = [
            [-u.u2 * w.u1, u.u1 * w.u1, -u.u2 * w.u2, u.u1 * w.u2]
            for u, w in zip(lines, [lines[p] for p in perm])
        ]
        [(a, b, c, d)] = kernel_basis(Matrix.from_rows(rows))
        image = act(GroupElement(a, b, c, d), r)
        t = next(y / x for x, y in zip(image.coeffs, r.coeffs) if y != 0)
        out.append(GroupElement(t * a, t * b, t * c, t * d))
    return out


@st.composite
def slopes(draw):
    """A line [1:t]: t an integer or a fraction of 1 to 1000 digits."""
    digits = draw(st.sampled_from((1, 2, 20, 100, 1000)))
    num = draw(st.integers(-(10**digits), 10**digits))
    den = draw(st.sampled_from((1, draw(st.integers(1, 10**digits)))))
    return (1, Fraction(num, den))


three_line_cubics = st.builds(
    lambda lines, scale: line_cubic(*lines).scale(scale),
    st.lists(
        st.one_of(st.just((0, 1)), st.just((1, 0)), slopes()),
        min_size=3,
        max_size=3,
        unique_by=lambda u: Fraction(u[1]) if u[0] else None,
    ),
    st.fractions().filter(bool),
)


@settings(max_examples=40, deadline=None)
@given(three_line_cubics)
@example(BinaryCubic(*XY_X_PLUS_Y))
@example(BinaryCubic(0, Fraction(1, 3), Fraction(-1, 3), 0))  # y x (x - y), the base point
@example(line_cubic((1, Fraction(10**999 + 7, 3**2000)), (1, 1 - 10**1000), (0, 1)))
def test_s3_generators_match_the_line_permutation_solve(r):
    got = stabilizer_of_cubic(r)
    assert (got.dimension, got.component_group) == (0, "S3")
    assert got.to_json()["generators"] == [h.to_json() for h in reference_s3_generators(r)]


def mirror(p):
    """The swapped pair (s, r): s read as a cubic, r as a dual cubic."""
    return ConormalPoint(BinaryCubic(*p.s.coeffs), DualCubic(*p.r.coeffs))


def test_regular_strata_moved_by_the_group_keep_their_groups():
    rng = random.Random(16)
    pairs = canonical_regular_pairs()
    for stratum in range(4):
        group, order = ("S3", 6) if stratum in (0, 3) else ("S2", 2)
        for _ in range(15):
            h = rng_element(rng).inverse() * rng_element(rng)  # fractional entries too
            p = ConormalPoint(act(h, pairs[stratum].r), act_dual(h, pairs[stratum].s))
            d = microlocal_stabilizer(p)
            assert (d.dimension, d.component_group) == (0, group)
            elems = d.group_elements()
            assert len(elems) == order
            for g in elems:
                assert act(g, p.r) == p.r
                assert act_dual(g, p.s) == p.s
            if stratum < 2:  # t(g^{-1}) of the mirror's stabilizer, on stratum 3 - i
                mirrored = microlocal_stabilizer(mirror(p)).generators
                assert d.generators == [g.inverse().transpose() for g in mirrored]
            if stratum == 0:  # the mirror's stabilizer is that of s read as a cubic
                primal = stabilizer_of_cubic(BinaryCubic(*p.s.coeffs)).generators
                assert d.generators == [g.inverse().transpose() for g in primal]
            if stratum == 3:
                assert d.generators == stabilizer_of_cubic(p.r).generators


@st.composite
def group_elements(draw):
    """An invertible g, its entries integers or fractions of 1 to 1000 digits."""
    digits = draw(st.sampled_from((1, 2, 20, 100, 1000)))
    ints = st.integers(-(10**digits), 10**digits)
    den = st.one_of(st.just(1), st.integers(1, 10**digits))
    g = GroupElement(*(Fraction(draw(ints), draw(den)) for _ in range(4)))
    assume(g.det() != 0)
    return g


def reference_involution(r, s, stratum):
    """The former frames of the S2 generator on strata 1 and 2: a substitution
    sending the base lines onto the double and simple lines of r (stratum 2)
    or, on the dual side, of s (stratum 1), conjugating a base involution."""
    if stratum == 2:
        by_mult = {m: u for u, m in rational_lines(r)[0]}
        u, uprime = by_mult[2], by_mult[1]
        g = GroupElement(-uprime.u2, -u.u2, uprime.u1, u.u1)
        base = GroupElement.diagonal(-1, 1)
    else:
        by_mult = {m: v for v, m in rational_lines(s)[0]}
        v, vprime = by_mult[2], by_mult[1]
        g = GroupElement(-v.u2, -vprime.u2, v.u1, vprime.u1).inverse().transpose()
        base = GroupElement.diagonal(1, -1)
    return g * base * g.inverse()


@st.composite
def cubic_pairs(draw):
    """(r, s) with entries integers or fractions of 1 to 1000 digits."""
    digits = draw(st.sampled_from((1, 2, 20, 100, 1000)))
    ints = st.integers(-(10**digits), 10**digits)
    den = st.one_of(st.just(1), st.integers(1, 10**digits))
    r, s = (tuple(Fraction(draw(ints), draw(den)) for _ in range(4)) for _ in range(2))
    return BinaryCubic(*r), DualCubic(*s)


@settings(max_examples=30, deadline=None)
@given(group_elements(), cubic_pairs())
@example(GroupElement(1, 0, 0, 1), (BinaryCubic(1, 2, 3, 4), DualCubic(5, 6, 7, 8)))
@example(
    GroupElement(Fraction(10**999 + 7, 3**2000), 1 - 10**1000, 1, 10**1000),
    (BinaryCubic(10**1000, Fraction(1, 3**2000), -7, 0), DualCubic(0, 1 - 10**999, 2, 3)),
)
def test_the_mirror_swaps_strata_and_keeps_the_involutions(g, pair):
    r, s = pair
    m = mirror(ConormalPoint(r, s))
    assert moment(m.r, m.s) == moment(r, s).transpose()
    for stratum, base in canonical_regular_pairs().items():
        p = ConormalPoint(act(g, base.r), act_dual(g, base.s))
        assert in_lambda_regular(mirror(p)) == 3 - stratum
        if stratum in (1, 2):
            [h] = microlocal_stabilizer(p).generators
            assert h == reference_involution(p.r, p.s, stratum)


# the dimensions `microlocal_stabilizer` and `conormal_kernel` state by the
# strata are checked against the exact elimination
@settings(max_examples=30, deadline=None)
@given(group_elements())
@example(GroupElement(1, 0, 0, 1))
@example(GroupElement(Fraction(10**999 + 7, 3**2000), 1 - 10**1000, 1, 10**1000))
def test_microlocal_dimension_is_the_solved_one_on_moved_pairs(g):
    for stratum, base in canonical_regular_pairs().items():
        p = ConormalPoint(act(g, base.r), act_dual(g, base.s))
        assert _stabilizer_dimension(p.r, p.s) == microlocal_stabilizer(p).dimension == 0


@settings(max_examples=30, deadline=None)
@given(group_elements())
@example(GroupElement(1, 0, 0, 1))
@example(GroupElement(0, 1, 1, 0))
@example(GroupElement(Fraction(10**999 + 7, 3**2000), 1 - 10**1000, 1, 10**1000))
def test_conormal_kernel_is_the_solved_one_on_moved_representatives(g):
    for rep in REPRESENTATIVES.values():
        r = act(g, rep)
        solved = [DualCubic(*v) for v in kernel_basis(_moment_matrix_of(r))]
        assert conormal_kernel(r) == solved


GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")


@contextlib.contextmanager
def _kernel_basis_calls():
    """Count the calls of `linalg.kernel_basis` through every g2cubics module
    that holds it; the eliminations are `verify`'s oracles, so no command
    path may call it."""
    real = linalg.kernel_basis
    counting = mock.Mock(wraps=real)
    holders = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("g2cubics") and getattr(module, "kernel_basis", None) is real
    ]
    assert linalg in holders
    with contextlib.ExitStack() as stack:
        for module in holders:
            stack.enter_context(mock.patch.object(module, "kernel_basis", counting))
        yield counting


def test_no_command_path_solves_a_linear_system(capsys):
    # every command of the CLI snapshot but `verify`, and the microlocal
    # stabilizers of the canonical pairs moved by verify's frames
    commands = [argv for argv in map(str.split, json.loads(GOLDEN_CLI.read_text())) if "verify" not in argv]
    named = {word for argv in commands for word in argv if word in cli.COMMANDS}
    assert named == set(cli.COMMANDS) - {"verify"}
    with _kernel_basis_calls() as counting:
        for argv in commands:
            cli.main(argv)
        for g in verify._FRAMES:
            for base in canonical_regular_pairs().values():
                point = ConormalPoint(act(g, base.r), act_dual(g, base.s))
                assert microlocal_stabilizer(point).dimension == 0
    assert counting.call_count == 0


def test_split_c3_stabilizer_solves_no_linear_system(capsys):
    with _kernel_basis_calls() as counting:
        assert cli.main(["stabilizer", "0", "-1/3", "-1/3", "0"]) == 0
        r = line_cubic((1, Fraction(2, 3)), (1, -5), (0, 1))
        assert len(stabilizer_of_cubic(r).generators) == 6
        assert cli.main(["kernel", *map(str, r.coeffs)]) == 0
        for point in canonical_regular_pairs().values():
            assert microlocal_stabilizer(point).dimension == 0
    assert counting.call_count == 0
    assert "kernel dimension 0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "coeffs, dimension",
    [
        (("1", "0", "0", "0"), 2),
        (("27", "-18", "-12", "-8"), 2),
        (("0", "0", "0", "1"), 2),
        (("0", "1", "0", "0"), 1),
        (("4", "-8/3", "115/3", "-175"), 1),
        (("0", "0", "1", "0"), 1),
    ],
    ids=["C1", "C1-moved", "C1-line-0-1", "C2", "C2-moved", "C2-line-0-1"],
)
def test_c1_and_c2_kernels_solve_no_linear_system(capsys, coeffs, dimension):
    with _kernel_basis_calls() as counting:
        assert cli.main(["kernel", *coeffs]) == 0
    assert counting.call_count == 0
    assert f"kernel dimension {dimension}" in capsys.readouterr().out


def test_conjugates_reject_an_element_that_moves_the_point():
    # diag(2, 1) fixes r = -3 x y^2 but sends s = -x^3 to -x^3 / 4;
    # diag(1, 2) sends r to 2 r
    r, s = canonical_regular_pairs()[2].r, canonical_regular_pairs()[2].s
    moved = GroupElement(1, 1, 0, 1)
    g = GroupElement.diagonal(2, 1)
    assert conormal._conjugates(moved, [g], act(moved, r)) == [moved * g * moved.inverse()]
    with pytest.raises(IrrationalSplitting):
        conormal._conjugates(moved, [g], act(moved, r), act_dual(moved, s))
    with pytest.raises(IrrationalSplitting):
        conormal._conjugates(moved, [GroupElement.diagonal(1, 2)], act(moved, r))


# -- pair and moment through the command line, against sympy -------------------

_Y, _X, _E = sympy.symbols("y x e")
_R, _S = sympy.symbols("r0:4"), sympy.symbols("s0:4")


def _form(c):
    """The cubic c0 y^3 - 3 c1 y^2 x - 3 c2 y x^2 - c3 x^3."""
    return c[0] * _Y**3 - 3 * c[1] * _Y**2 * _X - 3 * c[2] * _Y * _X**2 - c[3] * _X**3


def _apolar(r, s):
    """The apolar pairing r(d/dy, d/dx) s / 3! of two cubic forms."""
    terms = sympy.Poly(r, _Y, _X).terms()
    return sympy.expand(sum(c * sympy.diff(s, _Y, i, _X, j) for (i, j), c in terms) / 6)


def _moved(i, j):
    """The generic cubic r at (y, x)(1 + e E_ij), expanded."""
    h = sympy.eye(2) + _E * sympy.Matrix(2, 2, lambda k, l: int((k, l) == (i, j)))
    y, x = h[0, 0] * _Y + h[1, 0] * _X, h[0, 1] * _Y + h[1, 1] * _X
    return sympy.expand(_form(_R).subs({_Y: y, _X: x}, simultaneous=True))


# <r, s>, and the moment map [r, s] as a third of the derivative of <r, s>
# along r -> r((y, x)(1 + e E_ij)) at e = 0
_PAIRING = _apolar(_form(_R), _form(_S))
_MOMENT = [
    [sympy.expand(sympy.diff(_apolar(_moved(i, j), _form(_S)), _E).subs(_E, 0) / 3) for j in range(2)]
    for i in range(2)
]


# a magnitude of 64 to 2048 bits
_wide = st.integers(64, 2048).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1))
# a numerator of 64 to 2048 bits over one as wide or over 1, or zero
_wide_rationals = (
    st.builds(lambda sign, num, den: Fraction(sign * num, den), st.sampled_from((1, -1)), _wide, _wide | st.just(1))
    | st.just(Fraction(0))
)


def _json_of(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _exact(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


@settings(max_examples=60)
@given(st.lists(_wide_rationals, min_size=8, max_size=8))
# eight coprime 2048-bit denominators: the outputs pass 4300 digits
@example([Fraction(2**2048 - 1, p**n) for p, n in ((3, 1292), (5, 882), (7, 729), (11, 592))]
         + [Fraction(-(2**2047 + 1), p**n) for p, n in ((13, 553), (17, 501), (19, 482), (23, 452))])
def test_pair_and_moment_commands_match_sympy(coeffs):
    argv = [str(c) for c in coeffs]
    values = dict(zip(_R + _S, (sympy.Rational(c.numerator, c.denominator) for c in coeffs)))
    assert parse_rational(_json_of(["pair", *argv])["pairing"]) == _exact(_PAIRING.xreplace(values))
    expected = [[_exact(m.xreplace(values)) for m in row] for row in _MOMENT]
    payload = _json_of(["moment", *argv])
    assert [[parse_rational(v) for v in row] for row in payload["moment"]] == expected
    assert payload["is_zero"] == (expected == [[0, 0], [0, 0]])
