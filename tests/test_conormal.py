import random
from fractions import Fraction

import pytest

from g2cubics.conormal import (
    ComponentGroup,
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
    stabilizer_dimension,
    stabilizer_of_cubic,
)
from g2cubics.cubics import (
    BinaryCubic,
    DualCubic,
    GroupElement,
    Line,
    MultiplicityStructure,
    OrbitClass,
    REPRESENTATIVES,
    act,
    act_dual,
    divides,
    rational_lines,
)

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
    assert dual_orbit_class(3) is MultiplicityStructure.ZERO
    assert dual_orbit_class(2) is MultiplicityStructure.TRIPLE_LINE
    assert dual_orbit_class(1) is MultiplicityStructure.DOUBLE_PLUS_SIMPLE
    assert dual_orbit_class(0) is MultiplicityStructure.THREE_DISTINCT


def test_in_lambda_regular_examples():
    assert in_lambda_regular(ConormalPoint(BinaryCubic(1, 0, 1, 0), DualCubic(0, 0, 0, 0))) == 3
    assert in_lambda_regular(ConormalPoint(BinaryCubic(0, 1, 0, 0), DualCubic(0, 0, 0, 1))) == 2
    assert in_lambda_regular(ConormalPoint(BinaryCubic(1, 0, 1, 0), DualCubic(0, 1, 0, 1))) is None


def test_canonical_pairs_land_in_their_strata():
    for stratum, point in canonical_regular_pairs().items():
        assert in_lambda_regular(point) == stratum
        assert moment(point.r, point.s).is_zero()


def test_stabilizer_dimensions_by_orbit():
    assert stabilizer_dimension(BinaryCubic(0, 0, 0, 0)) == 4
    assert stabilizer_dimension(BinaryCubic(1, 0, 0, 0)) == 2
    assert stabilizer_dimension(BinaryCubic(0, 1, 0, 0)) == 1
    assert stabilizer_dimension(BinaryCubic(*XY_X_PLUS_Y)) == 0


def test_stabilizer_dimension_of_dual_cubics():
    # the dual infinitesimal action alone (r = 0), then paired with r
    duals = [DualCubic(*r.coeffs) for r in REPRESENTATIVES.values()]
    assert [stabilizer_dimension(BinaryCubic(0, 0, 0, 0), s) for s in duals] == [4, 2, 1, 0]
    pairs = zip(REPRESENTATIVES.values(), duals)
    assert [stabilizer_dimension(r, s) for r, s in pairs] == [4, 1, 1, 0]


def test_stabilizer_descriptions():
    d = stabilizer_of_cubic(BinaryCubic(1, 0, 0, 0))
    assert (d.dimension, d.component_group) == (2, ComponentGroup.TRIVIAL)
    d = stabilizer_of_cubic(BinaryCubic(0, 1, 0, 0))
    assert (d.dimension, d.component_group) == (1, ComponentGroup.TRIVIAL)
    d = stabilizer_of_cubic(BinaryCubic(0, 0, 0, 0))
    assert (d.dimension, d.component_group) == (4, ComponentGroup.TRIVIAL)


def test_split_c3_stabilizer_is_s3():
    r = BinaryCubic(*XY_X_PLUS_Y)
    d = stabilizer_of_cubic(r)
    assert (d.dimension, d.component_group) == (0, ComponentGroup.S3)
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
    expected = {0: (6, ComponentGroup.S3), 1: (2, ComponentGroup.S2),
                2: (2, ComponentGroup.S2), 3: (6, ComponentGroup.S3)}
    for stratum, point in canonical_regular_pairs().items():
        d = microlocal_stabilizer(point)
        order, group = expected[stratum]
        assert d.component_group is group
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
    assert d.component_group is ComponentGroup.S2
    assert len(d.group_elements()) == 2


def test_microlocal_rejects_non_regular_points():
    with pytest.raises(NotRegularConormal):
        microlocal_stabilizer(ConormalPoint(BinaryCubic(1, 0, 1, 0), DualCubic(0, 1, 0, 1)))


def test_stabilizer_json():
    d = stabilizer_of_cubic(BinaryCubic(0, 1, 0, 0))
    payload = d.to_json()
    assert payload["dimension"] == 1
    assert payload["component_group"] == "trivial"
