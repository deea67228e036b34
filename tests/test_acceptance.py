"""Acceptance suite: one test per criterion, at the stated trial counts.

Each test prints a single PASS line on success so the whole gate is legible
from the pytest -s output; every comparison is exact.
"""

import random
from fractions import Fraction

from g2cubics import conormal, packets, rootdata, sheaves, verify
from g2cubics.cubics import (
    BinaryCubic,
    OrbitClass,
    act,
    act_dual,
    act_matrix,
    classify,
    discriminant,
)
from g2cubics.linalg import Matrix, eval_q
from g2cubics.packets import DERIVED
from g2cubics.verify import (
    _has_repeated_root,
    _random_cubic,
    _random_dual,
    _random_group_element,
)


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_orbit_classification():
    reps = [
        (BinaryCubic(0, 0, 0, 0), OrbitClass.C0),
        (BinaryCubic(1, 0, 0, 0), OrbitClass.C1),
        (BinaryCubic(0, 1, 0, 0), OrbitClass.C2),
        (BinaryCubic(1, 0, 1, 0), OrbitClass.C3),
    ]
    for r, orbit in reps:
        assert classify(r) is orbit
    rng = random.Random(2024)
    for _ in range(1000):
        r = BinaryCubic(*(rng.randint(-4, 4) for _ in range(4)))
        assert (discriminant(r) == 0) == _has_repeated_root(r)
    _report(1, "four representatives classified; 1000-case gcd oracle equivalence")


def test_criterion_2_action_matrix():
    rng = random.Random(2025)
    for _ in range(100):
        h, r = _random_group_element(rng), _random_cubic(rng)
        assert act_matrix(h).matvec(list(r.coeffs)) == list(act(h, r).coeffs)
    for _ in range(5):
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
        assert act_matrix(h) == expected
    _report(2, "matrix action = substitution on 100 pairs; closed form at 5 elements")


def test_criterion_3_conormal_kernels():
    from g2cubics.cubics import REPRESENTATIVES, divides, rational_lines

    dims = {OrbitClass.C0: 4, OrbitClass.C1: 2, OrbitClass.C2: 1, OrbitClass.C3: 0}
    for orbit, rep in REPRESENTATIVES.items():
        assert len(conormal.conormal_kernel(rep)) == dims[orbit]
    r2 = REPRESENTATIVES[OrbitClass.C2]
    u2 = {m: line for line, m in rational_lines(r2)[0]}[2]
    for s in conormal.conormal_kernel(r2):
        assert divides(u2.perp(), s) == 3
    r1 = REPRESENTATIVES[OrbitClass.C1]
    u1 = rational_lines(r1)[0][0][0]
    for s in conormal.conormal_kernel(r1):
        assert divides(u1.perp(), s) >= 2
    _report(3, "kernel dimensions (4,2,1,0); perpendicular-line typing on bases")


def test_criterion_4_moment_trace_and_pairing():
    rng = random.Random(2026)
    for _ in range(1000):
        r, s = _random_cubic(rng), _random_dual(rng)
        assert conormal.moment(r, s).trace() == conormal.pairing(r, s)
    for _ in range(1000):
        r, s, h = _random_cubic(rng), _random_dual(rng), _random_group_element(rng)
        assert conormal.pairing(act(h, r), act_dual(h, s)) == conormal.pairing(r, s)
    for _ in range(500):
        r = _random_cubic(rng)
        vs = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        assert conormal.pairing_factored(r, *vs) == conormal.pairing(
            r, conormal.dual_from_factors(*vs)
        )
    _report(4, "trace identity, invariance and Hessian pairing at stated counts")


def test_criterion_5_stabilizers():
    from g2cubics.cubics import REPRESENTATIVES

    orders = {OrbitClass.C0: 1, OrbitClass.C1: 1, OrbitClass.C2: 1, OrbitClass.C3: 6}
    for orbit, rep in REPRESENTATIVES.items():
        desc = conormal.stabilizer_of_cubic(rep)
        assert len(desc.group_elements()) == orders[orbit]
    micro = {0: 6, 1: 2, 2: 2, 3: 6}
    groups = {0: "S3", 1: "S2", 2: "S2", 3: "S3"}
    for stratum, point in conormal.canonical_regular_pairs().items():
        desc = conormal.microlocal_stabilizer(point)
        assert len(desc.group_elements()) == micro[stratum]
        assert desc.component_group == groups[stratum]
    _report(5, "component orders (1,1,1,6) and microlocal orders (6,2,2,6)")


def test_criterion_6_stalk_solver():
    solved = sheaves.solve_ic_stalk_ranks(sheaves.TABLES)
    assert solved == sheaves.graded_stalk_totals(sheaves.TABLES)
    assert verify.check_rhoe_redundancy(DERIVED) is None
    _report(6, "cover system solves to the stalk table; rhoE rows redundant")


def test_criterion_7_kazhdan_lusztig():
    assert verify.check_kl_transpose(DERIVED) is None
    _report(7, "geometric multiplicity matrix is the transposed module matrix")


def test_criterion_8_microlocal_tables():
    for obj in sheaves.SIMPLE_ORDER:
        assert sheaves.nevs_derived(obj, sheaves.TABLES) == sheaves.nevs(obj, sheaves.TABLES)
    assert verify.check_evs_zero_pattern(DERIVED) is None
    mapping = {obj: DERIVED.fourier(obj)[1] for obj in sheaves.SIMPLE_ORDER}
    for obj, image in mapping.items():
        assert mapping[image] is obj
    expected_aubert = {
        packets.Irreducible.PI0: packets.Irreducible.PI3,
        packets.Irreducible.PI1: packets.Irreducible.PI3R,
        packets.Irreducible.PI2: packets.Irreducible.PI2,
        packets.Irreducible.PI3: packets.Irreducible.PI0,
        packets.Irreducible.PI3R: packets.Irreducible.PI1,
        packets.Irreducible.PI3E: packets.Irreducible.PI3E,
    }
    for pi, image in expected_aubert.items():
        assert packets.aubert(pi, DERIVED) is image
    _report(8, "normalised table derived; zero pattern; Fourier involution = Aubert")


def test_criterion_9_packets_and_stable_characters():
    for psi in range(4):
        assert DERIVED.packets[psi] == packets.EXPECTED_PACKETS[psi]
        assert DERIVED.stable[psi] == packets.EXPECTED_STABLE[psi]
    assert DERIVED.change_of_basis == Matrix.from_rows(
        [[1, 1, -3, 1], [0, 1, -2, 1], [0, 0, 1, -1], [0, 0, 0, 1]]
    )
    _report(9, "packets, stable coefficients and change-of-basis matrix match")


def test_criterion_10_root_data():
    plus = {(r.a, r.b) for r in rootdata.weight_space(1)}
    assert plus == {(1, 0), (1, 1), (1, 2), (1, 3)}
    sizes = [len(rootdata.weight_space(e)) for e in (-2, -1, 0, 1, 2)]
    assert sizes == [1, 4, 2, 4, 1]
    assert rootdata.cartan_matrix("g2") == [[2, -1], [-3, 2]]
    assert rootdata.cartan_matrix("dual") == [[2, -3], [-1, 2]]
    expected = {(1, 1): (3, 1), (1, 2): (3, 2), (1, 3): (1, 1), (2, 3): (2, 1)}
    for (a, b), pair in expected.items():
        assert rootdata.coroot(rootdata.Root(a, b)) == pair
    _report(10, "weight spaces, Cartan matrices and coroot relations")


def test_criterion_11_formal_degree():
    data = rootdata.adjoint_gamma_data()
    assert data.dim_sigma == rootdata.dim_sigma_simplified()
    assert eval_q(data.dim_sigma, 2) == 1
    assert eval_q(data.dim_sigma, 3) == 14
    assert eval_q(data.gamma0, 2) == Fraction(512, 63)
    _report(11, "dim sigma reduces to q(q-1)^2(q^2-q+1)/6; values at q=2,3 match")


def test_full_check_registry_is_green():
    results = verify.run_checks("all", DERIVED)
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert len(results) >= 25
    print(f"ACCEPTANCE registry: PASS - {len(results)} named checks green")
