from fractions import Fraction
from types import MappingProxyType

import pytest

from g2cubics import verify
from g2cubics.conormal import CANONICAL_REGULAR_PAIRS
from g2cubics.linalg import eval_q
from g2cubics.packets import L_PACKETS, character_table
from g2cubics.rootdata import (
    ARTHUR_PARAMETERS,
    CARTAN_DUAL,
    CARTAN_G2,
    FROBENIUS_TORUS,
    POSITIVE_ROOTS_DUAL,
    POSITIVE_ROOTS_G2,
    ROOTS,
    WEIGHT_SPACES,
    Root,
    TorusExponentPair,
    adjoint_gamma_data,
    coroot,
    coroot_torus_exponents,
    dim_sigma_simplified,
    formal_degree_values,
    root_coroot_pairing,
    root_weight,
)


def test_cartan_matrices():
    assert CARTAN_G2 == ((2, -1), (-3, 2))
    assert CARTAN_DUAL == ((2, -3), (-1, 2))
    assert all(CARTAN_G2[i][j] == CARTAN_DUAL[j][i] for i in range(2) for j in range(2))


def test_root_lists():
    assert len(POSITIVE_ROOTS_DUAL) == 6
    assert len(ROOTS) == 12
    pairs = {(r.a, r.b) for r in POSITIVE_ROOTS_DUAL}
    assert pairs == {(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)}
    g2pairs = {(r.a, r.b) for r in POSITIVE_ROOTS_G2}
    assert g2pairs == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_g2_positive_roots_are_the_dual_coroots_by_height():
    dual = POSITIVE_ROOTS_DUAL
    g2 = [(r.a, r.b) for r in POSITIVE_ROOTS_G2]
    assert sorted(g2) == sorted(coroot(r) for r in dual)
    assert g2 == [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]


def test_root_weight_examples():
    t = TorusExponentPair(1, 1)
    assert root_weight(Root(0, 1), t) == 0
    assert root_weight(Root(1, 2), t) == 1
    assert root_weight(Root(-1, 0), t) == -1


def test_weight_spaces():
    plus = {(r.a, r.b) for r in WEIGHT_SPACES[1]}
    assert plus == {(1, 0), (1, 1), (1, 2), (1, 3)}
    minus = {(r.a, r.b) for r in WEIGHT_SPACES[-1]}
    assert minus == {(-1, 0), (-1, -1), (-1, -2), (-1, -3)}
    sizes = [len(WEIGHT_SPACES[e]) for e in (-2, -1, 0, 1, 2)]
    assert sizes == [1, 4, 2, 4, 1]
    assert {(r.a, r.b) for r in WEIGHT_SPACES[0]} == {(0, 1), (0, -1)}
    # the spaces partition the twelve roots, each root by its own weight: so
    # no weight outside -2..2 has a root
    assert list(WEIGHT_SPACES) == [-2, -1, 0, 1, 2]
    placed = {r: e for e, space in WEIGHT_SPACES.items() for r in space}
    assert len(placed) == sum(map(len, WEIGHT_SPACES.values())) == 12
    assert placed == {r: root_weight(r, FROBENIUS_TORUS) for r in ROOTS}


FIXED_TABLES = {
    "ARTHUR_PARAMETERS": ARTHUR_PARAMETERS,
    "CARTAN_DUAL": CARTAN_DUAL,
    "CARTAN_G2": CARTAN_G2,
    "POSITIVE_ROOTS_DUAL": POSITIVE_ROOTS_DUAL,
    "POSITIVE_ROOTS_G2": POSITIVE_ROOTS_G2,
    "ROOTS": ROOTS,
    "WEIGHT_SPACES": WEIGHT_SPACES,
    "CANONICAL_REGULAR_PAIRS": CANONICAL_REGULAR_PAIRS,
    "L_PACKETS": L_PACKETS,
}


@pytest.mark.parametrize("table", FIXED_TABLES.values(), ids=FIXED_TABLES)
def test_the_fixed_tables_are_read_only(table):
    key = next(iter(table)) if isinstance(table, MappingProxyType) else 0
    with pytest.raises(TypeError):
        table[key] = table[key]
    inner = table[key]
    if isinstance(inner, tuple):  # the rows of a matrix, the roots of a weight
        with pytest.raises(TypeError):
            inner[0] = inner[0]


def test_coroot_examples():
    assert coroot(Root(1, 0)) == (1, 0)
    assert coroot(Root(1, 2)) == (3, 2)
    assert coroot(Root(2, 3)) == (2, 1)
    assert coroot(Root(1, 1)) == (3, 1)
    assert coroot(Root(1, 3)) == (1, 1)


def test_cartan_entries_from_torus_weights():
    simple = [Root(1, 0), Root(0, 1)]
    for i, gamma in enumerate(simple):
        for j, delta in enumerate(simple):
            assert root_coroot_pairing(gamma, delta) == CARTAN_DUAL[i][j]
    for gamma in POSITIVE_ROOTS_DUAL:
        assert root_coroot_pairing(gamma, gamma) == 2


def test_frobenius_torus_selfcheck():
    # the coroot expression, h_a(q^2) h_b(q), gives the normative m(q, q) ...
    assert coroot_torus_exponents((2, 1)) == FROBENIUS_TORUS == TorusExponentPair(1, 1)
    # ... the stated composite h_a(q) h_b(q^2) does not
    assert coroot_torus_exponents((1, 2)) == TorusExponentPair(2, -1)
    assert verify.check_torus_selfcheck() is None


def test_arthur_parameters():
    metas = ARTHUR_PARAMETERS
    assert [m.component_group for m in metas] == ["S3", "S2", "S2", "S3"]
    assert [m.s_psi_class for m in metas] == ["e", "t", "t", "e"]
    assert metas[1].swap_partner == 2
    assert metas[0].swap_partner == 3


def test_each_s_psi_class_is_a_class_of_its_group():
    # stable_virtual_character evaluates the pairing characters on this class
    for meta in ARTHUR_PARAMETERS:
        assert meta.s_psi_class in character_table(meta.component_group).classes


def test_formal_degree_values():
    data = adjoint_gamma_data()
    assert eval_q(data.dim_sigma, 2) == 1
    assert eval_q(data.dim_sigma, 3) == 14
    assert eval_q(data.gamma0, 2) == Fraction(512, 63)


def test_dim_sigma_simplifies():
    assert adjoint_gamma_data().dim_sigma == dim_sigma_simplified()


def test_dim_sigma_integral_at_prime_powers():
    data = adjoint_gamma_data()
    for q0 in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32):
        value = eval_q(data.dim_sigma, q0)
        assert value.denominator == 1 and value > 0


def test_gamma_factor_from_l_values():
    data = adjoint_gamma_data()
    assert data.epsilon_power(0) * (data.l_factor(1) / data.l_factor(0)) == data.gamma0


def test_formal_degree_values_helper():
    out = formal_degree_values(3)
    assert out["dim_sigma"] == 14
    assert out["gamma0"] == Fraction(3**9, 16 * 13)


def test_adjoint_gamma_data_is_built_once():
    assert adjoint_gamma_data() is adjoint_gamma_data()
