import pytest

from g2cubics.packets import (
    DERIVED,
    EXPECTED_CHANGE_OF_BASIS,
    EXPECTED_PACKETS,
    EXPECTED_STABLE,
    IRREDUCIBLE_ORDER,
    Irreducible,
    NotInSpan,
    aubert,
    character_table,
    express_in_standard_modules,
    l_packet,
    llc,
    llc_inverse,
    packet,
    pairing_character,
    stable_virtual_character,
    standard_module_change_of_basis,
)
from g2cubics.sheaves import SimpleObject
from g2cubics.verify import check_change_of_basis_roundtrip, check_stable_independence


def test_llc_bijection():
    assert llc(SimpleObject.IC1_C0) is Irreducible.PI0
    assert llc(SimpleObject.ICE_C3) is Irreducible.PI3E
    for obj in SimpleObject:
        assert llc_inverse(llc(obj)) is obj
    for pi in Irreducible:
        assert llc(llc_inverse(pi)) is pi


def test_flags():
    assert {pi for pi in Irreducible if pi.tempered} == {
        Irreducible.PI3,
        Irreducible.PI3R,
        Irreducible.PI3E,
    }


def test_packets_match_expected_table():
    for psi in range(4):
        assert packet(psi, DERIVED) == EXPECTED_PACKETS[psi]
        assert DERIVED.packets[psi] == EXPECTED_PACKETS[psi]


def test_packet_examples():
    assert DERIVED.packets[0] == {Irreducible.PI0, Irreducible.PI1, Irreducible.PI3E}
    assert DERIVED.packets[3] == {Irreducible.PI3, Irreducible.PI3R, Irreducible.PI3E}
    for psi in range(4):
        assert Irreducible.PI3E in DERIVED.packets[psi]


def test_l_packets_and_containment():
    assert l_packet(0) == {Irreducible.PI0}
    assert l_packet(1) == {Irreducible.PI1}
    assert l_packet(2) == {Irreducible.PI2}
    assert l_packet(3) == {Irreducible.PI3, Irreducible.PI3R, Irreducible.PI3E}
    for i in range(4):
        assert l_packet(i) <= DERIVED.packets[i]


def test_pairing_character_examples():
    assert pairing_character(2, Irreducible.PI3R, DERIVED) == "tau"
    assert pairing_character(0, Irreducible.PI1, DERIVED) == "rho"
    assert pairing_character(3, Irreducible.PI0, DERIVED) is None
    # the spherical member always pairs trivially
    for psi in range(4):
        if Irreducible.PI0 in DERIVED.packets[psi]:
            assert pairing_character(psi, Irreducible.PI0, DERIVED) == "1"


def test_stable_characters_match_expected():
    for psi in range(4):
        assert stable_virtual_character(psi, DERIVED) == EXPECTED_STABLE[psi]
        assert DERIVED.stable[psi] == EXPECTED_STABLE[psi]


def test_stable_character_signs():
    assert DERIVED.stable[1] == (0, 1, -1, 0, 0, 1)
    assert DERIVED.stable[3] == (0, 0, 0, 1, 2, 1)
    assert DERIVED.stable[0] == (1, 2, 0, 0, 0, 1)
    # parameters with trivial centralizer image have nonnegative coefficients
    for psi in (0, 3):
        assert all(c >= 0 for c in DERIVED.stable[psi])


def test_express_in_standard_modules():
    theta0 = DERIVED.stable[0]
    assert express_in_standard_modules(theta0, DERIVED) == (1, 1, -3, 1)
    theta2 = DERIVED.stable[2]
    assert express_in_standard_modules(theta2, DERIVED) == (0, 0, 1, -1)
    theta3 = DERIVED.stable[3]
    assert express_in_standard_modules(theta3, DERIVED) == (0, 0, 0, 1)


def test_express_rejects_vectors_outside_span():
    with pytest.raises(NotInSpan):
        express_in_standard_modules((0, 0, 0, 0, 1, 0), DERIVED)


def test_change_of_basis_matrix():
    m = standard_module_change_of_basis(DERIVED)
    assert m == EXPECTED_CHANGE_OF_BASIS
    assert DERIVED.change_of_basis == EXPECTED_CHANGE_OF_BASIS
    for i in range(4):
        assert m[i, i] == 1
        for j in range(i):
            assert m[i, j] == 0


def test_change_of_basis_roundtrip():
    assert check_change_of_basis_roundtrip(DERIVED) is None


def test_stable_characters_are_independent():
    assert check_stable_independence(DERIVED) is None


def test_aubert_involution():
    assert aubert(Irreducible.PI0, DERIVED) is Irreducible.PI3
    assert aubert(Irreducible.PI3E, DERIVED) is Irreducible.PI3E
    assert aubert(Irreducible.PI2, DERIVED) is Irreducible.PI2
    assert aubert(Irreducible.PI1, DERIVED) is Irreducible.PI3R
    for pi in IRREDUCIBLE_ORDER:
        assert aubert(aubert(pi, DERIVED), DERIVED) is pi


def test_aubert_swaps_packets():
    assert {aubert(pi, DERIVED) for pi in DERIVED.packets[1]} == DERIVED.packets[2]
    assert {aubert(pi, DERIVED) for pi in DERIVED.packets[0]} == DERIVED.packets[3]


def test_character_tables():
    s3 = character_table("S3")
    assert s3.values[("rho", "e")] == 2
    assert s3.values[("eps", "transposition")] == -1
    s2 = character_table("S2")
    assert s2.values[("tau", "t")] == -1
    assert dict(s3.sizes) == {"e": 1, "transposition": 3, "3-cycle": 2}
    assert dict(s2.sizes) == {"e": 1, "t": 1}
    with pytest.raises(ValueError):
        character_table("S4")


def test_the_trivial_group_has_no_table():
    # stabilizers off the open orbit are connected, but no parameter's
    # component group is trivial, so no character table is stated for it
    with pytest.raises(ValueError, match="unknown group 'trivial'"):
        character_table("trivial")


def test_character_orthogonality():
    for group in ("S3", "S2"):
        table = character_table(group)
        sizes = table.sizes
        order = sum(sizes.values())
        for chi1 in table.irreducibles:
            for chi2 in table.irreducibles:
                total = sum(
                    sizes[c] * table.values[(chi1, c)] * table.values[(chi2, c)]
                    for c in table.classes
                )
                assert total == (order if chi1 == chi2 else 0)


def test_temperedness_pattern():
    assert all(pi.tempered for pi in DERIVED.packets[3])
    chars = {pairing_character(3, pi, DERIVED) for pi in DERIVED.packets[3]}
    assert chars == {"1", "rho", "eps"}
    for psi in (0, 1, 2):
        assert any(not pi.tempered for pi in DERIVED.packets[psi])
    values = [
        pairing_character(1, pi, DERIVED) for pi in sorted(DERIVED.packets[1], key=lambda p: p.value)
    ]
    assert len(set(values)) < len(values)  # psi1 pairing is not injective
