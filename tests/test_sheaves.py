import pytest

from g2cubics.cubics import OrbitClass
from g2cubics.packets import DERIVED, Derived
from g2cubics.sheaves import (
    Cover,
    InconsistentSystem,
    NEvsMismatch,
    SIMPLE_ORDER,
    SimpleObject,
    TABLES,
    default_tables,
    fourier,
    geometric_multiplicity_matrix,
    graded_stalk_totals,
    nevs,
    nevs_derived,
    recomputed_finite_fiber_counts,
    solve_ic_stalk_ranks,
    table_payload,
)
from g2cubics.verify import (
    check_evs_zero_pattern,
    check_fourier_involution,
    check_kl_transpose,
    check_rhoe_redundancy,
)

C0, C1, C2, C3 = OrbitClass.C0, OrbitClass.C1, OrbitClass.C2, OrbitClass.C3


def test_fiber_rank_examples():
    assert TABLES.fiber_ranks[Cover.RHO1][C0] == 2
    assert TABLES.fiber_ranks[Cover.RHO3PP][C0] == 8
    assert TABLES.fiber_ranks[Cover.RHO3][C3] == 3
    assert TABLES.fiber_ranks[Cover.RHOE][C1] == 3


def test_finite_fibers_recompute_from_line_combinatorics():
    for (cover, orbit), count in recomputed_finite_fiber_counts().items():
        assert TABLES.fiber_ranks[cover][orbit] == count


def test_pushforward_decompositions():
    assert TABLES.decompositions[Cover.RHO1] == {
        (SimpleObject.IC1_C0, 0): 1,
        (SimpleObject.IC1_C1, 0): 1,
    }
    assert TABLES.decompositions[Cover.RHO2] == {(SimpleObject.IC1_C2, 0): 1}
    assert TABLES.decompositions[Cover.RHOE] == {
        (SimpleObject.IC1_C3, 0): 1,
        (SimpleObject.ICE_C3, 0): 1,
        (SimpleObject.IC1_C1, 0): 2,
        (SimpleObject.IC1_C0, 0): 1,
    }
    rho3pp = TABLES.decompositions[Cover.RHO3PP]
    assert rho3pp[(SimpleObject.ICR_C3, 0)] == 2
    assert rho3pp[(SimpleObject.IC1_C0, 2)] == 1
    assert rho3pp[(SimpleObject.IC1_C0, -2)] == 1


def test_stalk_solver_examples():
    ranks = solve_ic_stalk_ranks(TABLES)
    assert ranks[(SimpleObject.IC1_C2, C0)] == 2
    assert ranks[(SimpleObject.ICE_C3, C2)] == 0
    for orbit in OrbitClass:
        assert ranks[(SimpleObject.IC1_C3, orbit)] == 1
    assert [ranks[(SimpleObject.ICR_C3, o)] for o in OrbitClass] == [1, 0, 1, 2]


def test_stalk_solver_matches_graded_totals():
    assert solve_ic_stalk_ranks(TABLES) == graded_stalk_totals(TABLES)


def test_stalk_solver_detects_corruption():
    # rho2 has empty fiber over the open orbit; a nonzero rank there makes
    # the system unsolvable
    bad = default_tables()
    bad.fiber_ranks[Cover.RHO2][C3] = 1
    with pytest.raises(InconsistentSystem):
        solve_ic_stalk_ranks(bad)
    # a negative solved rank is also rejected
    bad2 = default_tables()
    bad2.fiber_ranks[Cover.RHO3][C0] = 0
    with pytest.raises(InconsistentSystem):
        solve_ic_stalk_ranks(bad2)
    # a consistent but wrong rank surfaces through the redundant rhoE rows
    bad3 = default_tables()
    bad3.fiber_ranks[Cover.RHO3PP][C1] = 2
    assert solve_ic_stalk_ranks(bad3)[(SimpleObject.ICE_C3, C1)] == 1
    assert check_rhoe_redundancy(Derived(bad3)) is not None


def test_rhoe_equations_are_redundantly_satisfied():
    assert check_rhoe_redundancy(DERIVED) is None


def test_geometric_multiplicity_matrix():
    m = geometric_multiplicity_matrix(solve_ic_stalk_ranks(TABLES))
    assert m == DERIVED.geomult
    assert m[2] == (2, 1, 1, 0, 0, 0)
    assert m[4] == (1, 0, 1, 0, 1, 0)
    assert all(m[i][i] == 1 for i in range(6))
    for i in range(6):
        for j in range(i + 1, 6):
            assert m[i][j] == 0


def test_rep_multiplicity_rows():
    rep = TABLES.rep_multiplicity
    assert rep[0] == (1, 1, 2, 1, 1, 0)
    assert rep[2] == (0, 0, 1, 1, 1, 0)
    assert rep[5] == (0, 0, 0, 0, 0, 1)


def test_kl_transpose():
    assert check_kl_transpose(DERIVED) is None
    geo = DERIVED.geomult
    rep = TABLES.rep_multiplicity
    assert geo == tuple(tuple(rep[j][i] for j in range(6)) for i in range(6))


def test_kl_sensitivity():
    import dataclasses

    bad_rep = [list(row) for row in TABLES.rep_multiplicity]
    bad_rep[0][2] = 99
    bad = dataclasses.replace(default_tables(), rep_multiplicity=tuple(tuple(r) for r in bad_rep))
    assert check_kl_transpose(Derived(bad)) is not None


def test_evs_rows():
    assert TABLES.evs[SimpleObject.IC1_C0] == {0: "one"}
    assert TABLES.evs[SimpleObject.IC1_C3] == {3: "one"}
    assert TABLES.evs[SimpleObject.IC1_C1] == {0: "R", 1: "T"}
    assert TABLES.evs[SimpleObject.ICE_C3] == {0: "E", 1: "T", 2: "one", 3: "E"}


def test_nevs_rows():
    assert nevs(SimpleObject.IC1_C2, TABLES) == {1: "T", 2: "one"}
    assert nevs(SimpleObject.ICR_C3, TABLES) == {2: "T", 3: "R"}
    assert nevs(SimpleObject.IC1_C0, TABLES) == {0: "one"}
    assert DERIVED.nevs(SimpleObject.IC1_C0) == {0: "one"}


def test_nevs_is_derived_by_stratum_twist():
    for obj in SIMPLE_ORDER:
        assert nevs_derived(obj, TABLES) == nevs(obj, TABLES)


def test_nevs_mismatch_on_corrupted_evs():
    bad = TABLES.with_flipped_evs(SimpleObject.IC1_C1, 1)
    with pytest.raises(NEvsMismatch):
        nevs(SimpleObject.IC1_C1, bad)


def test_evs_zero_pattern_respects_closure():
    assert check_evs_zero_pattern(DERIVED) is None
    for obj in SIMPLE_ORDER:
        for stratum in TABLES.evs[obj]:
            assert stratum <= obj.support.value


def test_fourier_examples():
    dual, primal = fourier(SimpleObject.IC1_C0, TABLES)
    assert (dual.dual_orbit_index, dual.local_system) == (0, "triv")
    assert primal is SimpleObject.IC1_C3
    _, primal = fourier(SimpleObject.ICR_C3, TABLES)
    assert primal is SimpleObject.IC1_C1
    _, primal = fourier(SimpleObject.ICE_C3, TABLES)
    assert primal is SimpleObject.ICE_C3
    _, primal = fourier(SimpleObject.IC1_C2, TABLES)
    assert primal is SimpleObject.IC1_C2


def test_fourier_is_an_involution():
    assert check_fourier_involution(DERIVED) is None
    mapping = {obj: DERIVED.fourier(obj)[1] for obj in SIMPLE_ORDER}
    for obj, image in mapping.items():
        assert mapping[image] is obj


def test_table_payload_shapes():
    for which in ("stalks", "geomult", "repmult", "evs", "nevs", "fourier"):
        payload = table_payload(which, DERIVED)
        assert len(payload["rows"]) == 6
        assert all(len(row) == len(payload["cols"]) for row in payload["entries"])
    with pytest.raises(ValueError):
        table_payload("nope", DERIVED)


def test_table_payload_evs_entries():
    payload = table_payload("evs", DERIVED)
    row = payload["entries"][SIMPLE_ORDER.index(SimpleObject.ICE_C3)]
    assert row == ["E", "T", "one", "E"]
