"""The derived facts of a table set are computed once and cannot be altered."""

import contextlib
import dataclasses
import io
import json
import os
from collections import Counter

import pytest

from g2cubics import cli, packets, sheaves, verify
from g2cubics.packets import Derived
from g2cubics.cubics import OrbitClass
from g2cubics.sheaves import SIMPLE_ORDER, TABLES, SimpleObject


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the first argument of each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_full_verify_derives_each_fact_once(monkeypatch):
    solves = _counting(monkeypatch, sheaves, "solve_ic_stalk_ranks")
    rows = _counting(monkeypatch, sheaves, "nevs")
    changes = _counting(monkeypatch, packets, "standard_module_change_of_basis")
    # pinned to one CPU, run_checks runs every check in this process, so no
    # derivation happens in a forked worker, out of the counters' sight
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        results = verify.run_checks("all", Derived(TABLES))
    finally:
        os.sched_setaffinity(0, affinity)
    assert all(r.passed for r in results) and len(results) == 51
    assert len(solves) == 1
    assert max(Counter(rows).values()) == 1
    assert len(changes) == 1


def test_repeated_table_queries_solve_once(monkeypatch):
    monkeypatch.setattr(packets, "DERIVED", Derived(TABLES))
    solves = _counting(monkeypatch, sheaves, "solve_ic_stalk_ranks")
    first = _main("tables", "--which", "geomult")
    assert _main("tables", "--which", "geomult") == first
    assert first[0] == 0
    assert len(solves) == 1


def test_tampered_verify_leaves_the_shared_facts_alone():
    code, _ = _main("verify", "--tamper-evs")
    assert code == 1
    code, out = _main("--format", "json", "verify")
    assert code == 0
    assert (json.loads(out)["passed"], json.loads(out)["failed"]) == (51, 0)


def test_cached_values_are_read_only():
    d = Derived(TABLES)
    obj = SimpleObject.IC1_C1
    with pytest.raises(TypeError):
        d.stalk_ranks[(obj, OrbitClass.C0)] = 7
    with pytest.raises(TypeError):
        d.geomult[0][0] = 7
    with pytest.raises(TypeError):
        d.nevs(obj)[1] = "T"
    with pytest.raises(AttributeError):
        d.packets[0].add(packets.Irreducible.PI0)
    with pytest.raises(TypeError):
        d.stable[0][0] = 7
    with pytest.raises(TypeError):
        d.standard_rows[3][0] = 7
    with pytest.raises(TypeError):
        d.change_of_basis[0, 0] = 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.fourier(obj)[0].local_system = "sign"
    fresh = Derived(TABLES)
    assert dict(d.stalk_ranks) == dict(fresh.stalk_ranks)
    assert d.geomult == fresh.geomult
    assert [d.nevs(o) for o in SIMPLE_ORDER] == [fresh.nevs(o) for o in SIMPLE_ORDER]
    assert (d.packets, d.stable, d.standard_rows) == (fresh.packets, fresh.stable, fresh.standard_rows)
    assert d.change_of_basis == fresh.change_of_basis


def test_shipped_tables_are_read_only():
    with pytest.raises(TypeError):
        TABLES.evs[SimpleObject.IC1_C1][1] = "one"
    with pytest.raises(TypeError):
        TABLES.evs[SimpleObject.IC1_C1] = {}
    with pytest.raises(TypeError):
        TABLES.fiber_ranks[sheaves.Cover.RHO1][OrbitClass.C0] = 3
    with pytest.raises(TypeError):
        TABLES.decompositions[sheaves.Cover.RHO1][(SimpleObject.IC1_C0, 0)] = 2
    with pytest.raises(AttributeError):
        TABLES.graded_stalks[(SimpleObject.IC1_C0, OrbitClass.C0)].append((2, 1))
    with pytest.raises(TypeError):
        TABLES.nevs[SimpleObject.IC1_C0][0] = "T"
    with pytest.raises(TypeError):
        TABLES.fourier_dual[SimpleObject.IC1_C0] = (3, "sign")
    # the harnesses still get fresh, writable copies
    tables = sheaves.default_tables()
    tables.evs[SimpleObject.IC1_C1][1] = "one"
    assert sheaves.default_tables().evs[SimpleObject.IC1_C1][1] == "T"


def test_shared_facts_equal_those_of_fresh_tables():
    fresh = Derived(sheaves.default_tables())
    shared = packets.DERIVED
    assert dict(shared.stalk_ranks) == dict(fresh.stalk_ranks)
    assert shared.geomult == fresh.geomult
    assert [shared.nevs(o) for o in SIMPLE_ORDER] == [fresh.nevs(o) for o in SIMPLE_ORDER]
    assert [shared.fourier(o) for o in SIMPLE_ORDER] == [fresh.fourier(o) for o in SIMPLE_ORDER]
    assert (shared.packets, shared.stable, shared.standard_rows) == (
        fresh.packets, fresh.stable, fresh.standard_rows
    )
    assert shared.change_of_basis == fresh.change_of_basis
