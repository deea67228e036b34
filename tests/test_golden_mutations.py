"""Golden snapshot of the checks' reach: what every single-entry mutation of
the encoded sheaf tables makes fail.

The mutations cover all seven `SheafTables` fields: each fiber rank +-1;
each decomposition multiplicity +1 and each decomposition shift +2 (merged
into an existing key when one is hit); each graded-stalk rank +1 and shift
+1; each `rep_multiplicity` cell +1; each `evs`/`nevs` cell (6 objects x 4
strata) set to each of the other four states among absent, `one`, `T`, `R`
and `E`; each `fourier_dual` value replaced by every other (dual orbit,
local system) pair. For each mutation the snapshot records the failing
`sheaves` and `packets` checks with their witnesses; a mutation that no
check catches records an empty mapping. The snapshot is data, not a gate
on detection power.

Regenerate it with

    PYTHONPATH=src python tests/test_golden_mutations.py

and review the diff of `tests/golden_mutations.json` before committing it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

import pytest

from g2cubics import verify
from g2cubics.packets import Derived
from g2cubics.sheaves import ORBITS, SIMPLE_ORDER, SheafTables, default_tables

GOLDEN = Path(__file__).with_name("golden_mutations.json")
LABELS = ("one", "T", "R", "E")
FOURIER_VALUES = [(i, system) for i in range(4) for system in ("triv", "refl", "sign")]


def _mutant(field: str, change) -> SheafTables:
    """A fresh copy of the shipped tables with `change` applied to one field
    (in place, or by returning the new value)."""
    tables = default_tables()
    value = getattr(tables, field)
    return dataclasses.replace(tables, **{field: change(value) or value})


def _set(container, key, value):
    def change(table):
        table[container][key] = value

    return change


def _set_key(key, value):
    def change(table):
        table[key] = value

    return change


def _mutations() -> dict[str, SheafTables]:
    shipped = default_tables()
    out: dict[str, SheafTables] = {}

    for cover, row in shipped.fiber_ranks.items():
        for orbit in ORBITS:
            for delta in (1, -1):
                out[f"fiber_ranks {cover.value} {orbit.name} {delta:+}"] = _mutant(
                    "fiber_ranks", _set(cover, orbit, row[orbit] + delta)
                )

    for cover, decomp in shipped.decompositions.items():
        for (obj, shift), mult in decomp.items():
            name = f"decompositions {cover.value} {obj.name}[{shift}]"
            out[f"{name} mult +1"] = _mutant("decompositions", _set(cover, (obj, shift), mult + 1))

            def moved(table, cover=cover, obj=obj, shift=shift):
                d = table[cover]
                m = d.pop((obj, shift))
                d[(obj, shift + 2)] = d.get((obj, shift + 2), 0) + m

            out[f"{name} shift +2"] = _mutant("decompositions", moved)

    for (obj, orbit), pieces in shipped.graded_stalks.items():
        for k, (shift, rank) in enumerate(pieces):
            name = f"graded_stalks {obj.name} {orbit.name} piece {k}"
            for what, piece in (("rank +1", (shift, rank + 1)), ("shift +1", (shift + 1, rank))):

                def changed(table, key=(obj, orbit), k=k, piece=piece):
                    table[key][k] = piece

                out[f"{name} {what}"] = _mutant("graded_stalks", changed)

    for i, row in enumerate(shipped.rep_multiplicity):
        for j in range(len(row)):

            def bumped(matrix, i=i, j=j):
                rows = [list(r) for r in matrix]
                rows[i][j] += 1
                return tuple(tuple(r) for r in rows)

            out[f"rep_multiplicity {i} {j} +1"] = _mutant("rep_multiplicity", bumped)

    for field in ("evs", "nevs"):
        table = getattr(shipped, field)
        for obj in SIMPLE_ORDER:
            for stratum in range(4):
                current = table[obj].get(stratum)
                for state in (None, *LABELS):
                    if state == current:
                        continue

                    def relabelled(t, obj=obj, stratum=stratum, state=state):
                        if state is None:
                            del t[obj][stratum]
                        else:
                            t[obj][stratum] = state

                    name = f"{field} {obj.name} {stratum} {current or 'absent'} -> {state or 'absent'}"
                    out[name] = _mutant(field, relabelled)

    for obj in SIMPLE_ORDER:
        for value in FOURIER_VALUES:
            if value != shipped.fourier_dual[obj]:
                name = f"fourier_dual {obj.name} -> {value[0]} {value[1]}"
                out[name] = _mutant("fourier_dual", _set_key(obj, value))
    return out


MUTATIONS = _mutations()


def _failures(tables: SheafTables) -> dict[str, str]:
    return {
        r.name: r.witness
        for scope in ("sheaves", "packets")
        for r in verify.run_checks(scope, Derived(tables))
        if not r.passed
    }


@functools.cache
def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def test_snapshot_covers_exactly_the_mutations():
    assert sorted(_load()) == sorted(MUTATIONS)
    assert len(MUTATIONS) == 394


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_failures_match_snapshot(name):
    assert _failures(MUTATIONS[name]) == _load()[name]


if __name__ == "__main__":
    snapshot = {name: _failures(tables) for name, tables in MUTATIONS.items()}
    GOLDEN.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    uncaught = sorted(name for name, failed in snapshot.items() if not failed)
    sys.stdout.write(f"wrote {len(snapshot)} mutations to {GOLDEN}; {len(uncaught)} uncaught\n")
