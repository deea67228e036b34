"""The six simple equivariant perverse sheaves as a combinatorial basis.

Primary-source tables (stalk shifts, the representation-theoretic
multiplicity matrix, the microlocal vanishing-cycle tables and the Fourier
transform) are embedded as data.  Everything that can be re-derived is
re-derived and compared: stalk ranks are solved from the cover push-forward
decompositions, the geometric multiplicity matrix is rebuilt from the solved
ranks, the normalised table is recomputed from the raw one by the stratum
twist, and the Fourier map is checked to be an involution.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import astuple, dataclass, replace
from fractions import Fraction
from math import factorial, prod
from types import MappingProxyType
from typing import TYPE_CHECKING

from .cubics import OrbitClass, REPRESENTATIVES, rational_lines
from .conormal import dual_orbit_class
from .linalg import Matrix, rank, solve

if TYPE_CHECKING:
    from .packets import Derived


class InconsistentSystem(ValueError):
    """Raised when the stalk-rank linear system has no or many solutions."""


class NEvsMismatch(ValueError):
    """Raised when the derived normalised table disagrees with the encoded one."""


class SimpleObject(enum.Enum):
    """The six simple objects, in the fixed basis order."""

    IC1_C0 = 0
    IC1_C1 = 1
    IC1_C2 = 2
    IC1_C3 = 3
    ICR_C3 = 4
    ICE_C3 = 5

    @property
    def support(self) -> OrbitClass:
        return ORBITS[min(self.value, 3)]  # the last three all live on C3

    @property
    def local_system(self) -> str:
        return ("triv", "triv", "triv", "triv", "refl", "sign")[self.value]


SIMPLE_ORDER = list(SimpleObject)
ORBITS = list(OrbitClass)


class Cover(enum.Enum):
    RHO1 = "rho1"
    RHO2 = "rho2"
    RHO3 = "rho3"
    RHO3PP = "rho3pp"
    RHOE = "rhoE"


@dataclass(frozen=True)
class SheafTables:
    """The encoded primary-source data, swappable for sensitivity tests."""

    evs: Mapping
    nevs: Mapping
    fiber_ranks: Mapping
    decompositions: Mapping
    graded_stalks: Mapping
    rep_multiplicity: tuple
    fourier_dual: Mapping

    def with_flipped_evs(self, obj: SimpleObject, stratum: int) -> "SheafTables":
        """Toggle one raw-table entry (one <-> T); a corruption harness."""
        evs = {k: dict(v) for k, v in self.evs.items()}
        row = evs.setdefault(obj, {})
        current = row.get(stratum)
        row[stratum] = "T" if current != "T" else "one"
        return replace(self, evs=evs)


def default_tables() -> SheafTables:
    """Fresh writable copies of the shipped tables, for harnesses that
    corrupt them; every consumer reads the read-only `TABLES` built from it."""
    return SheafTables(
        # push-forward decompositions; keys are (object, shift) with multiplicities
        decompositions={
            Cover.RHO1: {(SimpleObject.IC1_C0, 0): 1, (SimpleObject.IC1_C1, 0): 1},
            Cover.RHO2: {(SimpleObject.IC1_C2, 0): 1},
            Cover.RHO3: {(SimpleObject.IC1_C3, 0): 1, (SimpleObject.ICR_C3, 0): 1},
            Cover.RHO3PP: {
                (SimpleObject.IC1_C3, 0): 1,
                (SimpleObject.ICR_C3, 0): 2,
                (SimpleObject.ICE_C3, 0): 1,
                (SimpleObject.IC1_C0, 0): 3,
                (SimpleObject.IC1_C0, 2): 1,
                (SimpleObject.IC1_C0, -2): 1,
            },
            Cover.RHOE: {
                (SimpleObject.IC1_C3, 0): 1,
                (SimpleObject.ICE_C3, 0): 1,
                (SimpleObject.IC1_C1, 0): 2,
                (SimpleObject.IC1_C0, 0): 1,
            },
        },
        # total cohomology ranks of cover fibers, per orbit (C0, C1, C2, C3).
        # Every row is encoded. The stalk solve leaves the rhoE row out, and
        # `rhoE-redundant-equations` checks it against the solved ranks.
        fiber_ranks={
            Cover.RHO1: {OrbitClass.C0: 2, OrbitClass.C1: 1, OrbitClass.C2: 0, OrbitClass.C3: 0},
            Cover.RHO2: {OrbitClass.C0: 2, OrbitClass.C1: 1, OrbitClass.C2: 1, OrbitClass.C3: 0},
            Cover.RHO3: {OrbitClass.C0: 2, OrbitClass.C1: 1, OrbitClass.C2: 2, OrbitClass.C3: 3},
            Cover.RHO3PP: {OrbitClass.C0: 8, OrbitClass.C1: 1, OrbitClass.C2: 3, OrbitClass.C3: 6},
            Cover.RHOE: {OrbitClass.C0: 4, OrbitClass.C1: 3, OrbitClass.C2: 1, OrbitClass.C3: 2},
        },
        # stalk shift lists: (object, orbit) -> list of (shift, rank); total rank is
        # the sum of ranks.  Empty list means the stalk vanishes.
        graded_stalks={
            (SimpleObject.IC1_C0, OrbitClass.C0): [(0, 1)],
            (SimpleObject.IC1_C1, OrbitClass.C0): [(2, 1)],
            (SimpleObject.IC1_C1, OrbitClass.C1): [(2, 1)],
            (SimpleObject.IC1_C2, OrbitClass.C0): [(1, 1), (3, 1)],
            (SimpleObject.IC1_C2, OrbitClass.C1): [(3, 1)],
            (SimpleObject.IC1_C2, OrbitClass.C2): [(3, 1)],
            (SimpleObject.IC1_C3, OrbitClass.C0): [(4, 1)],
            (SimpleObject.IC1_C3, OrbitClass.C1): [(4, 1)],
            (SimpleObject.IC1_C3, OrbitClass.C2): [(4, 1)],
            (SimpleObject.IC1_C3, OrbitClass.C3): [(4, 1)],
            (SimpleObject.ICR_C3, OrbitClass.C0): [(2, 1)],
            (SimpleObject.ICR_C3, OrbitClass.C2): [(4, 1)],
            (SimpleObject.ICR_C3, OrbitClass.C3): [(4, 2)],
            (SimpleObject.ICE_C3, OrbitClass.C3): [(4, 1)],
        },
        # representation-theoretic multiplicity matrix: rows are standard modules
        # (M0, M1, M2, M3, M3rho, M3eps), columns the irreducibles in LLC order.
        rep_multiplicity=(
            (1, 1, 2, 1, 1, 0),
            (0, 1, 1, 1, 0, 0),
            (0, 0, 1, 1, 1, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1),
        ),
        # microlocal vanishing-cycle tables: object -> {stratum: label}; strata with
        # no entry are zero
        evs={
            SimpleObject.IC1_C0: {0: "one"},
            SimpleObject.IC1_C1: {0: "R", 1: "T"},
            SimpleObject.IC1_C2: {1: "one", 2: "T"},
            SimpleObject.IC1_C3: {3: "one"},
            SimpleObject.ICR_C3: {2: "one", 3: "R"},
            SimpleObject.ICE_C3: {0: "E", 1: "T", 2: "one", 3: "E"},
        },
        nevs={
            SimpleObject.IC1_C0: {0: "one"},
            SimpleObject.IC1_C1: {0: "R", 1: "one"},
            SimpleObject.IC1_C2: {1: "T", 2: "one"},
            SimpleObject.IC1_C3: {3: "one"},
            SimpleObject.ICR_C3: {2: "T", 3: "R"},
            SimpleObject.ICE_C3: {0: "E", 1: "one", 2: "T", 3: "E"},
        },
        # Fourier transform on the dual side: object -> (dual orbit index i of Ci*,
        # local-system label on that dual orbit)
        fourier_dual={
            SimpleObject.IC1_C0: (0, "triv"),
            SimpleObject.IC1_C1: (0, "refl"),
            SimpleObject.IC1_C2: (1, "triv"),
            SimpleObject.IC1_C3: (3, "triv"),
            SimpleObject.ICR_C3: (2, "triv"),
            SimpleObject.ICE_C3: (0, "sign"),
        },
    )


def _read_only(value):
    """A read-only copy of a nested table field: dicts become mapping proxies
    and lists tuples, all the way down."""
    if isinstance(value, dict):
        return MappingProxyType({k: _read_only(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_read_only(v) for v in value)
    return value


# the shipped tables, shared by every consumer in the process, so no caller
# can write them; harnesses that corrupt tables start from default_tables()
TABLES = SheafTables(*map(_read_only, astuple(default_tables())))


# -- fiber ranks ---------------------------------------------------------------


def _line_census(orbit: OrbitClass) -> tuple[int, int]:
    """(distinct lines, ordered line factorizations 3! / prod m!) of a split representative."""
    lines, residual = rational_lines(REPRESENTATIVES[orbit])
    assert residual == 0
    return len(lines), factorial(3) // prod(factorial(m) for _, m in lines)


def recomputed_finite_fiber_counts() -> dict[tuple[Cover, OrbitClass], int]:
    """Point counts of the finite cover fibers, from line combinatorics.

    rho1/rho2/rho3 fibers are sets of (single, double, any) lines; rho3pp
    fibers are ordered factorizations; rhoE is 2:1 over the open orbit (the
    ordered pairs of distinct Hessian lines) and 1:1 over the double-line
    orbit.
    """
    d1, o1 = _line_census(OrbitClass.C1)
    d2, o2 = _line_census(OrbitClass.C2)
    d3, o3 = _line_census(OrbitClass.C3)
    return {
        (Cover.RHO1, OrbitClass.C1): d1,
        (Cover.RHO2, OrbitClass.C2): 1,  # the unique double line
        (Cover.RHO2, OrbitClass.C1): d1,
        (Cover.RHO3, OrbitClass.C3): d3,
        (Cover.RHO3, OrbitClass.C2): d2,
        (Cover.RHO3, OrbitClass.C1): d1,
        (Cover.RHO3PP, OrbitClass.C3): o3,
        (Cover.RHO3PP, OrbitClass.C2): o2,
        (Cover.RHO3PP, OrbitClass.C1): o1,
        (Cover.RHOE, OrbitClass.C3): 2,
        (Cover.RHOE, OrbitClass.C2): 1,
    }


# -- stalk solver ---------------------------------------------------------------


def _unknowns() -> list[tuple[SimpleObject, OrbitClass]]:
    out = []
    for obj in SIMPLE_ORDER:
        for orbit in ORBITS:
            if orbit.value <= obj.support.value:
                out.append((obj, orbit))
    return out


def solve_ic_stalk_ranks(tables: SheafTables) -> dict[tuple[SimpleObject, OrbitClass], int]:
    """Solve stalk ranks from the proper covers, exactly and uniquely.

    Unknowns are ranks on orbits inside each object's support closure.  The
    equations are the four cover push-forwards plus the two a-priori rows:
    the skyscraper on the point orbit and the shifted constant sheaf on the
    open orbit.  The rhoE cover is excluded here and checked redundantly.
    """
    unknowns = _unknowns()
    index = {key: k for k, key in enumerate(unknowns)}
    rows, rhs = [], []

    def add_equation(coeffs: dict, value: int):
        row = [Fraction(0)] * len(unknowns)
        for key, c in coeffs.items():
            row[index[key]] = Fraction(c)
        rows.append(row)
        rhs.append(Fraction(value))

    for cover in (Cover.RHO1, Cover.RHO2, Cover.RHO3, Cover.RHO3PP):
        decomp = tables.decompositions[cover]
        for orbit in ORBITS:
            coeffs: dict = {}
            for (obj, _shift), mult in decomp.items():
                if orbit.value <= obj.support.value:
                    key = (obj, orbit)
                    coeffs[key] = coeffs.get(key, 0) + mult
            add_equation(coeffs, tables.fiber_ranks[cover][orbit])

    add_equation({(SimpleObject.IC1_C0, OrbitClass.C0): 1}, 1)
    for orbit in ORBITS:
        add_equation({(SimpleObject.IC1_C3, orbit): 1}, 1)

    m = Matrix.from_rows(rows)
    solution = solve(m, rhs)
    if solution is None:
        raise InconsistentSystem("cover equations are inconsistent")
    if rank(m) != len(unknowns):
        raise InconsistentSystem("cover equations do not determine the stalk ranks")
    result: dict[tuple[SimpleObject, OrbitClass], int] = {}
    for obj in SIMPLE_ORDER:
        for orbit in ORBITS:
            if (obj, orbit) in index:
                value = solution[index[(obj, orbit)]]
                if value.denominator != 1 or value < 0:
                    raise InconsistentSystem(f"non-integral rank at {(obj, orbit)}")
                result[(obj, orbit)] = int(value)
            else:
                result[(obj, orbit)] = 0
    return result


def graded_stalk_totals(tables: SheafTables) -> dict[tuple[SimpleObject, OrbitClass], int]:
    out = {}
    for obj in SIMPLE_ORDER:
        for orbit in ORBITS:
            pieces = tables.graded_stalks.get((obj, orbit), [])
            out[(obj, orbit)] = sum(rank_ for _, rank_ in pieces)
    return out


def geometric_multiplicity_matrix(ranks: Mapping) -> tuple[tuple[int, ...], ...]:
    """Multiplicities of standard sheaves in simple objects, from solved ranks.

    On the closed strata only trivial local systems exist, so the entry is
    the stalk rank; on the open orbit the restriction of a simple object is
    its own local system, a 1 in the object's own column.
    """
    matrix = []
    for obj in SIMPLE_ORDER:
        row = [ranks[(obj, OrbitClass.C0)], ranks[(obj, OrbitClass.C1)], ranks[(obj, OrbitClass.C2)]]
        open_row = [0, 0, 0]
        if obj.support is OrbitClass.C3:
            open_row[SIMPLE_ORDER.index(obj) - 3] = 1
        matrix.append(tuple(row + open_row))
    return tuple(matrix)


# -- microlocal tables ----------------------------------------------------------


def nevs_derived(obj: SimpleObject, tables: SheafTables) -> dict[int, str]:
    """Normalised row from the raw row: twist strata 1 and 2 by T.

    The raw functor sends the trivial-system object on stratum i to T there
    exactly for i = 1, 2 (and to the trivial system for i = 0, 3), so the
    normalisation tensors those two columns by T.
    """
    twist = {"one": "T", "T": "one"}
    out = {}
    for stratum, label in tables.evs[obj].items():
        out[stratum] = twist.get(label, label) if stratum in (1, 2) else label
    return out


def nevs(obj: SimpleObject, tables: SheafTables) -> dict[int, str]:
    derived = nevs_derived(obj, tables)
    encoded = dict(tables.nevs[obj])
    if derived != encoded:
        raise NEvsMismatch(
            f"normalised row for {obj.name}: derived {derived} != encoded {encoded}"
        )
    return encoded


@dataclass(frozen=True)
class DualSimpleObject:
    """A simple object on the dual space, supported on the dual orbit Ci*."""

    dual_orbit_index: int  # the i of Ci*
    local_system: str
    _PREFIX = MappingProxyType({"triv": "IC1", "refl": "ICR", "sign": "ICE"})  # not a field

    def label(self) -> str:
        return f"{self._PREFIX[self.local_system]}_C{self.dual_orbit_index}*"


def fourier(obj: SimpleObject, tables: SheafTables) -> tuple[DualSimpleObject, SimpleObject]:
    """Fourier transform: the dual-side object and its primal identification.

    The identification replaces the dual orbit Ci* by the primal orbit with
    the same multiplicity structure.
    """
    dual_index, system = tables.fourier_dual[obj]
    dual_obj = DualSimpleObject(dual_index, system)
    primal_orbit = dual_orbit_class(dual_index)
    for candidate in SIMPLE_ORDER:
        if candidate.support is primal_orbit and candidate.local_system == system:
            return dual_obj, candidate
    raise ValueError(f"no primal object with support {primal_orbit} and system {system}")


# -- table export ----------------------------------------------------------------


def table_payload(which: str, derived: Derived) -> dict:
    """A uniform rows/cols/entries rendering of each table of a table set."""
    tables = derived.tables
    objs = [o.name for o in SIMPLE_ORDER]
    strata = [f"stratum{i}" for i in range(4)]
    if which == "stalks":
        cols = [o.name for o in ORBITS]
        entries = [
            [
                "+".join(f"[{shift}]x{rank_}" for shift, rank_ in tables.graded_stalks.get((obj, orbit), []))
                or "0"
                for orbit in ORBITS
            ]
            for obj in SIMPLE_ORDER
        ]
        return {"rows": objs, "cols": cols, "entries": entries}
    if which == "geomult":
        return {
            "rows": objs,
            "cols": [f"{o.name}!" for o in SIMPLE_ORDER],
            "entries": derived.geomult,
        }
    if which == "repmult":
        return {
            "rows": ["M0", "M1", "M2", "M3", "M3rho", "M3eps"],
            "cols": ["pi0", "pi1", "pi2", "pi3", "pi3rho", "pi3eps"],
            "entries": tables.rep_multiplicity,
        }
    if which == "evs":
        return {
            "rows": objs,
            "cols": strata,
            "entries": [[tables.evs[o].get(i, "0") for i in range(4)] for o in SIMPLE_ORDER],
        }
    if which == "nevs":
        return {
            "rows": objs,
            "cols": strata,
            "entries": [[derived.nevs(o).get(i, "0") for i in range(4)] for o in SIMPLE_ORDER],
        }
    if which == "fourier":
        entries = []
        for obj in SIMPLE_ORDER:
            dual_obj, primal = derived.fourier(obj)
            entries.append([dual_obj.label(), primal.name])
        return {"rows": objs, "cols": ["dual", "primal"], "entries": entries}
    raise ValueError(f"unknown table {which!r}")
