"""Packets, pairing characters, stable virtual characters, Aubert involution.

Everything here is derived from the microlocal tables, the finite character
tables of S2/S3 and the encoded multiplicity matrix; the derived values are
compared against the expected packet and distribution tables by the
verification suite. `Derived` holds every fact derived from one table set,
each computed once; `DERIVED` is the one for the shipped tables.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from . import sheaves
from .cubics import OrbitClass
from .linalg import Matrix, solve
from .rootdata import arthur_parameters
from .sheaves import SIMPLE_ORDER, SheafTables, SimpleObject, TABLES


class NotInSpan(ValueError):
    """Raised when a virtual character is outside the requested span."""


class Irreducible(enum.Enum):
    PI0 = 0
    PI1 = 1
    PI2 = 2
    PI3 = 3
    PI3R = 4
    PI3E = 5

    @property
    def tempered(self) -> bool:
        return self in (Irreducible.PI3, Irreducible.PI3R, Irreducible.PI3E)

    def label(self) -> str:
        return ["pi0", "pi1", "pi2", "pi3", "pi3rho", "pi3eps"][self.value]


IRREDUCIBLE_ORDER = list(Irreducible)


def llc(obj: SimpleObject) -> Irreducible:
    """The bijection between simple objects and irreducibles (basis order)."""
    return IRREDUCIBLE_ORDER[SIMPLE_ORDER.index(obj)]


def llc_inverse(pi: Irreducible) -> SimpleObject:
    return SIMPLE_ORDER[IRREDUCIBLE_ORDER.index(pi)]


@dataclass(frozen=True)
class CharacterTable:
    group: str
    irreducibles: tuple  # names
    classes: tuple  # conjugacy class names
    sizes: Mapping  # class -> number of elements
    values: Mapping  # (irrep, class) -> int


def _table(group: str, sizes: dict, rows: dict) -> CharacterTable:
    """The table of `group` from its class sizes and, per irreducible, its
    values on the classes in that order."""
    values = {(chi, c): v for chi, row in rows.items() for c, v in zip(sizes, row)}
    return CharacterTable(group, tuple(rows), tuple(sizes), MappingProxyType(sizes), MappingProxyType(values))


# the component group of each parameter, stated once: a local system's rank
# is the degree chi(e) of its irreducible, and |G| the sum of the class sizes
_CHARACTER_TABLES = {
    table.group: table
    for table in (
        _table("S3", {"e": 1, "transposition": 3, "3-cycle": 2},
               {"1": (1, 1, 1), "rho": (2, 0, -1), "eps": (1, -1, 1)}),
        _table("S2", {"e": 1, "t": 1}, {"1": (1, 1), "tau": (1, -1)}),
    )
}


def character_table(group: str) -> CharacterTable:
    if group not in _CHARACTER_TABLES:
        raise ValueError(f"unknown group {group!r}")
    return _CHARACTER_TABLES[group]


# local-system labels on a stratum, read as irreducibles of its group
_LABEL_TO_IRREP = {"one": "1", "T": "tau", "R": "rho", "E": "eps"}


def packet(psi: int, derived: Derived) -> frozenset[Irreducible]:
    """The packet of psi: support of the normalised table at stratum psi."""
    return frozenset(llc(obj) for obj in SIMPLE_ORDER if psi in derived.nevs(obj))


EXPECTED_PACKETS = {
    0: {Irreducible.PI0, Irreducible.PI1, Irreducible.PI3E},
    1: {Irreducible.PI1, Irreducible.PI2, Irreducible.PI3E},
    2: {Irreducible.PI2, Irreducible.PI3R, Irreducible.PI3E},
    3: {Irreducible.PI3, Irreducible.PI3R, Irreducible.PI3E},
}


def l_packet(phi: int) -> set[Irreducible]:
    """The irreducibles whose simple objects are supported on orbit phi."""
    return {llc(obj) for obj in SIMPLE_ORDER if obj.support.value == phi}


def pairing_character(psi: int, pi: Irreducible, derived: Derived) -> str | None:
    """Name of the component-group irreducible pairing pi with psi, or None."""
    label = derived.nevs(llc_inverse(pi)).get(psi)
    return None if label is None else _LABEL_TO_IRREP[label]


def stable_virtual_character(psi: int, derived: Derived) -> tuple[int, ...]:
    """Coefficients over IRREDUCIBLE_ORDER of the integer combination of
    irreducibles, the pairing characters evaluated at s_psi."""
    meta = arthur_parameters()[psi]
    table = character_table(meta.component_group)
    coeffs = []
    for pi in IRREDUCIBLE_ORDER:
        irrep = pairing_character(psi, pi, derived)
        coeffs.append(0 if irrep is None else table.values[(irrep, meta.s_psi_class)])
    return tuple(coeffs)


EXPECTED_STABLE = {
    0: (1, 2, 0, 0, 0, 1),
    1: (0, 1, -1, 0, 0, 1),
    2: (0, 0, 1, 0, -1, -1),
    3: (0, 0, 0, 1, 2, 1),
}


def express_in_standard_modules(v: tuple[int, ...], derived: Derived) -> tuple[Fraction, ...]:
    """Coefficients over (M0, M1, M2, Theta_psi3) of the virtual character
    with coefficients v over the irreducibles; exact solve."""
    m = Matrix.from_rows(derived.standard_rows).transpose()  # 6x4: columns are the basis
    x = solve(m, list(v))
    if x is None:
        raise NotInSpan(f"{v} is not in the span of the four stable distributions")
    return tuple(x)


def standard_module_change_of_basis(derived: Derived) -> Matrix:
    """Rows: Theta_psi0..Theta_psi3 over (M0, M1, M2, Theta_psi3)."""
    return Matrix.from_rows([express_in_standard_modules(v, derived) for v in derived.stable])


EXPECTED_CHANGE_OF_BASIS = Matrix.from_rows(
    [[1, 1, -3, 1], [0, 1, -2, 1], [0, 0, 1, -1], [0, 0, 0, 1]]
)


def aubert(pi: Irreducible, derived: Derived) -> Irreducible:
    """The involution conjugate to the Fourier transform under the bijection."""
    _, primal = derived.fourier(llc_inverse(pi))
    return llc(primal)


class Derived:
    """Every fact derived from one table set, computed on first use and kept.

    Kept values are immutable, so the shared `DERIVED` hands the same value
    to every caller. Normalised rows and Fourier images are kept per object,
    so a corrupt row fails only its readers; a derivation that raises keeps
    nothing and raises again on the next read.
    """

    def __init__(self, tables: SheafTables):
        self.tables = tables
        self._nevs, self._fourier = {}, {}

    @cached_property
    def stalk_ranks(self) -> Mapping[tuple[SimpleObject, OrbitClass], int]:
        return MappingProxyType(sheaves.solve_ic_stalk_ranks(self.tables))

    @cached_property
    def geomult(self) -> tuple[tuple[int, ...], ...]:
        return sheaves.geometric_multiplicity_matrix(self.stalk_ranks)

    def nevs(self, obj: SimpleObject) -> Mapping[int, str]:
        """The normalised row of obj, checked against its derivation."""
        if obj not in self._nevs:
            self._nevs[obj] = MappingProxyType(sheaves.nevs(obj, self.tables))
        return self._nevs[obj]

    def fourier(self, obj: SimpleObject) -> tuple[sheaves.DualSimpleObject, SimpleObject]:
        if obj not in self._fourier:
            self._fourier[obj] = sheaves.fourier(obj, self.tables)
        return self._fourier[obj]

    @cached_property
    def packets(self) -> tuple[frozenset[Irreducible], ...]:
        return tuple(packet(psi, self) for psi in range(4))

    @cached_property
    def stable(self) -> tuple[tuple[int, ...], ...]:
        return tuple(stable_virtual_character(psi, self) for psi in range(4))

    @cached_property
    def standard_rows(self) -> tuple[tuple[int, ...], ...]:
        """The basis (M0, M1, M2, Theta_psi3) written over the irreducibles."""
        return (*self.tables.rep_multiplicity[:3], self.stable[3])

    @cached_property
    def change_of_basis(self) -> Matrix:
        return standard_module_change_of_basis(self)


DERIVED = Derived(TABLES)
