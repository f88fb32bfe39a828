"""Classical nilpotent orbits as partitions, and the exceptional reference tables.

Classical orbits are encoded by partitions with a gl/so/sp context; their
centralizer dimensions come from the transpose-square-sum formulas and are
cross-checked elsewhere against an exact matrix oracle.  This module is the
partition half of the engine and imports no root-system code: the orbit
dimensions of an sl2 characteristic h live in ``certify``.

Also embedded here: the reference tables of rigid elements in exceptional
algebras (34 rows) and of non-minimal special rigid elements with their
Spaltenstein duals (8 rows).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import count
from operator import mul


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts with a gl/so/sp context."""

    parts: tuple[int, ...]
    kind: str = "gl"

    def __post_init__(self):
        parts = _int_parts(self.parts)
        if parts and min(parts) < 0:
            raise ValueError("parts must be positive")
        if 0 in parts:
            parts = tuple(p for p in parts if p)
        object.__setattr__(self, "parts", parts)
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        if self.kind not in ("gl", "so", "sp"):
            raise ValueError(f"unknown type context {self.kind!r}")

    @property
    def total(self) -> int:
        return sum(self.parts)


def _int_parts(parts) -> tuple[int, ...]:
    """The parts as ints; TypeError for a bool or a non-integer, which int() truncates."""
    parts = tuple(parts)
    if set(map(type, parts)) - {int}:  # exact ints pass without a per-part test
        if not all(isinstance(p, numbers.Integral) and not isinstance(p, bool) for p in parts):
            raise TypeError(f"partition parts must be integers: {parts}")
        parts = tuple(map(int, parts))
    return parts


def parity_valid(p: Partition) -> bool:
    """so: even parts have even multiplicity; sp: odd parts do; gl: anything.

    The parts are weakly decreasing, so the bad-parity parts have even
    multiplicities exactly when they pair up.
    """
    if p.kind == "gl":
        return True
    bad_parity = 1 if p.kind == "sp" else 0
    bad = [q for q in p.parts if q % 2 == bad_parity]
    return bad[::2] == bad[1::2]


def dim_z_partition(p: Partition) -> int:
    """dim of the centralizer of a nilpotent with Jordan type p.

    gl: sum m_i^2 over the transpose m; so: (sum m_i^2 - #odd parts)/2;
    sp: (sum m_i^2 + #odd parts)/2.  Must agree with the matrix-kernel
    oracle on every tested instance.  sum m_i^2 is read off the parts as
    sum (2i - 1) p_i, so a huge part costs nothing.
    """
    if not parity_valid(p):
        raise ValueError(f"{p.parts} is not a valid {p.kind} partition")
    sq = sum(map(mul, count(1, 2), p.parts))
    odd = sum(map((1).__and__, p.parts))
    if p.kind == "gl":
        return sq
    if p.kind == "so":
        return (sq - odd) // 2
    return (sq + odd) // 2


@dataclass(frozen=True)
class OrbitRecord:
    algebra: str
    bala_carter: str
    q_type: str
    dim_z: int


@dataclass(frozen=True)
class DualityRecord:
    algebra: str
    e_label: str
    e_dual_label: str


# Rigid elements in exceptional algebras: (algebra, Bala-Carter label of e,
# type of q = reductive part of the centralizer, dim z_g(e)).  The tilde of
# short-root labels is rendered as "~".
RIGID_TABLE: tuple[OrbitRecord, ...] = tuple(OrbitRecord(*row) for row in [
    ("G2", "A1", "A1", 8),
    ("G2", "~A1", "A1", 6),
    ("F4", "A1", "C3", 36),
    ("F4", "~A1", "A3", 30),
    ("F4", "A1+~A1", "A1+A1", 24),
    ("F4", "A2+~A1", "A1", 18),
    ("F4", "~A2+A1", "A1", 16),
    ("E6", "A1", "A5", 56),
    ("E6", "3A1", "A2+A1", 38),
    ("E6", "2A2+A1", "A1", 24),
    ("E7", "A1", "D6", 99),
    ("E7", "2A1", "B4+A1", 81),
    ("E7", "(3A1)'", "C3+A1", 69),
    ("E7", "4A1", "C3", 63),
    ("E7", "A2+2A1", "3A1", 51),
    ("E7", "2A2+A1", "2A1", 43),
    ("E7", "(A3+A1)'", "3A1", 41),
    ("E8", "A1", "E7", 190),
    ("E8", "2A1", "B6", 156),
    ("E8", "3A1", "F4+A1", 136),
    ("E8", "4A1", "C4", 120),
    ("E8", "A2+A1", "A5", 112),
    ("E8", "A2+2A1", "B3+A1", 102),
    ("E8", "A2+3A1", "G2+A1", 94),
    ("E8", "2A2+A1", "G2+A1", 86),
    ("E8", "A3+A1", "B3+A1", 84),
    ("E8", "2A2+2A1", "B2", 80),
    ("E8", "A3+2A1", "B2+A1", 76),
    ("E8", "D4(a1)+A1", "3A1", 72),
    ("E8", "A3+A2+A1", "2A1", 66),
    ("E8", "2A3", "B2", 60),
    ("E8", "A4+A3", "A1", 48),
    ("E8", "A5+A1", "2A1", 46),
    ("E8", "D5(a1)+A2", "A1", 46),
])

# Non-minimal special rigid elements with their Spaltenstein duals.
DUALITY_TABLE: tuple[DualityRecord, ...] = tuple(DualityRecord(*row) for row in [
    ("F4", "~A1", "F4(a1)"),
    ("F4", "A1+~A1", "F4(a2)"),
    ("E7", "2A1", "E7(a2)"),
    ("E7", "A2+2A1", "E7(a4)"),
    ("E8", "2A1", "E8(a2)"),
    ("E8", "A2+A1", "E8(a4)"),
    ("E8", "A2+2A1", "E8(b4)"),
    ("E8", "D4(a1)+A1", "E8(a6)"),
])


# the algebras the tables cover, in table order; the duality table's are among them
_TABLE_ALGEBRAS = tuple(dict.fromkeys(rec.algebra for rec in RIGID_TABLE))


def _check_table_algebra(algebra: str) -> None:
    if algebra not in _TABLE_ALGEBRAS:
        raise ValueError(f"the tables cover {', '.join(_TABLE_ALGEBRAS)}, not {algebra!r}")


def rigid_table(algebra: str, bala_carter: str) -> OrbitRecord | None:
    """Exact embedded row lookup: None for a row absent from the table,
    ValueError for an algebra outside G2, F4, E6, E7 and E8."""
    _check_table_algebra(algebra)
    for rec in RIGID_TABLE:
        if rec.algebra == algebra and rec.bala_carter == bala_carter:
            return rec
    return None


def duality_table(algebra: str, e_label: str) -> DualityRecord | None:
    """As ``rigid_table``, in the duality table."""
    _check_table_algebra(algebra)
    for rec in DUALITY_TABLE:
        if rec.algebra == algebra and rec.e_label == e_label:
            return rec
    return None
