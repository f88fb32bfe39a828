"""Nilpotent-orbit dimensions from sl2 characteristics and from partitions.

A characteristic is the semisimple member h of an sl2-triple, handed around
as a Weight (an element of the Cartan via the invariant form).  The grading
it induces on g gives dim z_g(e) = dim g(0) + dim g(1) and
dim O = dim g - dim z_g(e).  Classical orbits are encoded by partitions;
their centralizer dimensions come from the transpose-square-sum formulas
and are cross-checked elsewhere against an exact matrix oracle.

Also embedded here: the reference tables of rigid elements in exceptional
algebras (34 rows) and of non-minimal special rigid elements with their
Spaltenstein duals (8 rows).
"""
from __future__ import annotations

import json
import numbers
import warnings
from collections import Counter
from dataclasses import dataclass, asdict
from typing import TYPE_CHECKING

# The h-side functions import rootsys when called (absolutely: a relative
# import resolves the package through __spec__.parent on every call), so the
# partition side loads without it.
if TYPE_CHECKING:
    from .rootsys import RootSystemModel, Weight


def graded_dims(model: RootSystemModel, h: Weight) -> dict[int, int]:
    """dim g(i) for the grading by ad-h eigenvalues; h must be integral.

    From <beta, h> = k on the positive roots (``rootsys.root_values``): beta
    and -beta add one each to g(k) and g(-k), the Cartan to g(0)."""
    import orbitcert.rootsys as rs
    dims: dict[int, int] = {0: model.rank}
    for k, count in Counter(rs.root_values(model, rs.h_values(model, h))).items():
        dims[k] = dims.get(k, 0) + count
        dims[-k] = dims.get(-k, 0) + count
    return {k: v for k, v in sorted(dims.items()) if v}


def _dim_z(model: RootSystemModel, values) -> int:
    """dim g(0) + dim g(1) = rank + 2 #{0} + #{1} + #{-1} over <beta, h> on the
    positive roots (a list): +-beta are in g(0) at 0, one of them in g(1) at +-1."""
    return model.rank + 2 * values.count(0) + values.count(1) + values.count(-1)


def centralizer_dim_from_h(model: RootSystemModel, h: Weight) -> int:
    """dim z_g(e) = dim g(0) + dim g(1) for a characteristic h of e."""
    import orbitcert.rootsys as rs
    return _dim_z(model, rs.root_values(model, rs.h_values(model, h)))


def orbit_dim_from_h(model: RootSystemModel, h: Weight) -> int:
    """dim O = dim g - dim z_g(e); odd only when h is not a characteristic."""
    import orbitcert.rootsys as rs
    return orbit_dim_from_values(model, rs.root_values(model, rs.h_values(model, h)))


def orbit_dim_from_values(model: RootSystemModel, values) -> int:
    """``orbit_dim_from_h`` from <beta, h> on the positive roots (a list)."""
    dim_orb = model.dim - _dim_z(model, values)
    if dim_orb % 2:
        raise ValueError(f"orbit dimension {dim_orb} is odd: h is not the "
                         "characteristic of a nilpotent")
    return dim_orb


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts with a gl/so/sp context."""

    parts: tuple[int, ...]
    kind: str = "gl"

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(p for p in _int_parts(self.parts) if p))
        if any(p < 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {self.parts}")
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


def transpose(p: Partition) -> Partition:
    """Young-diagram transpose (an involution on the parts): part index i
    appears p_i - p_(i+1) times, for i from the number of parts down to 1.
    ValueError for an so or sp partition that is not parity-valid, as in
    ``dim_z_partition``; the transpose keeps p's kind."""
    if not parity_valid(p):
        raise ValueError(f"{p.parts} is not a valid {p.kind} partition")
    parts = p.parts + (0,)
    cols: list[int] = []
    for i in range(len(p.parts), 0, -1):
        cols += [i] * (parts[i - 1] - parts[i])
    return Partition(tuple(cols), p.kind)


def dim_z_partition(p: Partition) -> int:
    """dim of the centralizer of a nilpotent with Jordan type p.

    gl: sum m_i^2 over the transpose m; so: (sum m_i^2 - #odd parts)/2;
    sp: (sum m_i^2 + #odd parts)/2.  Must agree with the matrix-kernel
    oracle on every tested instance.  sum m_i^2 is read off the parts as
    sum (2i - 1) p_i, so a huge part costs nothing.
    """
    if not parity_valid(p):
        raise ValueError(f"{p.parts} is not a valid {p.kind} partition")
    sq = sum((2 * i - 1) * q for i, q in enumerate(p.parts, 1))
    odd = sum(1 for q in p.parts if q % 2 == 1)
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


def rigid_table_json() -> str:
    return json.dumps([asdict(rec) for rec in RIGID_TABLE], sort_keys=True)


def duality_table_json() -> str:
    return json.dumps([asdict(rec) for rec in DUALITY_TABLE], sort_keys=True)


def bv_candidate(model: RootSystemModel, h_dual: Weight) -> Weight:
    """Candidate highest weight h_dual - rho for the certificate pipeline.

    h_dual is the dominant characteristic of a dual-side sl2-triple; the
    associated variety of the primitive ideal at h_dual - rho is the closure
    of the dual orbit.  Emits a warning when h_dual is not even, since dual
    characteristics of rigid elements are always even.  h_dual is
    canonicalized first, so every representative gives the same candidate.
    """
    import orbitcert.rootsys as rs
    h_dual = rs.canonicalize(model, h_dual)
    nums, den = rs.simple_pairings(model, h_dual)
    for alpha, value in zip(model.simple_roots, nums):
        if value < 0:
            raise ValueError(f"h_dual is not dominant: <{alpha}, h_dual> < 0")
    # even on every positive root exactly when even on the simple roots
    if any(value % (2 * den) for value in nums):
        warnings.warn("h_dual is not even; dual characteristics of rigid "
                      "elements are even", stacklevel=2)
    return h_dual - rs.rho(model)
