"""Recompute every regular-in-Levi rigid-table row from first principles.

For 32 of the 34 embedded rows the nilpotent is regular in the Levi named
by its label, so dim z_g(e) must equal dim g(0) + dim g(1) for the regular
characteristic of some simple-root subset of that type.  The two rows with
a subregular D-component (D4(a1)+A1 and D5(a1)+A2) have no such
realization and are excluded.  Tilde labels demand short simple roots;
primed E7 classes share a type multiset with an unlisted non-rigid class,
so for those only membership is asserted.
"""
import itertools
from functools import lru_cache

import pytest

from orbitcert import certify as ct
from orbitcert import orbits as ob
from orbitcert import rootsys as rs


@lru_cache(maxsize=None)
def levi_survey(label):
    """(type multiset, #short simples or None, centralizer dim) per subset."""
    model = rs.build(label)
    norms = {a.dot(a) for a in model.simple_roots}
    min_norm = min(norms)
    rows = []
    for size in range(1, model.rank + 1):
        for pi0 in itertools.combinations(range(model.rank), size):
            _, simp = rs.levi_subsystem(model, pi0)
            labels = tuple(sorted(rs.classify_simple_system(simp)))
            shorts = (sum(1 for a in simp if a.dot(a) == min_norm)
                      if len(norms) > 1 else None)
            dim = ob.centralizer_dim_from_h(model, ct.h_regular(model, pi0))
            rows.append((labels, shorts, dim))
    return rows


# (algebra, component multiset, required #short simples, dim z, unique?)
ROWS = [
    ("G2", ("A1",), 0, 8, True),
    ("G2", ("A1",), 1, 6, True),
    ("F4", ("A1",), 0, 36, True),
    ("F4", ("A1",), 1, 30, True),
    ("F4", ("A1", "A1"), 1, 24, True),       # A1 + ~A1
    ("F4", ("A1", "A2"), 1, 18, True),       # A2 + ~A1
    ("F4", ("A1", "A2"), 2, 16, True),       # ~A2 + A1
    ("E6", ("A1",), None, 56, True),
    ("E6", ("A1", "A1", "A1"), None, 38, True),
    ("E6", ("A1", "A2", "A2"), None, 24, True),
    ("E7", ("A1",), None, 99, True),
    ("E7", ("A1", "A1"), None, 81, True),
    ("E7", ("A1", "A1", "A1"), None, 69, False),   # (3A1)'; the '' class is 79
    ("E7", ("A1", "A1", "A1", "A1"), None, 63, True),
    ("E7", ("A1", "A1", "A2"), None, 51, True),
    ("E7", ("A1", "A2", "A2"), None, 43, True),
    ("E7", ("A1", "A3"), None, 41, False),         # (A3+A1)'; the '' class is 47
    ("E8", ("A1",), None, 190, True),
    ("E8", ("A1", "A1"), None, 156, True),
    ("E8", ("A1", "A1", "A1"), None, 136, True),
    ("E8", ("A1", "A1", "A1", "A1"), None, 120, True),
    ("E8", ("A1", "A2"), None, 112, True),
    ("E8", ("A1", "A1", "A2"), None, 102, True),
    ("E8", ("A1", "A1", "A1", "A2"), None, 94, True),
    ("E8", ("A1", "A2", "A2"), None, 86, True),
    ("E8", ("A1", "A3"), None, 84, True),
    ("E8", ("A1", "A1", "A2", "A2"), None, 80, True),
    ("E8", ("A1", "A1", "A3"), None, 76, True),
    ("E8", ("A1", "A2", "A3"), None, 66, True),
    ("E8", ("A3", "A3"), None, 60, True),
    ("E8", ("A3", "A4"), None, 48, True),
    ("E8", ("A1", "A5"), None, 46, True),
]


@pytest.mark.parametrize("algebra,target,shorts,expected,unique", ROWS)
def test_rigid_row_from_levi_realization(algebra, target, shorts, expected, unique):
    dims = {dim for labels, s, dim in levi_survey(algebra)
            if labels == target and (shorts is None or s == shorts)}
    if unique:
        assert dims == {expected}
    else:
        assert expected in dims


def test_covers_all_regular_in_levi_rows():
    # every table row except the two subregular D-component ones appears above
    covered = {(a, z) for a, _, _, z, _ in ROWS}
    skipped = {("E8", "D4(a1)+A1"), ("E8", "D5(a1)+A2")}
    for rec in ob.RIGID_TABLE:
        if (rec.algebra, rec.bala_carter) in skipped:
            continue
        assert (rec.algebra, rec.dim_z) in covered, rec
