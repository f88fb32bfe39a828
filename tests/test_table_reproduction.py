"""Recompute every regular-in-Levi rigid-table row from first principles.

For 32 of the 34 embedded rows the nilpotent is regular in the Levi named
by its label, so dim z_g(e) must equal dim g(0) + dim g(1) for the regular
characteristic of some simple-root subset of that type.  The two rows with
a subregular D-component (D4(a1)+A1 and D5(a1)+A2) have no such
realization and are excluded.  Tilde labels demand short simple roots;
primed E7 classes share a type multiset with an unlisted non-rigid class,
so for those only membership is asserted.

The same realizations give the q_type column: the reductive centralizer of
the sl2 triple, q = z_g(e) in g(0), has dim g(0) - dim g(2), as ad e maps
g(0) onto g(2).  Its rows are paired with Levi subsets by Bala-Carter label
(A5+A1 and D5(a1)+A2 share dim z = 46).
"""
import itertools
from functools import lru_cache

import pytest

from orbitcert import certify as ct
from orbitcert import orbits as ob
from orbitcert import rootsys as rs


@lru_cache(maxsize=None)
def levi_survey(label):
    """(type multiset, #short simples or None, centralizer dim, dim g(0) -
    dim g(2)) per subset, for the regular characteristic of its Levi."""
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
            h = ct.h_regular(model, pi0)
            graded = ob.graded_dims(model, h)
            rows.append((labels, shorts, ob.centralizer_dim_from_h(model, h),
                         graded[0] - graded.get(2, 0)))
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
    dims = {dim for labels, s, dim, _ in levi_survey(algebra)
            if labels == target and (shorts is None or s == shorts)}
    if unique:
        assert dims == {expected}
    else:
        assert expected in dims


SKIPPED = {("E8", "D4(a1)+A1"), ("E8", "D5(a1)+A2")}
LEVI_REGULAR = [rec for rec in ob.RIGID_TABLE if (rec.algebra, rec.bala_carter) not in SKIPPED]
SIMPLE_DIM = {"A": lambda n: n * (n + 2), "B": lambda n: n * (2 * n + 1),
              "C": lambda n: n * (2 * n + 1), "D": lambda n: n * (2 * n - 1),
              "G": lambda n: 14, "F": lambda n: 52, "E": lambda n: {6: 78, 7: 133, 8: 248}[n]}


def terms(label):
    """(multiplicity, tilde, type letter, rank) per summand: "2A2+~A1" gives
    (2, False, "A", 2) and (1, True, "A", 1); parentheses and primes go."""
    for term in label.strip("()'").split("+"):
        count, term = (int(term[0]), term[1:]) if term[0].isdigit() else (1, term)
        tilde = term.startswith("~")
        term = term.lstrip("~")
        yield count, tilde, term[0], int(term[1:])


def levi_of(algebra, bala_carter):
    """The Levi type multiset and #short simples (None when simply laced)."""
    parsed = list(terms(bala_carter))
    labels = tuple(sorted(f"{letter}{rank}" for count, _, letter, rank in parsed
                          for _ in range(count)))
    shorts = sum(count * rank for count, tilde, _, rank in parsed if tilde)
    return labels, (shorts if algebra in ("G2", "F4") else None)


def reductive_dim(q_type):
    return sum(count * SIMPLE_DIM[letter](rank) for count, _, letter, rank in terms(q_type))


def test_label_parsing():
    assert levi_of("F4", "~A2+A1") == (("A1", "A2"), 2)
    assert levi_of("E7", "(3A1)'") == (("A1", "A1", "A1"), None)
    assert levi_of("E8", "A5+A1") == (("A1", "A5"), None)
    assert reductive_dim("F4+A1") == 55 and reductive_dim("2A1") == 6


@pytest.mark.parametrize("rec", LEVI_REGULAR, ids=lambda rec: f"{rec.algebra}-{rec.bala_carter}")
def test_q_type_from_levi_realization(rec):
    """dim g(0) - dim g(2) of every Levi subset of the row's Bala-Carter type
    (and, for the primed E7 classes, of its dim z) is dim q_type."""
    target, shorts = levi_of(rec.algebra, rec.bala_carter)
    qs = {q for labels, s, dim, q in levi_survey(rec.algebra)
          if labels == target and (shorts is None or s == shorts) and dim == rec.dim_z}
    assert qs == {reductive_dim(rec.q_type)}


def test_covers_all_regular_in_levi_rows():
    # every table row except the two subregular D-component ones appears above
    covered = {(a, z) for a, _, _, z, _ in ROWS}
    assert len(LEVI_REGULAR) == 32
    for rec in LEVI_REGULAR:
        assert (rec.algebra, rec.dim_z) in covered, rec
