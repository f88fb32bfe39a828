"""Recompute every regular-in-Levi rigid-table row from first principles.

For 32 of the 34 embedded rows the nilpotent is regular in the Levi named
by its label, so dim z_g(e) must equal dim g(0) + dim g(1) for the regular
characteristic of some simple-root subset of that type.  The two rows with
a subregular D-component (D4(a1)+A1 and D5(a1)+A2) have no such
realization; their h is solved in the coroot span of a Levi from the sl2
labels of the D partitions (5,3) and (7,3), laid on the E8 branch node.
Tilde labels demand short simple roots; primed E7 classes share a type
multiset with an unlisted non-rigid class, so for those only membership is
asserted.

The same realizations give the q_type column: the reductive centralizer of
the sl2 triple, q = z_g(e) in g(0), has dim g(0) - dim g(2), as ad e maps
g(0) onto g(2).  Its rows are paired with Levi subsets by Bala-Carter label
(A5+A1 and D5(a1)+A2 share dim z = 46).
"""
import itertools
from functools import lru_cache

import pytest

from orbitcert import certify as ct
from orbitcert import linalg
from orbitcert import lsinduce as ls
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
            labels = tuple(sorted(rs.classify_gram([[model.gram[i][j] for j in pi0]
                                                    for i in pi0])))
            shorts = (sum(1 for i in pi0 if model.simple_roots[i].dot(model.simple_roots[i])
                          == min_norm)
                      if len(norms) > 1 else None)
            h = ct.h_regular(model, pi0)
            graded = ct.graded_dims(model, h)
            rows.append((labels, shorts, model.dim - ct.orbit_dim_from_h(model, h),
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


def d_labels(parts):
    """Dynkin labels of the so_2r nilpotent of an even total: the nonnegative
    half of its sl2 weights is h in epsilon coordinates, so the labels are
    h_i - h_(i+1) on the chain and h_(r-1) + h_r on the last node."""
    weights = ls._sl2_weights(parts)
    h = weights[:len(weights) // 2]
    return [a - b for a, b in zip(h, h[1:])] + [h[-2] + h[-1]]


# (row, E8 nodes of the D component in D order, with the branch third from
# the end, and of the regular A component): the model's E8 diagram branches
# at node 4 with arms 3-2-1-0, 5-6 and 7
SUBREGULAR_D = [
    ("D4(a1)+A1", (5, 3), (3, 4, 5, 7), (1,)),
    ("D5(a1)+A2", (7, 3), (6, 5, 4, 3, 7), (0, 1)),
]


@pytest.mark.parametrize("label,parts,d_nodes,a_nodes", SUBREGULAR_D,
                         ids=[row[0] for row in SUBREGULAR_D])
def test_subregular_d_row_from_sl2_labels(label, parts, d_nodes, a_nodes):
    """h in the coroot span of the Levi D_r + A_s with the labels of the D
    partition on the D component and 2 on the A component: graded_dims
    gives the row's dim z = dim g(0) + dim g(1) and dim q = dim g(0) - dim g(2)."""
    e8 = rs.build("E8")
    rank = len(d_nodes)
    assert [[e8.cartan[i][j] for j in d_nodes] for i in d_nodes] == \
        [list(row) for row in rs.build(f"D{rank}").cartan]
    labels = d_labels(parts) + [2] * len(a_nodes)
    assert d_labels(parts)[rank - 3] == 0  # the branch node of D_r
    nodes = d_nodes + a_nodes
    # <a_i, h> = sum_j cartan[i][j] c_j for h = sum_j c_j a_j^vee over the Levi nodes
    inverse, den = linalg.inverse([[e8.cartan[i][j] for j in nodes] for i in nodes])
    coroot = [sum(x * y for x, y in zip(row, labels)) for row in inverse]
    scale, scale_den = e8.coroot_scale
    coeffs = [0] * e8.rank
    for node, c in zip(nodes, coroot):
        coeffs[node] = c * scale[node]
    h = rs.combine(e8, coeffs, scale_den * den)
    values = rs.h_values(e8, h)
    assert [values[node] for node in nodes] == labels
    graded = ct.graded_dims(e8, h)
    rec = ob.rigid_table("E8", label)
    assert graded[0] + graded.get(1, 0) == rec.dim_z
    assert graded[0] - graded.get(2, 0) == reductive_dim(rec.q_type)


def test_subregular_d_rows_are_the_two_skipped_ones():
    assert {("E8", label) for label, *_ in SUBREGULAR_D} == SKIPPED
    rows = [ob.rigid_table("E8", label) for label, *_ in SUBREGULAR_D]
    assert [(rec.dim_z, reductive_dim(rec.q_type)) for rec in rows] == [(72, 9), (46, 3)]
