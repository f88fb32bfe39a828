"""Differential test: the Dynkin-type namer against the graph walk it replaced
(tests/dynkin_reference.py), and against root counts.

``classify_gram`` names each component from its rank, largest bond,
short-root count and branch-node leaves; the reference walks paths and arms
on a Fraction Cartan matrix.  Every comparison is exact, on Levi subsets
of every type up to rank 8 in shuffled order and on seeded integral
systems, which are often not Levi subsystems (A2 in G2, D4 in B4, ...).
"""
import math
import random
from fractions import Fraction as Fr

import pytest

from orbitcert import integral as ig
from orbitcert import rootsys as rs

import dynkin_reference as ref
import epsilon_reference

LEVI_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
              + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
              + ["E6", "E7", "E8", "F4", "G2"])
INTEGRAL_TYPES = ("A3", "A5", "B3", "B4", "C3", "C4", "D4", "D5", "E6", "E7", "E8", "F4", "G2")
DENOMINATORS = (1, 1, 2, 2, 3, 4, 6)


def _gram(vectors):
    """The Gram matrix of the vectors times the lcm of its denominators: the
    namers take integer Gram matrices, at any positive scale."""
    gram = [[u.dot(v) for v in vectors] for u in vectors]
    den = math.lcm(*(x.denominator for row in gram for x in row))
    return [[int(x * den) for x in row] for row in gram]


def _components(gram):
    """Index sets of the connected components: nonzero off-diagonal pairings."""
    left, comps = set(range(len(gram))), []
    while left:
        comp, queue = set(), [min(left)]
        while queue:
            i = queue.pop()
            if i in comp:
                continue
            comp.add(i)
            queue.extend(j for j in left if j != i and gram[i][j])
        left -= comp
        comps.append(sorted(comp))
    return comps


def _check(vectors):
    """The engine's labels equal the reference's, and each label's positive
    root count equals the count the root-string enumeration finds on its
    component."""
    gram = _gram(vectors)
    labels = rs.classify_gram(gram)
    assert labels == ref.classify_gram(gram)
    assert ref.classify_simple_system(vectors) == labels
    counted = sorted(
        (len(comp), len(rs._positive_coefficients(
            rs._cartan_of([[gram[i][j] for j in comp] for i in comp]))))
        for comp in _components(gram))
    assert sorted((rs.parse_label(label)[1], len(rs.build(label).positive_roots))
                  for label in labels) == counted
    return labels


@pytest.mark.parametrize("label", LEVI_TYPES)
def test_every_levi_subset_shuffled(label):
    model = rs.build(label)
    rng = random.Random(label)
    for mask in range(1 << model.rank):
        simples = [a for i, a in enumerate(model.simple_roots) if mask >> i & 1]
        rng.shuffle(simples)
        _check(simples)


@pytest.mark.parametrize("label", INTEGRAL_TYPES)
def test_seeded_integral_systems(label):
    """Integral systems of weights with random rational Dynkin labels."""
    model = rs.build(label)
    rng = random.Random(label)
    fundamental = epsilon_reference.fundamental_weights(model)
    seen = set()
    for _ in range(60):
        lam = rs.weight([0] * model.ambient_dim)
        for pi in fundamental:
            lam = lam + Fr(rng.randint(-5, 5), rng.choice(DENOMINATORS)) * pi
        isys = ig.integral_system(model, lam)
        assert _check(list(isys.simple_system)) == isys.cartan_type
        seen.add(isys.cartan_type)
    assert len(seen) >= 4


def test_non_levi_integral_types():
    """Integral systems that are not Levi subsystems, named the same way."""
    for label, dynkin, expected in [("G2", (0, Fr(1, 3)), ("A2",)),     # short roots
                                    ("C4", (0, 0, 0, Fr(1, 2)), ("D4",)),  # +-e_i+-e_j
                                    ("B4", (Fr(1, 2), 0, 0, 0), ("B3", "A1"))]:
        model = rs.build(label)
        lam = rs.weight([0] * model.ambient_dim)
        for c, pi in zip(dynkin, epsilon_reference.fundamental_weights(model)):
            lam = lam + c * pi
        isys = ig.integral_system(model, lam)
        assert isys.cartan_type == _check(list(isys.simple_system)) == expected
