"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as Fr

from orbitcert import certify as ct
from orbitcert import integral as ig
from orbitcert import lsinduce as ls
from orbitcert import orbits as ob
from orbitcert import rootsys as rs
from orbitcert.orbits import Partition

import conftest
import epsilon_reference

LEVI = conftest.LEVI_A5A1


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({description}): PASS")


def test_criterion_1_e8_flagship(e8, flagship_h, flagship_delta_prime,
                                 flagship_lambda_prime, flagship_integral_simples):
    with criterion(1, "E8 flagship computation, exact, < 1 s"):
        start = time.monotonic()
        assert ct.h_regular(e8, LEVI) == flagship_h                            # (a)
        assert ct.delta_prime(e8, flagship_h) == flagship_delta_prime            # (b)
        report = ct.certify(ct.CertificateInput(e8, LEVI, flagship_h, flagship_lambda_prime,
                                                principal_in_levi=True))
        assert report.verdict_C.status == ct.PASS                             # (c)
        assert report.verdict_A.status == ct.PASS                             # (d)
        isys = ig.integral_system(e8, flagship_lambda_prime)                  # (e)
        assert isys.cartan_type == ("A5", "A2", "A1")
        assert frozenset(isys.simple_system) == flagship_integral_simples
        values = {rs.pairing(e8, flagship_lambda_prime, b)                    # (f)
                  for b in isys.simple_system}
        assert values == {1, 2}
        assert ig.cor68_dim(e8, flagship_lambda_prime) == 202                 # (g)
        assert ob.orbit_dim_from_h(e8, flagship_h) == 202 == 248 - 46
        assert report.overall == ct.PASS                                      # (h)
        assert time.monotonic() - start < 1.0


# Table rows reachable as a regular-in-Levi characteristic: target label
# multiset plus, for G2/F4, how many of the chosen simples must be short
# (tilde labels use short simple roots).
TABLE_ROWS = [
    ("G2", ("A1",), 0, 8),
    ("G2", ("A1",), 1, 6),
    ("F4", ("A1",), 0, 36),
    ("F4", ("A1",), 1, 30),
    ("E6", ("A1",), None, 56),
    ("E7", ("A1",), None, 99),
    ("E8", ("A1",), None, 190),
    ("E8", ("A1", "A1"), None, 156),
    ("E8", ("A1", "A1", "A1"), None, 136),
    ("E8", ("A1", "A1", "A1", "A1"), None, 120),
    ("E8", ("A2", "A1"), None, 112),
    ("E8", ("A2", "A1", "A1"), None, 102),
    ("E8", ("A5", "A1"), None, 46),
]


def test_criterion_2_table_levi_realizations():
    with criterion(2, "rigid-table rows via Levi realizations"):
        for algebra, target, short_count, expected in TABLE_ROWS:
            model = rs.build(algebra)
            min_norm = min(a.dot(a) for a in model.simple_roots)
            found = set()
            for size in range(1, model.rank + 1):
                for pi0 in itertools.combinations(range(model.rank), size):
                    gram = [[model.gram[i][j] for j in pi0] for i in pi0]
                    if tuple(sorted(rs.classify_gram(gram))) != tuple(sorted(target)):
                        continue
                    shorts = sum(1 for i in pi0 if model.simple_roots[i].dot(
                        model.simple_roots[i]) == min_norm)
                    if short_count is not None and shorts != short_count:
                        continue
                    # dim z = dim g - dim O at the regular characteristic of the Levi
                    found.add(model.dim - ob.orbit_dim_from_h(model, ct.h_regular(model, pi0)))
            assert expected in found, (algebra, target, short_count, found)


def test_criterion_3_delta_congruence_sweep():
    with criterion(3, "delta congruence + sl2 weight-sum identity sweep, < 30 s"):
        start = time.monotonic()
        for label in ("G2", "F4", "E6", "E7", "E8"):
            for pi0, key, ok in ct.congruence_sweep(rs.build(label)):
                assert ok, (label, pi0, key)
        assert time.monotonic() - start < 30.0


def test_criterion_4_rho_and_weight_axioms(e8):
    with criterion(4, "rho and fundamental (co)weight axioms, all types"):
        for label in ("A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"):
            model = rs.build(label)
            r = rs.rho(model)
            weights = epsilon_reference.fundamental_weights(model)
            coweights = rs.fundamental_coweights(model)
            for j, alpha in enumerate(model.simple_roots):
                assert rs.pairing(model, r, alpha) == 1
                for i, (pi, w) in enumerate(zip(weights, coweights)):
                    assert rs.pairing(model, pi, alpha) == (1 if i == j else 0)
                    assert alpha.dot(w) == (1 if i == j else 0)
        assert rs.rho(e8) == rs.canonicalize(e8, conftest.RHO_COORDS)


def test_criterion_5_centralizer_oracle_equivalence():
    with criterion(5, "dim_z formulas == matrix kernel oracle, < 60 s"):
        start = time.monotonic()
        checked = 0
        for kind, bound in (("so", 10), ("sp", 10), ("gl", 7)):
            for n in range(1, bound + 1):
                if kind == "sp" and n % 2:
                    continue
                for p in ls.valid_partitions(n, kind):
                    assert ob.dim_z_partition(p) == ls.centralizer_oracle(p), p
                    checked += 1
        assert checked > 100
        assert time.monotonic() - start < 60.0


def test_criterion_6_induction_invariants():
    with criterion(6, "induction: dim preservation, oracle agreement, gl rule, fold order"):
        # (a) dimension preservation, exhaustive for sp/so ambient <= 12
        for kind in ("sp", "so"):
            for n in range(2, 13):
                if kind == "sp" and n % 2:
                    continue
                for k in range(1, n // 2 + 1):
                    m = n - 2 * k
                    if kind == "sp" and m % 2:
                        continue
                    for d in ls.partitions_of(k):
                        for c in ls.valid_partitions(m, kind):
                            tail = ls.Tail(m, c) if m else None
                            levi = ls.LeviDescriptor(
                                kind, n, (ls.GLBlock(k, Partition(d)),), tail)
                            assert (ob.dim_z_partition(ls.induce(levi))
                                    == ls.induced_dim_z(levi)), levi
        # (b) induce == jordan_oracle on >= 50 seeded random descriptors per type
        rng = random.Random(20240817)
        for kind in ("gl", "so", "sp"):
            for i in range(50):
                levi = ls.random_descriptor(rng, kind, 9)
                assert ls.jordan_oracle(levi, seed=i, trials=3) == ls.induce(levi), levi
        # (c) gl componentwise-sum rule == oracle, exhaustive for ambient <= 6
        for n in range(1, 7):
            for sizes in ls.partitions_of(n):
                for ds in itertools.product(*(list(ls.partitions_of(k)) for k in sizes)):
                    blocks = tuple(ls.GLBlock(k, Partition(d))
                                   for k, d in zip(sizes, ds))
                    levi = ls.LeviDescriptor("gl", n, blocks)
                    assert ls.jordan_oracle(levi, seed=1, trials=2) == ls.induce(levi)
        # (d) fold-order independence
        blocks = (ls.GLBlock(2, Partition((2,))), ls.GLBlock(1, Partition((1,))),
                  ls.GLBlock(2, Partition((1, 1))))
        for perm in itertools.permutations(range(3)):
            permuted = tuple(blocks[i] for i in perm)
            assert (ls.induce(ls.LeviDescriptor("sp", 10, permuted)).parts
                    == ls.induce(ls.LeviDescriptor("sp", 10, blocks)).parts)


def test_criterion_7_rigidity_brute_force():
    with criterion(7, "rigidity: zero orbits rigid, induced orbits rediscovered"):
        for kind, ns in (("sp", (2, 4, 6, 8)), ("so", (2, 3, 4, 5, 6, 7)),
                         ("gl", (1, 2, 3, 4))):
            for n in ns:
                assert ls.is_rigid(Partition((1,) * n, kind))[0] is True
        for kind in ("sp", "so"):
            for n in range(4, 9):
                if kind == "sp" and n % 2:
                    continue
                for k in range(1, n // 2 + 1):
                    m = n - 2 * k
                    if kind == "sp" and m % 2:
                        continue
                    for d in ls.partitions_of(k):
                        for c in ls.valid_partitions(m, kind):
                            tail = ls.Tail(m, c) if m else None
                            levi = ls.LeviDescriptor(
                                kind, n, (ls.GLBlock(k, Partition(d)),), tail)
                            induced = ls.induce(levi)
                            rigid, witness = ls.is_rigid(induced)
                            assert not rigid and ls.induce(witness) == induced
        assert ls.is_rigid(Partition((2, 1, 1), "sp"))[0] is True
        rigid, witness = ls.is_rigid(Partition((4,), "sp"))
        assert not rigid and ls.induce(witness).parts == (4,)
        rigid, witness = ls.is_rigid(Partition((2, 2), "sp"))
        assert not rigid and ls.induce(witness).parts == (2, 2)


# frozen transcriptions of the embedded tables (algebra, label, q, dim_z)
RIGID_ROWS = [
    ["G2", "A1", "A1", 8], ["G2", "~A1", "A1", 6],
    ["F4", "A1", "C3", 36], ["F4", "~A1", "A3", 30],
    ["F4", "A1+~A1", "A1+A1", 24], ["F4", "A2+~A1", "A1", 18],
    ["F4", "~A2+A1", "A1", 16],
    ["E6", "A1", "A5", 56], ["E6", "3A1", "A2+A1", 38], ["E6", "2A2+A1", "A1", 24],
    ["E7", "A1", "D6", 99], ["E7", "2A1", "B4+A1", 81],
    ["E7", "(3A1)'", "C3+A1", 69], ["E7", "4A1", "C3", 63],
    ["E7", "A2+2A1", "3A1", 51], ["E7", "2A2+A1", "2A1", 43],
    ["E7", "(A3+A1)'", "3A1", 41],
    ["E8", "A1", "E7", 190], ["E8", "2A1", "B6", 156], ["E8", "3A1", "F4+A1", 136],
    ["E8", "4A1", "C4", 120], ["E8", "A2+A1", "A5", 112],
    ["E8", "A2+2A1", "B3+A1", 102], ["E8", "A2+3A1", "G2+A1", 94],
    ["E8", "2A2+A1", "G2+A1", 86], ["E8", "A3+A1", "B3+A1", 84],
    ["E8", "2A2+2A1", "B2", 80], ["E8", "A3+2A1", "B2+A1", 76],
    ["E8", "D4(a1)+A1", "3A1", 72], ["E8", "A3+A2+A1", "2A1", 66],
    ["E8", "2A3", "B2", 60], ["E8", "A4+A3", "A1", 48],
    ["E8", "A5+A1", "2A1", 46], ["E8", "D5(a1)+A2", "A1", 46],
]

DUALITY_ROWS = [
    ["F4", "~A1", "F4(a1)"], ["F4", "A1+~A1", "F4(a2)"],
    ["E7", "2A1", "E7(a2)"], ["E7", "A2+2A1", "E7(a4)"],
    ["E8", "2A1", "E8(a2)"], ["E8", "A2+A1", "E8(a4)"],
    ["E8", "A2+2A1", "E8(b4)"], ["E8", "D4(a1)+A1", "E8(a6)"],
]


def test_criterion_8_data_fidelity():
    with criterion(8, "embedded tables byte-identical under JSON export"):
        assert len(ob.RIGID_TABLE) == 34
        assert len(ob.DUALITY_TABLE) == 8
        expected_rigid = json.dumps(
            [{"algebra": a, "bala_carter": l, "q_type": q, "dim_z": z}
             for a, l, q, z in RIGID_ROWS], sort_keys=True)
        assert ob.rigid_table_json() == expected_rigid
        expected_duality = json.dumps(
            [{"algebra": a, "e_label": l, "e_dual_label": d}
             for a, l, d in DUALITY_ROWS], sort_keys=True)
        assert ob.duality_table_json() == expected_duality


def test_criterion_9_integral_properties_random():
    with criterion(9, "integral-system properties on seeded random weights"):
        for label in ("A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"):
            model = rs.build(label)
            rng = random.Random(sum(map(ord, label)))
            for _ in range(200):
                mu = rs.weight([Fr(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                                for _ in range(model.ambient_dim)])
                isys = ig.integral_system(model, mu)
                simples = isys.simple_system
                for i, a in enumerate(simples):
                    for b in simples[i + 1:]:
                        assert a.dot(b) <= 0
                assert 2 * sum(len(rs.build(lbl).positive_roots)
                               for lbl in isys.cartan_type) == isys.size
            assert ig.cor68_dim(model, rs.rho(model)) == 0
