import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcert import lsinduce as ls
from orbitcert.orbits import Partition, dim_z_partition


def P(parts, kind="gl"):
    return Partition(tuple(parts), kind)


def brute_collapse(parts, kind):
    n = sum(parts)
    cands = [p for p in ls.valid_partitions(n, kind)
             if ls.dominates(tuple(parts), p.parts)]
    best = [p for p in cands if all(ls.dominates(p.parts, q.parts) for q in cands)]
    assert len(best) == 1
    return best[0].parts


# collapse --------------------------------------------------------------------

def test_collapse_examples():
    assert ls.collapse((3, 1), "sp").parts == (2, 2)
    assert ls.collapse((2, 2), "sp").parts == (2, 2)
    assert ls.collapse((4, 2, 1), "so").parts == (3, 3, 1)
    assert ls.collapse((2,), "so").parts == (1, 1)
    assert ls.collapse((), "sp").parts == ()


def test_collapse_idempotent_on_valid():
    for parts, kind in [((2, 2), "sp"), ((3, 3, 1), "so"), ((6, 4, 4), "sp")]:
        assert ls.collapse(parts, kind).parts == parts


def test_collapse_rejects_bad_input():
    with pytest.raises(ValueError):
        ls.collapse((3,), "sp")  # odd total has no sp partition
    with pytest.raises(ValueError):
        ls.collapse((1, 2), "so")
    with pytest.raises(ValueError):
        ls.collapse((2, 2), "gl")


@pytest.mark.parametrize("kind", ["so", "sp"])
def test_collapse_matches_brute_force(kind):
    for n in range(0, 13):
        if kind == "sp" and n % 2:
            continue
        for parts in ls.partitions_of(n):
            assert ls.collapse(parts, kind).parts == brute_collapse(parts, kind)


# induce ----------------------------------------------------------------------

def test_induce_gl_componentwise():
    levi = ls.LeviDescriptor("gl", 5, (ls.GLBlock(2, P((2,))), ls.GLBlock(3, P((2, 1)))))
    assert ls.induce(levi).parts == (4, 1)


def test_induce_sp4_siegel():
    levi = ls.LeviDescriptor("sp", 4, (ls.GLBlock(2, P((1, 1))),))
    assert ls.induce(levi).parts == (2, 2)


def test_induce_sp4_with_tail():
    levi = ls.LeviDescriptor("sp", 4, (ls.GLBlock(1, P((1,))),),
                             ls.Tail(2, P((1, 1), "sp")))
    assert ls.induce(levi).parts == (2, 2)


def test_induce_from_full_levi_is_identity():
    levi = ls.LeviDescriptor("sp", 6, (), ls.Tail(6, P((2, 2, 1, 1), "sp")))
    assert ls.induce(levi).parts == (2, 2, 1, 1)


def test_induce_borel_gives_regular():
    levi = ls.LeviDescriptor("sp", 4, (ls.GLBlock(1, P((1,))), ls.GLBlock(1, P((1,)))))
    assert ls.induce(levi).parts == (4,)
    levi = ls.LeviDescriptor("so", 8, (ls.GLBlock(4, P((1, 1, 1, 1))),))
    # Richardson orbit of gl_4 in so_8: collapse of (2,2,2,2)
    assert ls.induce(levi).parts == (2, 2, 2, 2)
    levi = ls.LeviDescriptor("so", 6, (ls.GLBlock(3, P((1, 1, 1))),))
    assert ls.induce(levi).parts == (2, 2, 1, 1)


@given(st.permutations(list(range(3))))
def test_induce_block_order_independent(perm):
    blocks = (ls.GLBlock(2, P((2,))), ls.GLBlock(1, P((1,))), ls.GLBlock(3, P((2, 1))))
    base = ls.induce(ls.LeviDescriptor("sp", 12, blocks))
    permuted = tuple(blocks[i] for i in perm)
    assert ls.induce(ls.LeviDescriptor("sp", 12, permuted)) == base


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ls.LeviDescriptor("gl", 5, (ls.GLBlock(2, P((2,))),))
    with pytest.raises(ValueError):
        ls.LeviDescriptor("sp", 4, (ls.GLBlock(1, P((2,))),))
    with pytest.raises(ValueError):
        ls.LeviDescriptor("sp", 5, (ls.GLBlock(1, P((1,))),), ls.Tail(3, P((3,), "sp")))
    with pytest.raises(ValueError):
        ls.LeviDescriptor("sp", 6, (ls.GLBlock(1, P((1,))),), ls.Tail(4, P((3, 1), "sp")))


def test_descriptor_json_round_trip():
    levi = ls.LeviDescriptor("sp", 8, (ls.GLBlock(2, P((2,))),),
                             ls.Tail(4, P((1, 1, 1, 1), "sp")))
    data = levi.to_json_dict()
    assert data == {"type": "sp", "ambient": 8,
                    "gl_blocks": [{"k": 2, "d": [2]}],
                    "tail": {"m": 4, "c": [1, 1, 1, 1]}}
    assert ls.LeviDescriptor.from_json_dict(data) == levi


# jordan oracle ---------------------------------------------------------------

def test_jordan_type_of_block_matrix():
    mat = ls._jordan_block_matrix((3, 2, 2, 1), 8)
    assert ls.jordan_type(mat) == (3, 2, 2, 1)
    assert ls.jordan_type([[0]]) == (1,)


def test_jordan_type_rank_identity():
    # number of parts >= i equals rank(e^(i-1)) - rank(e^i)
    from orbitcert import linalg
    mat = ls._jordan_block_matrix((4, 2, 1), 7)
    parts = ls.jordan_type(mat)
    power = [row[:] for row in mat]
    prev = 7
    for i in range(1, 5):
        r = linalg.rank(power)
        assert sum(1 for q in parts if q >= i) == prev - r
        prev = r
        power = ls._matmul(power, mat)


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        ls.jordan_type([[1, 0], [0, 1]])


def test_oracle_identity_on_full_gl_levi():
    levi = ls.LeviDescriptor("gl", 5, (ls.GLBlock(5, P((3, 2))),))
    assert ls.jordan_oracle(levi).parts == (3, 2)


def test_oracle_sp4_siegel():
    levi = ls.LeviDescriptor("sp", 4, (ls.GLBlock(2, P((1, 1))),))
    assert ls.jordan_oracle(levi, seed=3).parts == (2, 2)


def test_oracle_deterministic_for_seed():
    levi = ls.LeviDescriptor("so", 7, (ls.GLBlock(2, P((2,))),),
                             ls.Tail(3, P((1, 1, 1), "so")))
    a = ls.jordan_oracle(levi, seed=11, trials=3)
    b = ls.jordan_oracle(levi, seed=11, trials=3)
    assert a == b


def test_oracle_respects_ambient_bound(monkeypatch):
    monkeypatch.setenv("ORBITCERT_MAX_AMBIENT", "4")
    levi = ls.LeviDescriptor("sp", 6, (ls.GLBlock(3, P((1, 1, 1))),))
    with pytest.raises(ValueError):
        ls.jordan_oracle(levi)
    monkeypatch.delenv("ORBITCERT_MAX_AMBIENT")
    assert ls.jordan_oracle(levi).parts == (2, 2, 2)


def test_oracle_agrees_with_induce_seeded():
    rng = random.Random(7)
    for kind in ("gl", "so", "sp"):
        for trial in range(12):
            levi = ls.random_descriptor(rng, kind, 9)
            assert ls.jordan_oracle(levi, seed=trial, trials=3) == ls.induce(levi)


# centralizer oracle ----------------------------------------------------------

def test_centralizer_oracle_gl():
    assert ls.centralizer_oracle(P((1, 1, 1))) == 9
    assert ls.centralizer_oracle(P((4,))) == 4
    assert ls.centralizer_oracle(P((2, 1))) == 5


def test_centralizer_oracle_classical():
    assert ls.centralizer_oracle(P((2, 2), "sp")) == 4
    assert ls.centralizer_oracle(P((3, 2, 2, 1), "so")) == 12
    assert ls.centralizer_oracle(P((1, 1, 1, 1), "sp")) == 10
    assert ls.centralizer_oracle(P((5,), "so")) == 2


def test_centralizer_oracle_rejects_invalid():
    with pytest.raises(ValueError):
        ls.centralizer_oracle(P((3, 1), "sp"))


# dimension preservation ------------------------------------------------------

def test_dim_preservation_small():
    for kind in ("sp", "so"):
        for n in range(2, 9):
            if kind == "sp" and n % 2:
                continue
            for k in range(1, n // 2 + 1):
                m = n - 2 * k
                if kind == "sp" and m % 2:
                    continue
                for d in ls.partitions_of(k):
                    for c in ls.valid_partitions(m, kind):
                        tail = ls.Tail(m, c) if m else None
                        levi = ls.LeviDescriptor(kind, n, (ls.GLBlock(k, P(d)),), tail)
                        assert dim_z_partition(ls.induce(levi)) == ls.induced_dim_z(levi)


def test_dim_preservation_multi_block():
    levi = ls.LeviDescriptor("so", 9, (ls.GLBlock(2, P((2,))), ls.GLBlock(1, P((1,)))),
                             ls.Tail(3, P((3,), "so")))
    assert dim_z_partition(ls.induce(levi)) == ls.induced_dim_z(levi)


def test_induction_transitivity():
    # two stages through an intermediate Levi equal one stage, ambient <= 10
    for kind in ("sp", "so"):
        for n in range(4, 11):
            if kind == "sp" and n % 2:
                continue
            for k1 in range(1, n // 2 + 1):
                for k2 in range(1, (n - 2 * k1) // 2 + 1):
                    m = n - 2 * k1 - 2 * k2
                    if kind == "sp" and m % 2:
                        continue
                    for d1 in ls.partitions_of(k1):
                        for d2 in ls.partitions_of(k2):
                            for c in ls.valid_partitions(m, kind):
                                tail = ls.Tail(m, c) if m else None
                                one = ls.induce(ls.LeviDescriptor(kind, n, (
                                    ls.GLBlock(k1, P(d1)), ls.GLBlock(k2, P(d2))), tail))
                                inner = ls.induce(ls.LeviDescriptor(
                                    kind, 2 * k2 + m, (ls.GLBlock(k2, P(d2)),), tail))
                                outer = ls.induce(ls.LeviDescriptor(
                                    kind, n, (ls.GLBlock(k1, P(d1)),),
                                    ls.Tail(2 * k2 + m, inner)))
                                assert one.parts == outer.parts


# rigidity --------------------------------------------------------------------

def test_zero_orbit_is_rigid():
    for kind, ns in [("sp", (2, 4, 6)), ("so", (3, 4, 5, 6, 7)), ("gl", (1, 2, 3, 4, 5))]:
        for n in ns:
            assert ls.is_rigid(P((1,) * n, kind))[0] is True


def test_sp4_rigidity_table():
    assert ls.is_rigid(P((2, 1, 1), "sp"))[0] is True
    rigid, witness = ls.is_rigid(P((4,), "sp"))
    assert rigid is False and ls.induce(witness).parts == (4,)
    rigid, witness = ls.is_rigid(P((2, 2), "sp"))
    assert rigid is False and ls.induce(witness).parts == (2, 2)


def test_gl2_regular_witness_for_sp4():
    levi = ls.LeviDescriptor("sp", 4, (ls.GLBlock(2, P((2,))),))
    assert ls.induce(levi).parts == (4,)


def test_induced_orbits_are_never_rigid():
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
                        levi = ls.LeviDescriptor(kind, n, (ls.GLBlock(k, P(d)),), tail)
                        induced = ls.induce(levi)
                        rigid, witness = ls.is_rigid(induced)
                        assert not rigid
                        assert ls.induce(witness) == induced


def test_is_rigid_bound():
    with pytest.raises(ValueError):
        ls.is_rigid(P((1,) * 16, "sp"))


def test_gl_nonzero_orbits_all_induced():
    for n in range(2, 7):
        for parts in ls.partitions_of(n):
            rigid, witness = ls.is_rigid(P(parts))
            assert rigid == (parts == (1,) * n)
            if not rigid:
                assert ls.induce(witness).parts == parts


# misc ------------------------------------------------------------------------

def test_very_even_flag():
    assert ls.is_very_even(P((4, 2, 2), "so"))
    assert not ls.is_very_even(P((3, 3, 2), "so"))
    assert not ls.is_very_even(P((4, 2, 2), "sp"))
    assert not ls.is_very_even(P((), "so"))


@given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
@settings(max_examples=40)
def test_transpose_rank_duality_of_partitions(parts):
    parts = tuple(sorted(parts, reverse=True))
    assert ls.transpose_parts(ls.transpose_parts(parts)) == parts
