"""Differential test: the one-loop rigidity search, the basis-driven Jordan
blocks, the pairwise parity check and the run-built transpose against the
code they replaced (tests/induction_reference.py)."""
import inspect

import pytest

import induction_reference as ref
from orbitcert import lsinduce as ls
from orbitcert import orbits as ob
from orbitcert.orbits import Partition

KINDS = ("gl", "so", "sp")


def all_partitions(max_total):
    for n in range(max_total + 1):
        yield from ref.partitions_of(n)


def test_partitions_of_matches_reference():
    for n in range(19):
        assert list(ls.partitions_of(n)) == list(ref.partitions_of(n))


def test_is_rigid_matches_two_loop_search():
    """Verdict and witness on every valid gl/so/sp partition up to total 12."""
    assert list(inspect.signature(ls.is_rigid).parameters) == ["p"]
    seen = {"rigid": 0, "induced": 0}
    for kind in KINDS:
        for parts in all_partitions(12):
            p = Partition(parts, kind)
            if not ref.parity_valid(p):
                continue
            rigid, witness = ls.is_rigid(p)
            ref_rigid, ref_witness = ref.is_rigid(p)
            assert rigid == ref_rigid, p
            assert (witness is None) == (ref_witness is None), p
            if witness is not None:
                assert witness.to_json_dict() == ref_witness.to_json_dict(), p
            seen["rigid" if rigid else "induced"] += 1
    assert seen["rigid"] and seen["induced"]


def test_is_rigid_bound_is_fixed():
    with pytest.raises(ValueError, match="exceeds the rigidity bound 14"):
        ls.is_rigid(Partition((1,) * (ls.MAX_RIGID_AMBIENT + 1)))
    assert ls.is_rigid(Partition((1,) * ls.MAX_RIGID_AMBIENT))[0] is True


def test_jordan_blocks_match_unit_superdiagonal():
    """With the gl basis, each superdiagonal entry is a 1, as before; padding
    past the partition total stays zero."""
    for parts in all_partitions(9):
        total = sum(parts)
        for n in range(max(total, 1), total + 3):
            got = ls._jordan_blocks(parts, ls._algebra_basis("gl", n), n)
            assert got == ref._jordan_block_matrix(parts, n), (parts, n)


def test_parity_valid_matches_multiplicity_count():
    counts = {True: 0, False: 0}
    for kind in KINDS:
        for parts in all_partitions(18):
            p = Partition(parts, kind)
            expected = ref.parity_valid(p)
            assert ob.parity_valid(p) == expected, p
            counts[expected] += 1
    assert counts[True] and counts[False]


def test_parity_valid_on_many_parts():
    """Odd parts 15999..1, each twice: sp-valid, and not after one more 1."""
    parts = tuple(q for q in range(15999, 0, -2) for _ in range(2))
    assert ob.parity_valid(Partition(parts, "sp"))
    assert not ob.parity_valid(Partition(parts + (1,), "sp"))
    assert ob.parity_valid(Partition(parts + (1,), "so"))


def test_transpose_matches_column_counts():
    for parts in all_partitions(18):
        for kind in KINDS:
            p = Partition(parts, kind)
            assert ob.transpose(p) == ref.transpose(p), p


def test_transpose_of_a_huge_part():
    p = Partition((10**6, 3, 1))
    assert ob.transpose(p) == ref.transpose(p)
