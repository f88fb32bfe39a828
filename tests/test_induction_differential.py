"""Differential test: the closed-form rigidity criterion, the laid Levi
Jordan blocks, the pairwise parity check, the run-built transpose, the
one-pass collapse, the degree-graded centralizer oracle on the normal form,
the algebra basis and position map built once per (kind, n) and the
one-check-per-pair membership test against the code they replaced
(tests/induction_reference.py)."""
import inspect
from itertools import zip_longest

import pytest

import induction_reference as ref
from orbitcert import lsinduce as ls
from orbitcert import orbits as ob
from orbitcert.orbits import Partition

KINDS = ("gl", "so", "sp")
TWO_LOOP_AMBIENT = 14  # the two-loop search takes seconds beyond this
PRUNED_AMBIENT = 16


def all_partitions(max_total):
    for n in range(max_total + 1):
        yield from ref.partitions_of(n)


def test_partitions_of_matches_reference():
    for n in range(19):
        assert list(ls.partitions_of(n)) == list(ref.partitions_of(n))


def compare_is_rigid(search, max_ambient):
    """Verdict and witness on every valid gl/so/sp partition up to max_ambient."""
    seen = {"rigid": 0, "induced": 0}
    for kind in KINDS:
        for parts in all_partitions(max_ambient):
            p = Partition(parts, kind)
            if not ref.parity_valid(p):
                continue
            rigid, witness = ls.is_rigid(p)
            ref_rigid, ref_witness = search(p, max_ambient)
            assert rigid == ref_rigid, p
            assert (witness is None) == (ref_witness is None), p
            if witness is not None:
                assert witness.to_json_dict() == ref_witness.to_json_dict(), p
            seen["rigid" if rigid else "induced"] += 1
    return seen


def test_is_rigid_matches_two_loop_search():
    assert list(inspect.signature(ls.is_rigid).parameters) == ["p"]
    assert compare_is_rigid(ref.is_rigid, TWO_LOOP_AMBIENT) == {"rigid": 83, "induced": 772}


def test_is_rigid_matches_pruned_search():
    assert compare_is_rigid(ref.pruned_is_rigid, PRUNED_AMBIENT) == {"rigid": 112,
                                                                     "induced": 1375}


def test_is_rigid_bound_is_fixed():
    """is_rigid has no size bound; the pruned reference search keeps one."""
    assert not hasattr(ls, "MAX_RIGID_AMBIENT")
    for kind in KINDS:
        assert ls.is_rigid(Partition((1,) * 16, kind)) == (True, None)
    with pytest.raises(ValueError, match="exceeds the rigidity bound 14"):
        ref.pruned_is_rigid(Partition((1,) * 15))


def test_jordan_blocks_match_unit_superdiagonal():
    """The gl blocks of a Levi without a tail are laid as the contiguous
    basis-driven Jordan blocks they were, so such a descriptor gets the same
    oracle matrices; with the gl basis each superdiagonal entry is a 1, and
    padding past the partition total stays zero."""
    for parts in all_partitions(9):
        total = sum(parts)
        for n in range(max(total, 1), total + 3):
            pad = ls.GLBlock(n - total, Partition((1,) * (n - total)))
            levi = ls.LeviDescriptor("gl", n, (ls.GLBlock(total, Partition(parts)), pad))
            got = ls._levi_base_matrix(levi)
            assert got == ref._jordan_block_matrix(parts, n), (parts, n)
        for kind in ("so", "sp"):
            n = 2 * total
            basis = ls._algebra_basis(kind, n)
            levi = ls.LeviDescriptor(kind, n, (ls.GLBlock(total, Partition(parts)),))
            assert ls._levi_base_matrix(levi) == ref._jordan_blocks(parts, basis, n)


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
    """Every partition of 18 in each kind: the column counts when it is
    parity-valid, ValueError when it is not."""
    for parts in all_partitions(18):
        for kind in KINDS:
            p = Partition(parts, kind)
            if ob.parity_valid(p):
                assert ob.transpose(p) == ref.transpose(p), p
            else:
                with pytest.raises(ValueError, match=f"is not a valid {kind} partition"):
                    ob.transpose(p)


def test_transpose_of_a_huge_part():
    p = Partition((10**6, 3, 1))
    assert ob.transpose(p) == ref.transpose(p)


@pytest.mark.parametrize("kind", ["so", "sp"])
def test_collapse_matches_rescanning_greedy(kind):
    """Every partition up to total 20; odd sp totals are rejected by both."""
    for parts in all_partitions(20):
        if kind == "sp" and sum(parts) % 2:
            for collapse in (ls.collapse, ref.collapse):
                with pytest.raises(ValueError, match="odd total"):
                    collapse(parts, kind)
            continue
        assert ls.collapse(parts, kind) == ref.collapse(parts, kind), parts


def staircase_collapse(n):
    """collapse of 2 * (n, ..., 1) in so: each pair of even parts 2q, 2q - 2
    meets at 2q - 1, and a last lone 2 becomes 1, 1."""
    return tuple(q for q in range(2 * n - 1, 0, -4) for _ in range(2))


def test_collapse_of_many_distinct_parts():
    """The gl_k orbit (n, ..., 1) induced to so_2k: n distinct parts to collapse.
    The closed form is checked against the rescanning greedy for n <= 60 (the
    greedy takes seconds from n = 800 on), the engine at n = 1600."""
    for n in range(1, 61):
        doubled = tuple(2 * q for q in range(n, 0, -1))
        assert ref.collapse(doubled, "so").parts == staircase_collapse(n), n
    n = 1600
    levi = ls.LeviDescriptor.from_json_dict(
        {"gl_blocks": [{"k": n * (n + 1) // 2, "d": list(range(n, 0, -1))}]}, "so", n * (n + 1))
    assert ls.induce(levi).parts == staircase_collapse(n)


@pytest.mark.parametrize("kind", ["so", "sp"])
def test_collapse_moves_no_part_by_more_than_one(kind):
    """|x_i - collapse(x)_i| <= 1 at every index (zero-padded), for every
    partition x up to total 16: the lemma the reference search
    ``pruned_is_rigid`` prunes with."""
    for parts in all_partitions(PRUNED_AMBIENT):
        if kind == "sp" and sum(parts) % 2:
            continue
        collapsed = ls.collapse(parts, kind).parts
        assert all(abs(x - y) <= 1 for x, y in zip_longest(parts, collapsed, fillvalue=0)), parts


def test_graded_centralizer_oracle_matches_dense_one():
    """Every valid gl/so/sp partition up to total 14: the normal form against
    the sampled representative of the dense oracle."""
    for kind in KINDS:
        for parts in all_partitions(14):
            p = Partition(parts, kind)
            if ref.parity_valid(p):
                assert ls.centralizer_oracle(p) == ref.centralizer_oracle(p), p


def test_memoized_basis_and_positions_match_the_per_call_build():
    """gl/so/sp up to the oracle bound: the basis and position map built once
    per (kind, n) equal the per-call list basis and the dict ``_lay`` built
    from it, and every normal form is laid to the same matrix."""
    for kind in KINDS:
        for n in range(ls.MAX_ORACLE_AMBIENT + 1):
            if kind == "sp" and n % 2:
                continue
            expected = ref._algebra_basis(kind, n)
            assert [list(element) for element in ls._algebra_basis(kind, n)] == expected
            at = ls._positions(kind, n)
            assert len(at) == len(expected)
            assert all(list(at[element[0][:2]]) == element for element in expected)
            for p in ls.valid_partitions(n, kind):
                edges = ls._normal_form(kind, p.parts)
                assert ls._lay(edges, kind, n) == ref._lay(edges, expected, n), p


def test_memoized_basis_is_shared_and_immutable():
    for kind in KINDS:
        basis, at = ls._algebra_basis(kind, 6), ls._positions(kind, 6)
        assert ls._algebra_basis(kind, 6) is basis and ls._positions(kind, 6) is at
        with pytest.raises(TypeError):
            basis[0] = ()
        with pytest.raises(TypeError):
            basis[0][0] = (0, 0, 1)
        with pytest.raises(TypeError):
            at[0, 0] = ()



def test_membership_check_matches_the_all_entries_scan():
    """Every laid normal form up to the oracle bound is in its algebra for
    both checks; with one entry perturbed, each so/sp form is rejected by
    both.  The perturbed entry moves over the matrix from form to form and
    skips the sp antidiagonal, where any value is in the algebra."""
    perturbed = 0
    for kind in KINDS:
        for n in range(ls.MAX_ORACLE_AMBIENT + 1):
            for p in ls.valid_partitions(n, kind):
                e = ls._lay(ls._normal_form(kind, p.parts), kind, n)
                assert ls._in_algebra(e, kind) and ref._in_algebra(e, kind), p
                if kind == "gl" or n == 0:
                    continue
                i, j = perturbed % n, perturbed // n % n
                if kind == "sp" and i + j == n - 1:
                    j = (j + 1) % n
                e[i][j] += 1
                assert not ls._in_algebra(e, kind) and not ref._in_algebra(e, kind), (p, i, j)
                perturbed += 1
    assert perturbed == 570
