"""Differential test: the integer_row_basis rank, the image-chain Jordan
type and the integer kernel and inverse read off integer_row_basis against
the Bareiss rank, matrix powers and Gauss-Jordan elimination they replaced
(tests/matrix_reference.py)."""
import math
import random
from fractions import Fraction as Fr
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_reference as ref
from orbitcert import linalg
from orbitcert import lsinduce as ls
from orbitcert import rootsys as rs

NONZERO = [1, -1, 2, -2, 3, -5, 9]


@st.composite
def conjugated(draw, nilpotent=True):
    """An upper-triangular matrix (strictly so when nilpotent, else with one
    nonzero diagonal entry), conjugated by a product of unimodular
    elementary matrices I + c E_ij, so its Jordan type is kept and it is dense."""
    n = draw(st.integers(1, 16))
    entry = st.sampled_from([0] * draw(st.integers(0, 20)) + NONZERO)  # sparse to dense
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = draw(entry)
    if not nilpotent:
        i = draw(st.integers(0, n - 1))
        mat[i][i] = draw(st.sampled_from([1, -1, 2, -3]))
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from([1, -1, 2, -2, 3])),
                          max_size=2 * n))
    for i, j, c in steps:
        if i == j:
            continue
        for k in range(n):  # (I + cE_ij) X: row i += c row j
            mat[i][k] += c * mat[j][k]
        for k in range(n):  # X (I - cE_ij): column j -= c column i
            mat[k][j] -= c * mat[k][i]
    return mat


@settings(max_examples=60, deadline=None)
@given(conjugated())
def test_jordan_type_matches_powers_on_dense_nilpotents(mat):
    assert ls._jordan_chain(mat) == ref.jordan_type(mat)
    assert len(linalg.integer_row_basis(mat)) == ref.rank(mat)


@settings(max_examples=40, deadline=None)
@given(conjugated(nilpotent=False))
def test_jordan_type_rejects_non_nilpotent(mat):
    for jordan_type in (ls._jordan_chain, ref.jordan_type):
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_type(mat)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["gl", "so", "sp"]), st.integers(0, 2**32 - 1))
def test_oracle_matrices_match_powers(kind, seed):
    """Every matrix jordan_oracle hands to its rank chain, for seeded random
    descriptors and two oracle seeds, gets the reference type; the oracle
    returns the type of its last draw."""
    rng = random.Random(seed)
    levi = ls.random_descriptor(rng, kind, 12)
    seen = []
    chain = ls._jordan_chain

    def checked(mat):
        got = chain(mat)
        assert got == ref.jordan_type(mat)
        assert len(linalg.integer_row_basis(mat)) == ref.rank(mat)
        seen.append(got)
        return got

    with mock.patch.object(ls, "_jordan_chain", checked):
        for oracle_seed in (rng.randrange(2**31), rng.randrange(2**31)):
            result = ls.jordan_oracle(levi, seed=oracle_seed)
            assert result.parts == seen[-1]
            assert result == ls.induce(levi)
    assert len(seen) >= 2


def reversed_basis(mat):
    """P N P^-1 for the permutation P reversing the basis: lower triangular
    when N is upper triangular, so the rank chain runs to its end."""
    return [row[::-1] for row in mat[::-1]]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["gl", "so", "sp"]), st.integers(0, 2**32 - 1))
def test_stop_rule_matches_the_whole_chain_on_oracle_draws(kind, seed):
    """Seeded Levi representatives plus nilradical draws, as jordan_oracle
    builds them: each is strictly upper triangular, and its type is that of
    its basis reversal and of the matrix powers."""
    rng = random.Random(seed)
    levi = ls.random_descriptor(rng, kind, ls.MAX_ORACLE_AMBIENT)
    seen = []
    chain = ls._jordan_chain

    def checked(mat):
        assert all(not any(row[:i + 1]) for i, row in enumerate(mat))
        got = chain(mat)
        assert got == chain(reversed_basis(mat)) == ref.jordan_type(mat)
        seen.append(got)
        return got

    with mock.patch.object(ls, "_jordan_chain", checked):
        ls.jordan_oracle(levi, seed=rng.randrange(2**31), trials=3)
    assert seen


def test_stop_rule_skips_the_chain_only_when_triangular():
    """The regular nilpotent J_n has d_1 = 1: one row basis when it is
    strictly upper triangular, n when its basis is reversed."""
    n = 9
    regular = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    for mat, calls in ((regular, 1), (reversed_basis(regular), n)):
        with mock.patch.object(linalg, "integer_row_basis",
                               wraps=linalg.integer_row_basis) as spy:
            assert ls._jordan_chain(mat) == (n,)
        assert spy.call_count == calls


@pytest.mark.parametrize("mat", [
    [[0, 1, 0], [0, 0, 0], [0, 0, 1]],  # d_1 = 1, with an eigenvalue 1
    [[1, 0, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, -2]],
    [[2]],
])
def test_upper_triangular_non_nilpotent_takes_the_whole_chain(mat):
    """Upper triangular with a nonzero diagonal entry, so not certified
    nilpotent: a rank drop of 1 does not end the chain, and the rank that
    stops falling is still found, as it is after the basis reversal."""
    for m in (mat, reversed_basis(mat)):
        with pytest.raises(ValueError, match="not nilpotent"):
            ls._jordan_chain(m)


def test_random_element_is_the_randint_stream():
    """One getrandbits call per try draws what randint(-9, 9) draws, and
    leaves the generator in the same state, with and without a start."""
    for kind, n in (("gl", 7), ("so", 10), ("sp", 12)):
        basis = ls._algebra_basis(kind, n)
        start = ls._lay(ls._normal_form(kind, (n,) if kind != "so" else (n - 1, 1)), kind, n)
        for seed in range(6):
            rng, expected_rng = random.Random(seed), random.Random(seed)
            for base in (None, start):
                expected = [row[:] for row in base] if base else [[0] * n for _ in range(n)]
                for element in basis:
                    coeff = expected_rng.randint(-9, 9)
                    for r, c, x in element:
                        expected[r][c] += coeff * x
                assert ls._random_element(basis, n, rng, base) == expected
                assert rng.getstate() == expected_rng.getstate()


VALUE = st.sampled_from([0, 0, 0, 1, -1, 2, 7, -12, 3, -4, 5, 6])


@st.composite
def rectangular(draw):
    """Integer rows with inserted zero rows, zero columns and repeated rows;
    empty matrices included."""
    ncols = draw(st.integers(0, 9))
    rows = draw(st.lists(st.lists(VALUE, min_size=ncols, max_size=ncols), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        col = draw(st.integers(0, ncols))
        rows = [row[:col] + [0] + row[col:] for row in rows]
        ncols += 1
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(rows)))
        copy = rows[draw(st.integers(0, len(rows) - 1))] if rows and draw(st.booleans()) \
            else [0] * ncols
        rows = rows[:pos] + [list(copy)] + rows[pos:]
    return rows


@settings(max_examples=200, deadline=None)
@given(rectangular())
def test_rank_and_row_basis_match_bareiss(rows):
    before = [list(row) for row in rows]
    basis = linalg.integer_row_basis(rows)
    assert rows == before  # the caller's rows are not modified
    assert len(basis) == ref.rank(rows)
    for row in basis:  # primitive integer rows with a positive pivot
        assert len(row) == len(rows[0]) and all(type(x) is int for x in row)
        assert math.gcd(*row) == 1 and next(x for x in row if x) > 0
    # independent and inside the row space
    assert ref.rank(basis) == len(basis)
    assert ref.rank(rows + basis) == len(basis)


def test_rank_edge_cases():
    assert linalg.integer_row_basis([]) == []
    assert linalg.integer_row_basis([[]]) == []
    assert linalg.integer_row_basis([[0, 0], [0, 0]]) == []
    assert linalg.integer_row_basis([[3, 2], [-6, -4]]) == [[3, 2]]
    assert linalg.integer_row_basis([[0, -2, 4], [0, 1, -2]]) == [[0, 1, -2]]
    assert linalg.kernel_basis([]) == []
    assert linalg.kernel_basis([[0, 0]]) == [[1, 0], [0, 1]]
    assert linalg.kernel_basis([[2, 3]]) == [[-3, 2]]
    assert linalg.inverse([]) == ([], 1)
    assert linalg.inverse([[2, 0], [0, -4]]) == ([[2, 0], [0, -1]], 4)
    assert linalg.inverse([[1, 2], [2, 4]]) is None


def assert_kernel_matches(rows):
    """Each kernel_basis vector is a primitive integer vector and a positive
    multiple of the reduced-form vector, in the same order."""
    basis, reduced = linalg.kernel_basis(rows), ref.kernel_basis(rows)
    assert len(basis) == len(reduced)
    for vec, expected in zip(basis, reduced):
        assert all(type(x) is int for x in vec) and math.gcd(*vec) == 1
        c = next(Fr(x, y) for x, y in zip(vec, expected) if y)
        assert c > 0 and [c * y for y in expected] == vec


def assert_inverse_matches(square):
    """inverse is None exactly when Gauss-Jordan finds no inverse, and
    otherwise integer rows over the least common denominator of M^-1."""
    inv, expected = linalg.inverse(square), ref.inverse(square)
    if expected is None:
        assert inv is None
        return
    rows, den = inv
    assert all(type(x) is int for row in rows for x in row)
    assert [[Fr(x, den) for x in row] for row in rows] == expected
    assert den == math.lcm(*(x.denominator for row in expected for x in row))


@settings(max_examples=300, deadline=None)
@given(rectangular())
def test_kernel_basis_matches_gauss_jordan(rows):
    """Integer back-substitution over integer_row_basis gives the
    reduced-form kernel, each vector made primitive and positive at its
    free column."""
    assert_kernel_matches(rows)


@settings(max_examples=300, deadline=None)
@given(rectangular(), st.integers(0, 6))
def test_inverse_matches_gauss_jordan(rows, n):
    """Square truncations and zero-paddings, singular ones included."""
    assert_inverse_matches([(row + [0] * n)[:n] for row in (rows + [[0] * n] * n)[:n]])


@pytest.mark.parametrize("label", ["A1", "A8", "B2", "B8", "C2", "C8", "D4", "D8",
                                   "E6", "E7", "E8", "F4", "G2"])
def test_model_matrices_match_gauss_jordan(label):
    """Every model's integer Gram matrix and its simple-root rows."""
    model = rs.build(label)
    simples = model.simple_roots
    assert linalg.inverse(model.gram) is not None
    assert_inverse_matches(model.gram)
    assert_kernel_matches([list(a.nums) for a in simples])
    assert_kernel_matches([list(row) for row in model.gram[:-1]])
    assert rs.span_complement(model) == tuple(
        rs.Weight(v) for v in ref.kernel_basis([list(a.coords) for a in simples]))
