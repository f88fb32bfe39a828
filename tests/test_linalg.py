"""inverse and kernel_basis, and the reference Gauss-Jordan solve that the
epsilon reference uses, against the Bareiss rank of tests/matrix_reference.py;
positive_definite against leading minors by the Leibniz formula."""
import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_reference as ref
from orbitcert import linalg

SMALL = st.sampled_from([0, 0, 1, -1, 2, 3, -3])


@st.composite
def matrices(draw):
    """Small combinations of at most four base rows, so rank deficiency is common."""
    n = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=1, max_size=4))
    combos = draw(st.lists(st.lists(SMALL, min_size=len(base), max_size=len(base)),
                           min_size=1, max_size=5))
    return [apply(list(zip(*base)), c) for c in combos]


def apply(matrix, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix]


@settings(max_examples=150)
@given(matrices())
def test_kernel_basis_matches_rank(matrix):
    basis = linalg.kernel_basis(matrix)
    assert len(basis) == len(matrix[0]) - ref.rank(matrix)
    assert all(apply(matrix, vec) == [0] * len(matrix) for vec in basis)
    assert not basis or ref.rank(basis) == len(basis)


@settings(max_examples=150)
@given(matrices(), st.booleans(), st.data())
def test_solve_exactly_when_consistent(matrix, in_image, data):
    if in_image:
        rhs = apply(matrix, data.draw(st.lists(SMALL, min_size=len(matrix[0]),
                                               max_size=len(matrix[0]))))
    else:
        rhs = data.draw(st.lists(SMALL, min_size=len(matrix), max_size=len(matrix)))
    augmented = [row + [b] for row, b in zip(matrix, rhs)]
    sol = ref.solve(matrix, rhs)
    if len(linalg.integer_row_basis(augmented)) == len(linalg.integer_row_basis(matrix)):
        assert sol is not None and apply(matrix, sol) == rhs
    else:
        assert sol is None


@settings(max_examples=150)
@given(matrices())
def test_inverse_exactly_when_full_rank(matrix):
    n = len(matrix)
    square = [(row + [0] * n)[:n] for row in matrix]
    inv = linalg.inverse(square)
    if ref.rank(square) == n:
        rows, den = inv
        # column j of square @ rows is den times the unit vector e_j
        assert [apply(square, col) for col in zip(*rows)] == [
            [den * int(i == j) for i in range(n)] for j in range(n)]
    else:
        assert inv is None


def leibniz_det(matrix) -> int:
    """The determinant as the signed sum over permutations."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total


@st.composite
def symmetric(draw):
    """B^T B + c I for a small integer B and shift c: positive definite,
    semidefinite, singular and indefinite forms all occur."""
    n = draw(st.integers(1, 5))
    b = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=1, max_size=6))
    c = draw(st.integers(-3, 3))
    return [[sum(row[i] * row[j] for row in b) + c * (i == j) for j in range(n)]
            for i in range(n)]


@settings(max_examples=300)
@given(symmetric())
def test_positive_definite_is_sylvester(matrix):
    """True exactly when every leading principal minor is positive."""
    minors = [leibniz_det([row[:k] for row in matrix[:k]]) for k in range(1, len(matrix) + 1)]
    assert linalg.positive_definite(matrix) == all(d > 0 for d in minors)


def test_positive_definite_examples():
    """A negative trailing minor is seen, and a zero leading one; the input
    is not modified."""
    assert linalg.positive_definite([])
    assert linalg.positive_definite([[2, 1], [1, 1]])
    assert not linalg.positive_definite([[2, 0], [0, -1]])
    assert not linalg.positive_definite([[0, 1], [1, 5]])
    assert not linalg.positive_definite([[-1]])
    mat = [[2, 1, 0], [1, 1, 1], [0, 1, 1]]  # minors 2, 1, -1
    assert not linalg.positive_definite(mat)
    assert mat == [[2, 1, 0], [1, 1, 1], [0, 1, 1]]
    assert linalg.positive_definite([[3, 1, 0], [1, 1, 1], [0, 1, 2]])  # minors 3, 2, 1
