"""inverse and kernel_basis, and the reference Gauss-Jordan solve that the
epsilon reference uses, against the Bareiss rank of tests/matrix_reference.py."""
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
