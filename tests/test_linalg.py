"""The Gauss-Jordan routines (solve, kernel_basis) against Bareiss rank."""
from fractions import Fraction as Fr

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcert import linalg

SMALL = st.sampled_from([Fr(0), Fr(0), Fr(1), Fr(-1), Fr(2), Fr(1, 2), Fr(-3, 2)])


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
    assert len(basis) == len(matrix[0]) - linalg.rank(matrix)
    assert all(apply(matrix, vec) == [0] * len(matrix) for vec in basis)
    assert not basis or linalg.rank(basis) == len(basis)


@settings(max_examples=150)
@given(matrices(), st.booleans(), st.data())
def test_solve_exactly_when_consistent(matrix, in_image, data):
    if in_image:
        rhs = apply(matrix, data.draw(st.lists(SMALL, min_size=len(matrix[0]),
                                               max_size=len(matrix[0]))))
    else:
        rhs = data.draw(st.lists(SMALL, min_size=len(matrix), max_size=len(matrix)))
    augmented = [row + [b] for row, b in zip(matrix, rhs)]
    sol = linalg.solve(matrix, rhs)
    if linalg.rank(augmented) == linalg.rank(matrix):
        assert sol is not None and apply(matrix, sol) == rhs
    else:
        assert sol is None
