"""Exact linear algebra over the rationals (no floating point)."""
from __future__ import annotations

import math
from fractions import Fraction


def rank(rows) -> int:
    """Rank of a matrix given as a list of rows of ints/Fractions (Bareiss)."""
    if not rows:
        return 0
    work = []
    for row in rows:
        denom = math.lcm(*(x.denominator for x in row))
        work.append([int(x * denom) for x in row])
    m, n = len(work), len(work[0])
    r = 0
    prev = 1
    for c in range(n):
        piv = next((i for i in range(r, m) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, m):
            if any(work[i][j] != 0 for j in range(c, n)):
                for j in range(c + 1, n):
                    work[i][j] = (work[i][j] * work[r][c] - work[i][c] * work[r][j]) // prev
                work[i][c] = 0
        prev = work[r][c]
        r += 1
        if r == m:
            break
    return r


def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan reduced row echelon form: (reduced rows, pivot columns)."""
    aug = [[Fraction(x) for x in row] for row in rows]
    m = len(aug)
    n = len(aug[0]) if m else 0
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    return aug, pivots


def solve(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly; return x or None if inconsistent.

    ``matrix`` is a list of rows.  Underdetermined systems get the solution
    with free variables set to zero.
    """
    n = len(matrix[0]) if matrix else 0
    aug, pivots = _rref([list(row) + [rhs[i]] for i, row in enumerate(matrix)])
    if n in pivots:
        return None
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = aug[i][n]
    return sol


def kernel_basis(rows):
    """Basis of the right kernel of a matrix (rows of ints/Fractions)."""
    if not rows:
        return []
    n = len(rows[0])
    aug, pivots = _rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -aug[i][fc]
        basis.append(vec)
    return basis
