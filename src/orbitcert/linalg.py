"""Exact linear algebra over the rationals (no floating point)."""
from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter

_denominator = attrgetter("denominator")


def row_basis(rows) -> list[list[int]]:
    """An integer basis of the row space of a matrix (rows of ints/Fractions).

    Fraction-free elimination: each row, cleared of its denominators, is
    reduced against the rows kept so far at their pivot columns, touching
    only their nonzero entries; a nonzero remainder is kept, divided by the
    gcd of its entries with a positive pivot.  Every kept row is zero at the
    pivots of the rows kept before it, so the kept rows are independent.
    """
    kept: list[tuple[int, int, list[tuple[int, int]]]] = []  # (pivot, entry, nonzeros)
    basis = []
    for row in rows:
        den = math.lcm(*map(_denominator, row))
        vec = list(map(int, row)) if den == 1 else [int(x * den) for x in row]
        for piv, p, nonzeros in kept:
            a = vec[piv]
            if a:
                g = math.gcd(a, p)
                a, q = a // g, p // g
                if q != 1:
                    vec = [q * x for x in vec]
                for c, y in nonzeros:
                    vec[c] -= a * y
        nonzeros = [(c, x) for c, x in enumerate(vec) if x]
        if not nonzeros:
            continue
        piv, lead = nonzeros[0]
        g = math.gcd(*vec) if lead > 0 else -math.gcd(*vec)
        if g != 1:
            vec = [x // g for x in vec]
            nonzeros = [(c, x // g) for c, x in nonzeros]
        kept.append((piv, lead // g, nonzeros))
        basis.append(vec)
    return basis


def rank(rows) -> int:
    """Rank of a matrix given as a list of rows of ints/Fractions."""
    return len(row_basis(rows))


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


def inverse(matrix):
    """Exact inverse of a square matrix (list of rows), or None if singular."""
    n = len(matrix)
    aug, pivots = _rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(matrix)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in aug]


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
