"""Exact linear algebra over the rationals (no floating point)."""
from __future__ import annotations

import math
from operator import attrgetter

_denominator = attrgetter("denominator")


def row_basis(rows) -> list[list[int]]:
    """An integer basis of the row space of a matrix (rows of ints/Fractions):
    each row cleared of its denominators, then ``integer_row_basis``."""
    cleared = []
    for row in rows:
        den = math.lcm(*map(_denominator, row))
        cleared.append(list(map(int, row)) if den == 1 else [int(x * den) for x in row])
    return integer_row_basis(cleared)


def integer_row_basis(rows) -> list[list[int]]:
    """An integer basis of the row space of a matrix of integer rows.

    Fraction-free elimination: each row is reduced against the rows kept so
    far at their pivot columns, touching only their nonzero entries; a
    nonzero remainder is kept, divided by the gcd of its entries with a
    positive pivot.  Every kept row is zero at the pivots of the rows kept
    before it, so the kept rows are independent.  The input rows are copied,
    never modified.
    """
    kept: list[tuple[int, int, list[tuple[int, int]]]] = []  # (pivot, entry, nonzeros)
    basis = []
    for row in rows:
        vec = list(row)
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


def inverse(matrix):
    """Exact inverse of a square matrix (list of rows), or None if singular.

    The kernel of [M | -I] is {(x, Mx)}; M is nonsingular exactly when its
    basis ends in the unit vectors e_j, and then each x is a column of M^-1.
    """
    n = len(matrix)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    kernel = kernel_basis([list(row) + [-x for x in e] for row, e in zip(matrix, unit)])
    if [vec[n:] for vec in kernel] != unit:
        return None
    return [list(col) for col in zip(*(vec[:n] for vec in kernel))]


def kernel_basis(rows):
    """Basis of the right kernel of a matrix (rows of ints/Fractions).

    ``row_basis`` sorted by pivot is a row echelon form with the pivots of
    the reduced form.  Each non-pivot column gets the vector that is 1 there
    and 0 at the other non-pivot columns, solved from the last row up.
    """
    from fractions import Fraction
    if not rows:
        return []
    n = len(rows[0])
    echelon = sorted((next(c for c, x in enumerate(row) if x), row) for row in row_basis(rows))
    pivots = {piv for piv, _ in echelon}
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for piv, row in reversed(echelon):
            vec[piv] = Fraction(-sum((row[c] * vec[c] for c in range(piv + 1, n) if row[c]),
                                     Fraction(0)), row[piv])
        basis.append(vec)
    return basis
