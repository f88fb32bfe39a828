"""Exact linear algebra on integer matrices (no Fractions, no floating point)."""
from __future__ import annotations

import math


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
        if not any(vec):
            continue
        nonzeros = [(c, x) for c, x in enumerate(vec) if x]
        piv, lead = nonzeros[0]
        g = math.gcd(*vec) if lead > 0 else -math.gcd(*vec)
        if g != 1:
            vec = [x // g for x in vec]
            nonzeros = [(c, x // g) for c, x in nonzeros]
        kept.append((piv, lead // g, nonzeros))
        basis.append(vec)
    return basis


def positive_definite(matrix) -> bool:
    """Whether a symmetric integer matrix is positive definite, by
    Sylvester's criterion: each leading principal minor is positive.  The
    minors are the pivots of Bareiss's fraction-free elimination without
    row exchanges, whose divisions are exact."""
    work = [list(row) for row in matrix]
    n, prev = len(work), 1
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            row, a = work[i], work[i][k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - a * work[k][j]) // prev
        prev = pivot
    return True


def inverse(matrix) -> tuple[list[list[int]], int] | None:
    """(rows, den) with M^-1 = rows / den in lowest terms for a square
    integer matrix M, or None if M is singular.

    The kernel of [M | -I] is {(x, Mx)}.  For nonsingular M its basis
    vectors are (x_j, c_j e_j) with c_j > 0, primitive, so x_j / c_j is
    column j of M^-1 over its least denominator c_j.
    """
    n = len(matrix)
    if len(integer_row_basis(matrix)) != n:
        return None
    kernel = kernel_basis([list(row) + [-int(i == j) for j in range(n)]
                           for i, row in enumerate(matrix)])
    den = math.lcm(*(vec[n + j] for j, vec in enumerate(kernel)))
    columns = [[x * (den // vec[n + j]) for x in vec[:n]] for j, vec in enumerate(kernel)]
    return [list(row) for row in zip(*columns)], den


def kernel_basis(rows) -> list[list[int]]:
    """Basis of the right kernel of a matrix of integer rows: one primitive
    integer vector per non-pivot column of the reduced row echelon form,
    positive there and 0 at the other non-pivot columns, in column order.

    ``integer_row_basis`` sorted by pivot is a row echelon form with the
    pivots of the reduced form; each vector is solved from the last row up,
    scaled at each row by the least factor that keeps it integral, so it
    ends as the least integer multiple of the reduced-form vector.
    """
    if not rows:
        return []
    n = len(rows[0])
    echelon = sorted((next(c for c, x in enumerate(row) if x), row)
                     for row in integer_row_basis(rows))
    pivots = {piv for piv, _ in echelon}
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[free] = 1
        for piv, row in reversed(echelon):
            s = sum(row[c] * vec[c] for c in range(piv + 1, n) if row[c])
            p = row[piv]  # > 0
            g = math.gcd(s, p)
            if g != p:
                vec = [x * (p // g) for x in vec]
            vec[piv] = -s // g
        basis.append(vec)
    return basis
