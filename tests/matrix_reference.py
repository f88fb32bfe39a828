"""Reference matrix routines: Bareiss rank and Jordan types from matrix powers.

These are the rank and Jordan-type routines as they were written before
``linalg.row_basis`` and the image chain in ``lsinduce.jordan_type``
replaced them.  The differential test compares the engine against them;
nothing in ``src/`` imports this module.
"""
import math

from orbitcert.orbits import Partition, transpose


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


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def jordan_type(mat) -> tuple[int, ...]:
    """Jordan partition of a nilpotent matrix via ranks of its powers."""
    n = len(mat)
    ranks = [n]
    power = [row[:] for row in mat]
    while ranks[-1] > 0:
        r = rank(power)
        ranks.append(r)
        if r > 0:
            if len(ranks) > n + 1:
                raise ValueError("matrix is not nilpotent")
            power = matmul(power, mat)
    drops = tuple(ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1))
    return transpose(Partition(drops)).parts
