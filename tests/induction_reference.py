"""Reference induction-layer routines: the two-loop rigidity search, the
gl Jordan-block builder, the per-part parity check and the column-count
transpose.

These are ``lsinduce.is_rigid`` (with the ``partitions_of`` and
``valid_partitions`` it walked), ``lsinduce._jordan_block_matrix``,
``orbits.parity_valid`` and ``orbits.transpose`` as they were written before
one search loop, ``lsinduce._jordan_blocks``, the pairwise parity check and
the run-built transpose replaced them.  The one edit is in ``parity_valid``:
``p.parts.count(q)`` stands for the ``Partition.multiplicity(q)`` it called,
which was that expression and has no other caller.  The differential tests
compare the engine against these; nothing in ``src/`` imports this module.
"""
from orbitcert.lsinduce import GLBlock, LeviDescriptor, Tail, induce
from orbitcert.orbits import Partition

DEFAULT_RIGID_AMBIENT = 14


def parity_valid(p: Partition) -> bool:
    """so: even parts have even multiplicity; sp: odd parts do; gl: anything."""
    if p.kind == "so":
        return all(p.parts.count(q) % 2 == 0 for q in set(p.parts) if q % 2 == 0)
    if p.kind == "sp":
        return all(p.parts.count(q) % 2 == 0 for q in set(p.parts) if q % 2 == 1)
    return True


def transpose(p: Partition) -> Partition:
    """Young-diagram transpose (an involution on the parts)."""
    if not p.parts:
        return p
    cols = [sum(1 for q in p.parts if q >= i) for i in range(1, p.parts[0] + 1)]
    return Partition(tuple(cols), p.kind)


def _zero(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _jordan_block_matrix(parts, n: int) -> list[list[int]]:
    mat = _zero(n)
    pos = 0
    for part in parts:
        for i in range(part - 1):
            mat[pos + i][pos + i + 1] = 1
        pos += part
    return mat


def partitions_of(n: int):
    """All partitions of n in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    def rec(rem, maxpart):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, maxpart), 0, -1):
            for rest in rec(rem - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def valid_partitions(n: int, kind: str):
    for parts in partitions_of(n):
        p = Partition(parts, kind)
        if parity_valid(p):
            yield p


def is_rigid(p: Partition, max_ambient: int = DEFAULT_RIGID_AMBIENT
             ) -> tuple[bool, LeviDescriptor | None]:
    """Exhaustive search for a proper Levi inducing p.

    Returns (True, None) when no proper Levi descriptor induces p, else
    (False, witness).  Enumerating a single gl block suffices: componentwise
    sums of partitions of the block sizes are partitions of the total, so
    finer splits reach nothing more.
    """
    n = p.total
    if n > max_ambient:
        raise ValueError(f"ambient {n} exceeds the rigidity bound {max_ambient}")
    if not parity_valid(p):
        raise ValueError(f"{p.parts} is not a valid {p.kind} partition")
    if p.kind == "gl":
        for k in range(1, n // 2 + 1):
            for d1 in partitions_of(k):
                for d2 in partitions_of(n - k):
                    levi = LeviDescriptor("gl", n, (
                        GLBlock(k, Partition(d1, "gl")),
                        GLBlock(n - k, Partition(d2, "gl"))))
                    if induce(levi).parts == p.parts:
                        return False, levi
        return True, None
    if p.kind == "so" and n <= 2:
        # so_2 is abelian (gl_1 in it is the whole algebra): no proper Levi
        return True, None
    for k in range(1, n // 2 + 1):
        m = n - 2 * k
        if p.kind == "sp" and m % 2:
            continue
        for d in partitions_of(k):
            for c in valid_partitions(m, p.kind):
                tail = Tail(m, c) if m else None
                levi = LeviDescriptor(p.kind, n, (GLBlock(k, Partition(d, "gl")),), tail)
                if induce(levi).parts == p.parts:
                    return False, levi
    return True, None
