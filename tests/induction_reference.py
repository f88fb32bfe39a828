"""Reference induction-layer routines: the two-loop and the pruned rigidity
searches, the gl Jordan-block builder, the per-part parity check, the
column-count transpose, the rescanning collapse, the dense centralizer
oracle, the degree-2 sampler of classical nilpotents, the per-call
algebra basis and position dict, the checks of the ``Partition``
constructor, the enumerate-built ``dim_z_partition`` sums and the
block-index filter of the nilradical.

These are ``lsinduce.is_rigid`` (with the ``partitions_of`` and
``valid_partitions`` it walked), ``lsinduce._jordan_block_matrix``,
``orbits.parity_valid``, ``orbits.transpose``, ``lsinduce.collapse`` and
``lsinduce.centralizer_oracle`` as they were written before one search
loop, ``lsinduce._jordan_blocks``, the pairwise parity check, the run-built
transpose, the one-pass collapse and the degree-graded
centralizer rank replaced them.  The engine has no transpose now, so
``transpose`` here is the tests' own (``matrix_reference.jordan_type``
reads Jordan types with it).  ``pruned_is_rigid`` is the one-loop search
that the closed-form ``is_rigid`` replaced, with its fixed bound of 14 made
the ``max_ambient`` argument.  ``_jordan_blocks`` and
``_nilpotent_in_classical`` (with its ``_MAX_TRIES``) are the basis-driven
gl Jordan blocks and the sampled so/sp representative that the normal form
``lsinduce._normal_form``, laid by ``lsinduce._lay``, replaced; this
module's ``centralizer_oracle`` still builds its ``e`` with them.
``_algebra_basis`` and ``_lay`` are the per-call list basis and the laying
helper that built its position dict on every call, which the basis and
position map built once per (kind, n) (``lsinduce._algebra_basis``,
``lsinduce._positions``) replaced.  ``_in_algebra`` is the membership check
that walked all n^2 entries through a generator, so each mirrored pair twice,
which the one-check-per-pair loop replaced; this module's sampler calls it.
``partition_parts`` is the body of ``Partition.__post_init__`` as it was
before the one-pass checks, returning the parts it kept; ``dim_z_partition``
is the formula before its ``map`` sums; ``nilradical`` is the filter of
``lsinduce._algebra_basis`` by block index that ``jordan_oracle`` ran before
``lsinduce._nilradical`` listed the nilradical by position.
Two edits: in ``parity_valid``,
``p.parts.count(q)`` stands for the ``Partition.multiplicity(q)`` it called,
which was that expression and has no other caller, and
``_nilpotent_in_classical`` calls ``lsinduce._jordan_chain`` where it
called the checked ``jordan_type`` that wrapped it; the moved functions
call this module's ``parity_valid`` and ``_algebra_basis``.  The
differential tests compare the engine against these; nothing in ``src/``
imports this module.
"""
import random
from itertools import zip_longest

from orbitcert import linalg
from orbitcert import lsinduce as ls
from orbitcert.lsinduce import (MAX_ORACLE_AMBIENT, GLBlock, LeviDescriptor, Tail,
                                TrialBudgetExhausted, _componentwise_sum, _random_element,
                                _sl2_weights, dominates, induce)
from orbitcert.orbits import Partition, _int_parts

DEFAULT_RIGID_AMBIENT = 14
_MAX_TRIES = 200  # degree-2 samples per target Jordan type


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


def partition_parts(parts, kind: str = "gl") -> tuple[int, ...]:
    """The parts ``Partition(parts, kind)`` keeps, or the exception it raises."""
    parts = tuple(p for p in _int_parts(parts) if p)
    if any(p < 0 for p in parts):
        raise ValueError("parts must be positive")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    if kind not in ("gl", "so", "sp"):
        raise ValueError(f"unknown type context {kind!r}")
    return parts


def dim_z_partition(p: Partition) -> int:
    """dim of the centralizer of a nilpotent with Jordan type p, for a
    parity-valid p: sum (2i - 1) p_i, less (so) or plus (sp) the number of
    odd parts, halved."""
    sq = sum((2 * i - 1) * q for i, q in enumerate(p.parts, 1))
    odd = sum(1 for q in p.parts if q % 2 == 1)
    if p.kind == "gl":
        return sq
    if p.kind == "so":
        return (sq - odd) // 2
    return (sq + odd) // 2


def nilradical(kind: str, sizes) -> list:
    """The elements of ``lsinduce._algebra_basis(kind, sum(sizes))`` whose row
    block comes before their column block, for the diagonal blocks of sizes."""
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    return [element for element in ls._algebra_basis(kind, sum(sizes))
            if block[element[0][0]] < block[element[0][1]]]


def _zero(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _in_algebra(mat, kind: str) -> bool:
    """Independent membership check: X[i][j] = -e_i e_j X[n-1-j][n-1-i]."""
    if kind == "gl":
        return True
    n = len(mat)
    sign = [1 if kind == "so" or i < n // 2 else -1 for i in range(n)]
    return all(mat[i][j] == -sign[i] * sign[j] * mat[n - 1 - j][n - 1 - i]
               for i in range(n) for j in range(n))


def _algebra_basis(kind: str, n: int) -> list[list[tuple[int, int, int]]]:
    """A basis of gl_n / so_n / sp_n as sparse [(row, col, entry), ...] elements.

    One element per canonical position, in row-major order; the first triple
    is (i, j, 1) at that position, so its coefficient in any member of the
    algebra is the entry there.  gl: the elementary matrices.  so/sp, for the
    antidiagonal form: a member satisfies X[i][j] = -e_i e_j X[n-1-j][n-1-i]
    (e = 1 for so, the split sign for sp), the canonical position of a
    mirrored pair is the one with i + j < n - 1, and the antidiagonal is zero
    in so and free in sp.
    """
    if kind == "gl":
        return [[(i, j, 1)] for i in range(n) for j in range(n)]
    sign = [1 if kind == "so" or i < n // 2 else -1 for i in range(n)]
    basis = []
    for i in range(n):
        for j in range(n - i):
            if i + j < n - 1:
                basis.append([(i, j, 1), (n - 1 - j, n - 1 - i, -sign[i] * sign[j])])
            elif kind == "sp":
                basis.append([(i, j, 1)])
    return basis


def _lay(edges, basis, n: int) -> list[list[int]]:
    """The n x n sum of x times the basis element at canonical position
    (i, j) over the edges (i, j, x), so so/sp get each mirrored entry too."""
    at = {element[0][:2]: element for element in basis}
    mat = _zero(n)
    for i, j, x in edges:
        for r, c, y in at[i, j]:
            mat[r][c] += x * y
    return mat


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


def pruned_is_rigid(p: Partition, max_ambient: int = DEFAULT_RIGID_AMBIENT
                    ) -> tuple[bool, LeviDescriptor | None]:
    """Exhaustive search for a proper Levi inducing p.

    Returns (True, None) when no proper Levi descriptor induces p, else
    (False, witness).  One gl block of size k suffices, next to the rest of
    the ambient (gl: a second block of n - k; so/sp: the tail of n - 2k):
    componentwise sums of partitions of the block sizes are partitions of
    the total, so finer splits reach nothing more.  Given the block orbit d,
    the gl second block can only be p - d, and a so/sp tail c is tried only
    if c + 2d is within 1 of p at every index (collapse moves no part more).
    """
    n = p.total
    if n > max_ambient:
        raise ValueError(f"ambient {n} exceeds the rigidity bound {max_ambient}")
    if not parity_valid(p):
        raise ValueError(f"{p.parts} is not a valid {p.kind} partition")
    if p.kind == "so" and n <= 2:
        # so_2 is abelian (gl_1 in it is the whole algebra): no proper Levi
        return True, None
    gl = p.kind == "gl"
    for k in range(1, n // 2 + 1):
        rest = n - k if gl else n - 2 * k
        rests = [] if gl else list(partitions_of(rest))
        for d in partitions_of(k):
            if gl:
                c = tuple(x - y for x, y in zip_longest(p.parts, d, fillvalue=0))
                cands = [c] if all(x >= y >= 0 for x, y in zip(c, c[1:] + (0,))) else []
            else:
                doubled = tuple(2 * x for x in d)
                cands = [c for c in rests if all(
                    abs(x - y) <= 1 for x, y in zip_longest(
                        _componentwise_sum(c, doubled), p.parts, fillvalue=0))]
            for parts in cands:
                c = Partition(parts, p.kind)
                if not parity_valid(c):
                    continue
                block = GLBlock(k, Partition(d, "gl"))
                levi = (LeviDescriptor("gl", n, (block, GLBlock(rest, c))) if gl
                        else LeviDescriptor(p.kind, n, (block,), Tail(rest, c) if rest else None))
                if induce(levi).parts == p.parts:
                    return False, levi
    return True, None


def collapse(parts, kind: str) -> Partition:
    """Dominance-greatest parity-valid partition dominated by the input.

    Greedy: repeatedly take the largest bad-parity part q with odd
    multiplicity, decrement its last occurrence and push the unit onto the
    first later part that can absorb it.  Matches the brute-force dominance
    search (tested exhaustively for small totals).
    """
    if kind not in ("so", "sp"):
        raise ValueError("collapse applies to so/sp only")
    parts = tuple(int(p) for p in parts)
    if any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("parts must be weakly decreasing")
    work = [p for p in parts if p]
    bad = 1 if kind == "sp" else 0
    if kind == "sp" and sum(work) % 2:
        raise ValueError(f"no sp-valid partition of odd total {sum(work)}")
    while True:
        viol = [q for q in set(work) if q % 2 == bad and work.count(q) % 2 == 1]
        if not viol:
            break
        q = max(viol)
        i = len(work) - 1 - work[::-1].index(q)
        work[i] -= 1
        for j in range(i + 1, len(work)):
            if work[j] < q - 1:
                work[j] += 1
                break
        else:
            work.append(1)
    result = Partition(tuple(work), kind)
    if not (parity_valid(result) and dominates(parts, result.parts)):
        raise RuntimeError(f"collapse of {parts} gave {result.parts}, which is not a valid "
                           f"{kind} partition dominated by the input")
    return result


def _nilpotent_in_classical(kind: str, m: int, parts: tuple[int, ...],
                            rng: random.Random) -> list[list[int]]:
    """A form-compatible nilpotent of Jordan type `parts` inside so_m/sp_m.

    Samples integer elements of the degree-2 space of the grading defined by
    the diagonal sl2 characteristic of the target orbit; a generic element
    has exactly the target Jordan type, and no element exceeds it.  The zero
    orbit has an empty degree-2 space and takes no draws.
    """
    weights = _sl2_weights(parts)
    degree_two = [element for element in _algebra_basis(kind, m)
                  if weights[element[0][0]] - weights[element[0][1]] == 2]
    target = tuple(p for p in parts if p)
    for _ in range(_MAX_TRIES):
        e = _random_element(degree_two, m, rng)
        if ls._jordan_chain(e) == target:
            if not _in_algebra(e, kind):
                raise RuntimeError(f"sampled nilpotent of type {target} is not in {kind}_{m}")
            return e
    raise TrialBudgetExhausted(f"trial budget exhausted searching {kind}_{m} for type {parts}")


def _jordan_blocks(parts, basis, n: int) -> list[list[int]]:
    """Jordan blocks of the given sizes down the diagonal of an n x n matrix:
    each superdiagonal entry is the basis element at its position, so so/sp
    get its mirrored entry too."""
    at = {element[0][:2]: element for element in basis}
    mat = _zero(n)
    offset = 0
    for part in parts:
        for a in range(offset, offset + part - 1):
            for r, c, x in at[a, a + 1]:
                mat[r][c] = x
        offset += part
    return mat


def centralizer_oracle(p: Partition) -> int:
    """dim ker(ad e) on the matrix algebra, for e of Jordan type p.

    Independent oracle for dim_z_partition: realizes e exactly (gl: Jordan
    blocks; so/sp: sampled in the degree-2 space), brackets it with each
    sparse basis element and reads [e, X] at the canonical positions, then
    takes the kernel by exact linear algebra.
    """
    if not parity_valid(p):
        raise ValueError(f"{p.parts} is not a valid {p.kind} partition")
    n = p.total
    if n > MAX_ORACLE_AMBIENT:
        raise ValueError(f"ambient {n} exceeds the oracle bound {MAX_ORACLE_AMBIENT}")
    basis = _algebra_basis(p.kind, n)
    if p.kind == "gl":
        e = _jordan_blocks(p.parts, basis, n)
    else:
        e = _nilpotent_in_classical(p.kind, n, p.parts, random.Random(0))
    positions = [element[0][:2] for element in basis]
    columns = []
    for element in basis:
        bracket = _zero(n)  # eX - Xe
        for r, c, x in element:
            for i in range(n):
                bracket[i][c] += e[i][r] * x
                bracket[r][i] -= x * e[c][i]
        columns.append([bracket[i][j] for i, j in positions])
    return len(basis) - len(linalg.integer_row_basis(columns))
