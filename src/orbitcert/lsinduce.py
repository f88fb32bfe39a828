"""Lusztig-Spaltenstein induction as partition combinatorics.

The combinatorial rule (componentwise c + 2d, then collapse) is validated
against two independent oracles: a randomized exact-rational Jordan-type
oracle that realizes the Levi plus a generic nilradical element as
matrices, and the dimension-preservation identity
dim z(induced) = dim z(Levi orbit).  Any disagreement is a build failure,
never a fallback.

Matrix conventions: so_n / sp_n are defined by the antidiagonal symmetric /
symplectic form, so block upper-triangular means parabolic and the Levi
gl_k x X_m sits block-diagonally with a mirrored gl block.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from . import linalg
from .orbits import Partition, dim_z_partition, parity_valid

DEFAULT_ORACLE_AMBIENT = 16
DEFAULT_RIGID_AMBIENT = 14
_ENTRY_RANGE = 9  # random integer entries are drawn from [-9, 9]


def max_oracle_ambient() -> int:
    """Oracle size bound; overridable via ORBITCERT_MAX_AMBIENT."""
    return int(os.environ.get("ORBITCERT_MAX_AMBIENT", DEFAULT_ORACLE_AMBIENT))


@dataclass(frozen=True)
class GLBlock:
    k: int
    d: Partition  # partition of k, gl context


@dataclass(frozen=True)
class Tail:
    m: int
    c: Partition  # parity-valid partition of m in the ambient's so/sp context


@dataclass(frozen=True)
class LeviDescriptor:
    """A Levi subalgebra gl_{k_1} x ... x gl_{k_r} (x X_m) with orbit data."""

    kind: str  # ambient type: gl | so | sp
    ambient: int
    gl_blocks: tuple[GLBlock, ...]
    tail: Tail | None = None

    def __post_init__(self):
        if self.kind not in ("gl", "so", "sp"):
            raise ValueError(f"unknown ambient type {self.kind!r}")
        for blk in self.gl_blocks:
            if blk.d.total != blk.k:
                raise ValueError(f"gl block partition {blk.d.parts} is not of {blk.k}")
        if self.kind == "gl":
            if self.tail is not None:
                raise ValueError("gl ambient admits no classical tail")
            if sum(b.k for b in self.gl_blocks) != self.ambient:
                raise ValueError("gl block sizes must sum to the ambient size")
        else:
            m = self.tail.m if self.tail else 0
            if 2 * sum(b.k for b in self.gl_blocks) + m != self.ambient:
                raise ValueError("sum 2k_i + m must equal the ambient size")
            if self.kind == "sp" and (self.ambient % 2 or m % 2):
                raise ValueError("sp ambient and tail must be even")
            if self.tail is not None:
                c = Partition(self.tail.c.parts, self.kind)
                if c.total != self.tail.m:
                    raise ValueError(f"tail partition {c.parts} is not of {self.tail.m}")
                if not parity_valid(c):
                    raise ValueError(f"tail partition {c.parts} is not {self.kind}-valid")

    def to_json_dict(self) -> dict:
        out: dict = {"type": self.kind, "ambient": self.ambient,
                     "gl_blocks": [{"k": b.k, "d": list(b.d.parts)} for b in self.gl_blocks]}
        if self.tail is not None:
            out["tail"] = {"m": self.tail.m, "c": list(self.tail.c.parts)}
        return out

    @classmethod
    def from_json_dict(cls, data: dict, kind: str | None = None,
                       ambient: int | None = None) -> "LeviDescriptor":
        kind = data.get("type", kind)
        ambient = data.get("ambient", ambient)
        if kind is None or ambient is None:
            raise ValueError("descriptor needs an ambient type and size")
        blocks = tuple(GLBlock(int(b["k"]), Partition(tuple(b["d"]), "gl"))
                       for b in data.get("gl_blocks", ()))
        tail = None
        if "tail" in data and data["tail"] is not None:
            tail = Tail(int(data["tail"]["m"]),
                        Partition(tuple(data["tail"]["c"]), kind if kind != "gl" else "gl"))
        return cls(kind, int(ambient), blocks, tail)


def _componentwise_sum(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return tuple(x + y for x, y in zip(a, b))


def dominates(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """Dominance order: every prefix sum of p is >= that of q (equal totals)."""
    n = max(len(p), len(q))
    sp = sq = 0
    for i in range(n):
        sp += p[i] if i < len(p) else 0
        sq += q[i] if i < len(q) else 0
        if sp < sq:
            return False
    return sp == sq


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
    assert parity_valid(result) and dominates(parts, result.parts)
    return result


def _fold_gl(blocks: tuple[GLBlock, ...]) -> tuple[int, ...]:
    total: tuple[int, ...] = ()
    for blk in blocks:
        total = _componentwise_sum(total, blk.d.parts)
    return total


def induce(levi: LeviDescriptor) -> Partition:
    """The induced nilpotent orbit of the ambient algebra, as a partition.

    gl ambient: componentwise sum of the block partitions.  so/sp ambient:
    fold the gl blocks, then one maximal-Levi step c + 2d followed by
    collapse.  Folding is a componentwise sum, so block order does not matter.
    """
    folded = _fold_gl(levi.gl_blocks)
    if levi.kind == "gl":
        return Partition(folded, "gl")
    c = levi.tail.c.parts if levi.tail else ()
    doubled = tuple(2 * part for part in folded)
    return collapse(_componentwise_sum(c, doubled), levi.kind)


# ---------------------------------------------------------------------------
# exact matrix machinery


def _zero(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _matmul(a, b):
    n = len(a)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _jordan_block_matrix(parts, n: int) -> list[list[int]]:
    mat = _zero(n)
    pos = 0
    for part in parts:
        for i in range(part - 1):
            mat[pos + i][pos + i + 1] = 1
        pos += part
    return mat


def jordan_type(mat) -> tuple[int, ...]:
    """Jordan partition of a nilpotent matrix via ranks of its powers."""
    n = len(mat)
    ranks = [n]
    power = [row[:] for row in mat]
    while ranks[-1] > 0:
        r = linalg.rank(power)
        ranks.append(r)
        if r > 0:
            if len(ranks) > n + 1:
                raise ValueError("matrix is not nilpotent")
            power = _matmul(power, mat)
    drops = tuple(ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1))
    return transpose_parts(drops)


def transpose_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    parts = tuple(p for p in parts if p)
    if not parts:
        return ()
    return tuple(sum(1 for q in parts if q >= i) for i in range(1, max(parts) + 1))


def _eps_sign(i: int, n: int, kind: str) -> int:
    if kind == "sp":
        return 1 if i < n // 2 else -1
    return 1


def _pair_position(i: int, j: int, n: int) -> tuple[int, int]:
    return (n - 1 - j, n - 1 - i)


def _classical_basis(kind: str, n: int) -> list[tuple[tuple[int, int], list[list[int]]]]:
    """Basis of so_n/sp_n for the antidiagonal form, keyed by canonical position.

    A member of the algebra satisfies X[i][j] = -e_i e_j X[n-1-j][n-1-i]
    (e = 1 for so, the split sign for sp); one basis element per canonical
    matrix position, whose coefficient in any algebra element is just the
    entry at that position.
    """
    basis = []
    for i in range(n):
        for j in range(n):
            pi, pj = _pair_position(i, j, n)
            if (pi, pj) < (i, j):
                continue
            s = _eps_sign(i, n, kind) * _eps_sign(j, n, kind)
            mat = _zero(n)
            if (pi, pj) == (i, j):
                if kind == "so" or s == 1:
                    continue  # entry forced to zero
                mat[i][j] = 1
            else:
                mat[i][j] = 1
                mat[pi][pj] = -s
            basis.append(((i, j), mat))
    return basis


def _in_algebra(mat, kind: str) -> bool:
    n = len(mat)
    return all(
        mat[i][j] == -_eps_sign(i, n, kind) * _eps_sign(j, n, kind) * mat[n - 1 - j][n - 1 - i]
        for i in range(n) for j in range(n))


def _sl2_weights(parts) -> list[int]:
    weights = []
    for part in parts:
        weights.extend(range(part - 1, -part, -2))
    weights.sort(reverse=True)
    return weights


def _nilpotent_in_classical(kind: str, m: int, parts: tuple[int, ...],
                            rng: random.Random, max_tries: int = 200) -> list[list[int]]:
    """A form-compatible nilpotent of Jordan type `parts` inside so_m/sp_m.

    Samples integer elements of the degree-2 space of the grading defined by
    the diagonal sl2 characteristic of the target orbit; a generic element
    has exactly the target Jordan type, and no element exceeds it.
    """
    if m == 0:
        return []
    weights = _sl2_weights(parts)
    degree_two = [mat for (i, j), mat in _classical_basis(kind, m)
                  if weights[i] - weights[j] == 2]
    if not degree_two:
        e = _zero(m)
        if jordan_type(e) == tuple(p for p in parts if p):
            return e
        raise ValueError(f"no {kind}_{m} nilpotent of type {parts} found")
    target = tuple(p for p in parts if p)
    for _ in range(max_tries):
        e = _zero(m)
        for mat in degree_two:
            coeff = rng.randint(-_ENTRY_RANGE, _ENTRY_RANGE)
            if coeff:
                for r in range(m):
                    for c in range(m):
                        if mat[r][c]:
                            e[r][c] += coeff * mat[r][c]
        if jordan_type(e) == target:
            assert _in_algebra(e, kind)
            return e
    raise ValueError(f"trial budget exhausted searching {kind}_{m} for type {parts}")


def _block_offsets(levi: LeviDescriptor) -> tuple[list[int], list[int], int]:
    """Block sizes and offsets of the flag (k_1 .. k_r, m, k_r .. k_1)."""
    ks = [b.k for b in levi.gl_blocks]
    m = levi.tail.m if levi.tail else 0
    if levi.kind == "gl":
        sizes = ks
    else:
        sizes = ks + ([m] if m else []) + ks[::-1]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    return sizes, offsets[:-1], m


def _levi_base_matrix(levi: LeviDescriptor, rng: random.Random) -> list[list[int]]:
    """The Levi-orbit representative: Jordan blocks, mirrored, plus the tail."""
    n = levi.ambient
    base = _zero(n)
    offset = 0
    for blk in levi.gl_blocks:
        jb = _jordan_block_matrix(blk.d.parts, blk.k)
        for a in range(blk.k):
            for b in range(blk.k):
                if jb[a][b]:
                    base[offset + a][offset + b] = jb[a][b]
                    if levi.kind != "gl":
                        base[n - 1 - offset - b][n - 1 - offset - a] = -jb[a][b]
        offset += blk.k
    if levi.kind != "gl" and levi.tail and levi.tail.m:
        tail_mat = _nilpotent_in_classical(levi.kind, levi.tail.m,
                                           levi.tail.c.parts, rng)
        for a in range(levi.tail.m):
            for b in range(levi.tail.m):
                base[offset + a][offset + b] = tail_mat[a][b]
    return base


def _nilradical_positions(levi: LeviDescriptor) -> list[tuple[int, int]]:
    """Canonical positions of a basis of the nilradical of the block parabolic."""
    n = levi.ambient
    sizes, offsets, _ = _block_offsets(levi)
    blk_of = []
    for b, (sz, off) in enumerate(zip(sizes, offsets)):
        blk_of.extend([b] * sz)
    positions = []
    for i in range(n):
        for j in range(n):
            if blk_of[i] >= blk_of[j]:
                continue
            if levi.kind == "gl":
                positions.append((i, j))
                continue
            pi, pj = _pair_position(i, j, n)
            if (pi, pj) < (i, j):
                continue
            if (pi, pj) == (i, j) and levi.kind == "so":
                continue
            positions.append((i, j))
    return positions


def _random_nilradical(levi: LeviDescriptor, rng: random.Random) -> list[list[int]]:
    n = levi.ambient
    mat = _zero(n)
    for (i, j) in _nilradical_positions(levi):
        coeff = rng.randint(-_ENTRY_RANGE, _ENTRY_RANGE)
        if not coeff:
            continue
        mat[i][j] += coeff
        if levi.kind != "gl":
            pi, pj = _pair_position(i, j, n)
            if (pi, pj) != (i, j):
                s = _eps_sign(i, n, levi.kind) * _eps_sign(j, n, levi.kind)
                mat[pi][pj] += -s * coeff
    return mat


def jordan_oracle(levi: LeviDescriptor, seed: int = 0, trials: int = 8) -> Partition:
    """Ground-truth induced orbit via exact matrices and ranks of powers.

    Realizes the Levi orbit as a block matrix, adds a random integer element
    of the parabolic's nilradical, and reads off the Jordan partition from
    ranks over the rationals.  Returns the dominance-greatest partition over
    the trials (deterministic for a fixed seed).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if levi.ambient > max_oracle_ambient():
        raise ValueError(f"ambient {levi.ambient} exceeds the oracle bound "
                         f"{max_oracle_ambient()}")
    rng = random.Random(seed)
    base = _levi_base_matrix(levi, rng)
    if levi.kind != "gl":
        assert _in_algebra(base, levi.kind)
    observed = []
    for _ in range(trials):
        nil = _random_nilradical(levi, rng)
        e = [[base[i][j] + nil[i][j] for j in range(levi.ambient)]
             for i in range(levi.ambient)]
        observed.append(jordan_type(e))
    best = observed[0]
    for cand in observed[1:]:
        if dominates(cand, best):
            best = cand
    if not all(dominates(best, other) for other in observed):
        raise RuntimeError("oracle trials produced dominance-incomparable types")
    return Partition(best, levi.kind)


def centralizer_oracle(p: Partition) -> int:
    """dim ker(ad e) on the matrix algebra, for e of Jordan type p.

    Independent oracle for dim_z_partition: realizes e exactly (gl: Jordan
    blocks; so/sp: sampled in the degree-2 space) and computes the kernel of
    ad e on a basis of the algebra by exact linear algebra.
    """
    if not parity_valid(p):
        raise ValueError(f"{p.parts} is not a valid {p.kind} partition")
    n = p.total
    if n > max_oracle_ambient():
        raise ValueError(f"ambient {n} exceeds the oracle bound {max_oracle_ambient()}")
    if p.kind == "gl":
        e = _jordan_block_matrix(p.parts, n)
        basis = [((i, j), None) for i in range(n) for j in range(n)]
        mats = []
        for (i, j), _ in basis:
            mat = _zero(n)
            mat[i][j] = 1
            mats.append(mat)
    else:
        e = _nilpotent_in_classical(p.kind, n, p.parts, random.Random(0))
        keyed = _classical_basis(p.kind, n)
        basis = [(pos, None) for pos, _ in keyed]
        mats = [mat for _, mat in keyed]
    columns = []
    for mat in mats:
        bracket = [[sum(e[i][k] * mat[k][j] - mat[i][k] * e[k][j] for k in range(n))
                    for j in range(n)] for i in range(n)]
        columns.append([bracket[pos[0]][pos[1]] for pos, _ in basis])
    rows = [[columns[b][a] for b in range(len(mats))] for a in range(len(basis))]
    return len(mats) - linalg.rank(rows)


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


def random_descriptor(rng: random.Random, kind: str, max_ambient: int
                      ) -> LeviDescriptor:
    """A seeded random Levi descriptor with random orbits: two gl blocks in
    ambient 2..max_ambient-2, or for so/sp one block and a tail (orbit drawn
    before the block's) in ambient 4..max_ambient."""
    def orbit(n: int) -> tuple[int, ...]:
        return rng.choice(list(partitions_of(n)))

    if kind == "gl":
        n = rng.randint(2, max_ambient - 2)
        k = rng.randint(1, n - 1)
        return LeviDescriptor("gl", n, tuple(GLBlock(sz, Partition(orbit(sz)))
                                             for sz in (k, n - k)))
    n = rng.randint(4, max_ambient)
    while kind == "sp" and n % 2:
        n = rng.randint(4, max_ambient)
    k = rng.randint(1, n // 2)
    m = n - 2 * k
    tail = Tail(m, collapse(orbit(m), kind)) if m else None
    return LeviDescriptor(kind, n, (GLBlock(k, Partition(orbit(k))),), tail)


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


def is_very_even(p: Partition) -> bool:
    """Type-D ambiguity flag: all parts even in an so partition of even total."""
    return (p.kind == "so" and p.total % 2 == 0 and p.parts != ()
            and all(q % 2 == 0 for q in p.parts))


def induced_dim_z(levi: LeviDescriptor) -> int:
    """dim z of the Levi orbit itself (the dimension-preservation invariant)."""
    total = sum(dim_z_partition(b.d) for b in levi.gl_blocks)
    if levi.tail:
        total += dim_z_partition(Partition(levi.tail.c.parts, levi.kind))
    return total


def descriptor_from_json(text: str, kind: str | None = None,
                         ambient: int | None = None) -> LeviDescriptor:
    return LeviDescriptor.from_json_dict(json.loads(text), kind, ambient)
