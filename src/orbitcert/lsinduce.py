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

import random
from collections.abc import Mapping
from functools import lru_cache
from itertools import zip_longest
from types import MappingProxyType

from . import linalg
from .orbits import Partition, _check_valid, _int_parts, dim_z_partition, parity_valid
from .record import Record

MAX_ORACLE_AMBIENT = 16  # jordan_oracle and centralizer_oracle
_ENTRY_RANGE = 9  # random integer entries are drawn from [-9, 9]
_MAX_TRIALS = 1000  # nilradical samples per jordan_oracle call


class TrialBudgetExhausted(ValueError):
    """A randomized oracle used up its draws: the run is undecided, not wrong."""


class GLBlock(Record):
    k: int
    d: Partition  # partition of k, gl context

    def __init__(self, k, d):
        self.__dict__.update(k=k, d=d)


class Tail(Record):
    m: int
    c: Partition  # parity-valid partition of m in the ambient's so/sp context

    def __init__(self, m, c):
        self.__dict__.update(m=m, c=c)


class LeviDescriptor(Record):
    """A Levi subalgebra gl_{k_1} x ... x gl_{k_r} (x X_m) with orbit data."""

    kind: str  # ambient type: gl | so | sp
    ambient: int
    gl_blocks: tuple[GLBlock, ...]
    tail: Tail | None

    def __init__(self, kind, ambient, gl_blocks, tail=None):
        if kind not in ("gl", "so", "sp"):
            raise ValueError(f"unknown ambient type {kind!r}")
        _int_value(ambient, "ambient")
        if tail is not None:
            _int_value(tail.m, "m")
        for blk in gl_blocks:
            _int_value(blk.k, "k")
            if blk.d.total != blk.k:
                raise ValueError(f"gl block partition {blk.d.parts} is not of {blk.k}")
        if kind == "gl":
            if tail is not None:
                raise ValueError("gl ambient admits no classical tail")
            if sum(b.k for b in gl_blocks) != ambient:
                raise ValueError("gl block sizes must sum to the ambient size")
        else:
            m = tail.m if tail else 0
            if 2 * sum(b.k for b in gl_blocks) + m != ambient:
                raise ValueError("sum 2k_i + m must equal the ambient size")
            if kind == "sp" and (ambient % 2 or m % 2):
                raise ValueError("sp ambient and tail must be even")
            if tail is not None:
                c = tail.c
                if c.kind != kind:  # checked and kept in the ambient kind, as JSON reads it
                    c = Partition(c.parts, kind)
                    tail = Tail(tail.m, c)
                if c.total != tail.m:
                    raise ValueError(f"tail partition {c.parts} is not of {tail.m}")
                if not parity_valid(c):
                    raise ValueError(f"tail partition {c.parts} is not {kind}-valid")
        self.__dict__.update(kind=kind, ambient=ambient, gl_blocks=gl_blocks, tail=tail)

    def to_json_dict(self) -> dict:
        out: dict = {"type": self.kind, "ambient": self.ambient,
                     "gl_blocks": [{"k": b.k, "d": list(b.d.parts)} for b in self.gl_blocks]}
        if self.tail is not None:
            out["tail"] = {"m": self.tail.m, "c": list(self.tail.c.parts)}
        return out

    @classmethod
    def from_json_dict(cls, data: dict, kind: str | None = None,
                       ambient: int | None = None) -> "LeviDescriptor":
        """Read a descriptor, raising ValueError on any malformed shape or
        when its "type" or "ambient" disagrees with the given kind or ambient."""
        if not isinstance(data, dict):
            raise ValueError("descriptor must be a JSON object")
        for key, given in (("type", kind), ("ambient", ambient)):
            if given is not None and data.get(key, given) != given:
                raise ValueError(f"descriptor {key} {data[key]!r} disagrees with {given!r}")
        kind = data.get("type", kind)
        ambient = data.get("ambient", ambient)
        if kind is None or ambient is None:
            raise ValueError("descriptor needs an ambient type and size")
        if not isinstance(kind, str):
            raise ValueError(f"ambient type must be a string, not {kind!r}")
        blocks = data.get("gl_blocks", [])
        if not isinstance(blocks, list):
            raise ValueError("gl_blocks must be a list")
        gl_blocks = tuple(GLBlock(_int_value(_json_field(b, "k", "gl block"), "k"),
                                  Partition(_json_parts(_json_field(b, "d", "gl block")), "gl"))
                          for b in blocks)
        tail = None
        if data.get("tail") is not None:
            t = data["tail"]
            tail = Tail(_int_value(_json_field(t, "m", "tail"), "m"),
                        Partition(_json_parts(_json_field(t, "c", "tail")), kind))
        return cls(kind, _int_value(ambient, "ambient"), gl_blocks, tail)


def _json_field(obj, key: str, what: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{what} must be an object with key {key!r}")
    return obj[key]


def _int_value(value, what: str) -> int:
    """``value`` if it is an int, which a bool is not; ValueError otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _json_parts(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"partition must be a list of integers, not {value!r}")
    return tuple(_int_value(x, "partition part") for x in value)


def _column_sum(rows) -> tuple[int, ...]:
    """The entrywise sum of integer tuples, each padded with zeros to the longest."""
    return tuple(map(sum, zip_longest(*rows, fillvalue=0)))


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
    search (tested exhaustively for small totals).  No part moves by more
    than 1 (tested).
    """
    if kind not in ("so", "sp"):
        raise ValueError("collapse applies to so/sp only")
    parts = _int_parts(parts)
    if any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("parts must be weakly decreasing")
    work = [p for p in parts if p]
    bad = 1 if kind == "sp" else 0
    if kind == "sp" and sum(work) % 2:
        raise ValueError(f"no sp-valid partition of odd total {sum(work)}")
    # one pass down the runs of equal parts, whose lengths are the
    # multiplicities: a step changes only parts below its q, so the run at
    # `start` is never below the largest part still to fix
    start = 0
    while start < len(work):
        q, end = work[start], start + 1
        while end < len(work) and work[end] == q:
            end += 1
        if q % 2 != bad or (end - start) % 2 == 0:
            start = end
            continue
        # the last q becomes q - 1 and the first part below q - 1 takes the
        # unit; q > 1, as a lone sp part 1 would make the total odd
        work[end - 1] = q - 1
        j = end
        while j < len(work) and work[j] == q - 1:
            j += 1
        if j < len(work):
            work[j] += 1
        else:
            work.append(1)
        start = end - 1
    result = Partition(tuple(work), kind)
    if not (parity_valid(result) and dominates(parts, result.parts)):
        raise RuntimeError(f"collapse of {parts} gave {result.parts}, which is not a valid "
                           f"{kind} partition dominated by the input")
    return result


def induce(levi: LeviDescriptor) -> Partition:
    """The induced nilpotent orbit of the ambient algebra, as a partition.

    gl ambient: componentwise sum of the block partitions.  so/sp ambient:
    fold the gl blocks, then one maximal-Levi step c + 2d followed by
    collapse.  Folding is a componentwise sum, so block order does not matter.
    """
    folded = _column_sum(blk.d.parts for blk in levi.gl_blocks)
    if levi.kind == "gl":
        return Partition(folded, "gl")
    c = levi.tail.c.parts if levi.tail else ()
    doubled = tuple(2 * part for part in folded)
    return collapse(_column_sum((c, doubled)), levi.kind)


# ---------------------------------------------------------------------------
# exact matrix machinery


def _zero(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _jordan_chain(mat) -> tuple[int, ...]:
    """Jordan partition of a square nilpotent matrix N from the ranks of its powers.

    The ranks r_k = rank N^k come from an image chain: an integer row basis
    of N^k times N spans the row space of N^(k+1), so no power is formed.
    N has r_(k-1) - 2 r_k + r_(k+1) blocks of size k.  The chain ends when
    the basis is empty; a rank that stops falling before that means N is
    not nilpotent.  It also stops at the last Jordan block: d_k =
    r_(k-1) - r_k blocks have size >= k, so when d_k = 1 the remaining
    ranks are r_k - 1, ..., 1, 0.  That stop is exact only for a nilpotent
    N, so it is taken only when N is strictly upper triangular (each
    nonzero row i starts after column i), which certifies it; any other N
    runs the whole chain.  The oracles call it on the square integer
    matrices they build, so neither shape nor entries are checked.
    """
    n = len(mat)
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in mat]
    triangular = all(not row or row[0][0] > i for i, row in enumerate(sparse))
    ranks = [n]
    basis = linalg.integer_row_basis([row for row, nonzeros in zip(mat, sparse) if nonzeros])
    while basis:
        if len(basis) >= ranks[-1]:
            raise ValueError("matrix is not nilpotent")
        ranks.append(len(basis))
        if triangular and ranks[-2] - ranks[-1] == 1:
            ranks += range(ranks[-1] - 1, 0, -1)
            break
        images = []
        for row in basis:
            image = [0] * n
            for x, nonzeros in zip(row, sparse):
                if x:
                    for j, y in nonzeros:
                        image[j] += x * y
            images.append(image)
        basis = linalg.integer_row_basis(images)
    ranks += (0, 0)  # rank N^K = 0 ends the chain, and rank N^(K+1) = 0
    parts: list[int] = []
    for k in range(len(ranks) - 2, 0, -1):
        count = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        if count < 0:
            raise ValueError(f"rank drops of the powers are not weakly decreasing: {ranks}")
        parts += [k] * count
    return tuple(parts)


@lru_cache(maxsize=None)  # the oracles cap n, so at most 3 * (MAX_ORACLE_AMBIENT + 1) entries
def _algebra_basis(kind: str, n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """A basis of gl_n / so_n / sp_n as sparse ((row, col, entry), ...) elements.

    One element per canonical position, in row-major order; the first triple
    is (i, j, 1) at that position, so its coefficient in any member of the
    algebra is the entry there.  gl: the elementary matrices.  so/sp, for the
    antidiagonal form: a member satisfies X[i][j] = -e_i e_j X[n-1-j][n-1-i]
    (e = 1 for so, the split sign for sp), the canonical position of a
    mirrored pair is the one with i + j < n - 1, and the antidiagonal is zero
    in so and free in sp.  Built once per (kind, n) and immutable, so every
    caller shares it.
    """
    if kind == "gl":
        return tuple(((i, j, 1),) for i in range(n) for j in range(n))
    sign = [1 if kind == "so" or i < n // 2 else -1 for i in range(n)]
    basis = []
    for i in range(n):
        for j in range(n - i):
            if i + j < n - 1:
                basis.append(((i, j, 1), (n - 1 - j, n - 1 - i, -sign[i] * sign[j])))
            elif kind == "sp":
                basis.append(((i, j, 1),))
    return tuple(basis)


@lru_cache(maxsize=None)
def _positions(kind: str, n: int) -> Mapping[tuple[int, int], tuple[tuple[int, int, int], ...]]:
    """The read-only map from each canonical position (i, j) to its element
    of ``_algebra_basis(kind, n)``, built once per (kind, n)."""
    return MappingProxyType({element[0][:2]: element for element in _algebra_basis(kind, n)})


def _random_element(basis, n: int, rng: random.Random, start=None) -> list[list[int]]:
    """start (default zero) plus a randint(-9, 9) multiple of each basis
    element, drawn in basis order.  Each coefficient is drawn as CPython's
    ``randint`` draws it, with one ``getrandbits`` call per try: 5 bits,
    again while 19 or more, less 9; so the stream is randint's."""
    mat = [row[:] for row in start] if start else _zero(n)
    getrandbits, width = rng.getrandbits, 2 * _ENTRY_RANGE + 1
    bits = width.bit_length()
    for element in basis:
        coeff = getrandbits(bits)
        while coeff >= width:
            coeff = getrandbits(bits)
        coeff -= _ENTRY_RANGE
        for r, c, x in element:
            mat[r][c] += coeff * x
    return mat


def _in_algebra(mat, kind: str) -> bool:
    """Independent membership check: X[i][j] = -e_i e_j X[n-1-j][n-1-i].

    e_i e_j is 1 when i and j lie on the same side of n // 2 in sp, and
    always in so.  Each mirrored pair is checked once, at its entry with
    i + j <= n - 1; an antidiagonal entry is its own mirror, so it must
    vanish in so and is free in sp.
    """
    if kind == "gl":
        return True
    n = len(mat)
    half = n // 2 if kind == "sp" else n
    for i in range(n):
        row, low = mat[i], i < half
        for j in range(n - i):
            mirror = mat[n - 1 - j][n - 1 - i]
            if row[j] != (-mirror if low == (j < half) else mirror):
                return False
    return True


def _sl2_weights(parts) -> list[int]:
    weights = []
    for part in parts:
        weights.extend(range(part - 1, -part, -2))
    weights.sort(reverse=True)
    return weights


def _normal_form(kind: str, parts) -> list[tuple[int, int, int]]:
    """Edges (i, j, x) at canonical positions that `_lay` turns into a
    nilpotent of Jordan type `parts`: the classical normal form of
    Collingwood-McGovern (1993), 5.1, for the antidiagonal form.

    Positions go level by level down the sl2 weights, the chains taking a
    level's slots in order, so every edge raises the weight by 2.  gl: each
    chain lays all its edges.  so/sp: a chain lays its positive half and the
    basis lays the mirror (position i mirrors to n - 1 - i).  Even chains
    cross from weight 1 to weight -1: in so two equal ones to the mirror of
    each other's slot, in sp each to its own (the antidiagonal).  Odd chains
    go two at a time through one mirror pair u, n - 1 - u of weight-0
    positions, as e_u + e_(n-1-u) and e_u - e_(n-1-u); a last one (so only)
    takes the middle.
    """
    weights = _sl2_weights(parts)
    n = len(weights)
    free = {w: weights.index(w) for w in weights}  # weight -> its next free position
    edges, ones, twos = [], [], []  # lowest positive slot of each even / odd chain
    for part in parts:
        slots = []
        for w in range(part - 1, -part if kind == "gl" else 0, -2):
            slots.append(free[w])
            free[w] += 1
        edges += [(i, j, 1) for i, j in zip(slots, slots[1:])]
        if kind != "gl":
            (twos if part % 2 else ones).append(slots[-1] if slots else None)
    if kind == "sp":
        edges += [(a, n - 1 - a, 1) for a in ones]
    else:
        edges += [(a, n - 1 - b, 1) for a, b in zip(ones[::2], ones[1::2])]
    u = free.get(0, 0)
    for a, b in zip(twos[::2], twos[1::2]):
        if a is not None:
            edges += [(a, u, 1), (a, n - 1 - u, 1)]
        if b is not None:
            edges += [(b, u, 1), (b, n - 1 - u, -1)]
        u += 1
    if len(twos) % 2 and twos[-1] is not None:
        edges.append((twos[-1], u, 1))
    return edges


def _lay(edges, kind: str, n: int) -> list[list[int]]:
    """The n x n sum of x times the basis element at canonical position
    (i, j) over the edges (i, j, x), so so/sp get each mirrored entry too."""
    at = _positions(kind, n)
    mat = _zero(n)
    for i, j, x in edges:
        for r, c, y in at[i, j]:
            mat[r][c] += x * y
    return mat


def _levi_base_matrix(levi: LeviDescriptor) -> list[list[int]]:
    """The Levi-orbit representative, laid on the ambient basis: contiguous
    Jordan blocks from position 0 for the gl blocks' orbits, then the normal
    form of the tail orbit at offset sum k_i.  The tail block is its own
    mirror and the ambient form restricts to the tail's form there."""
    edges, offset = [], 0
    for part in (part for blk in levi.gl_blocks for part in blk.d.parts):
        edges += [(a, a + 1, 1) for a in range(offset, offset + part - 1)]
        offset += part
    if levi.tail:
        edges += [(offset + i, offset + j, x)
                  for i, j, x in _normal_form(levi.kind, levi.tail.c.parts)]
    return _lay(edges, levi.kind, levi.ambient)


def _nilradical(kind: str, sizes) -> list[tuple[tuple[int, int, int], ...]]:
    """The members of ``_algebra_basis(kind, sum(sizes))`` whose canonical
    position (i, j) has its column past the end of row i's diagonal block,
    for the blocks of ``sizes`` in order: the nilradical of that parabolic,
    in the basis order.  Row by row, only the columns from the block end
    on are looked up."""
    n, ends, end = sum(sizes), [], 0  # ends[i]: the first column after row i's block
    for size in sizes:
        end += size
        ends += [end] * size
    at = _positions(kind, n)
    return [element for i, end in enumerate(ends) for j in range(end, n)
            if (element := at.get((i, j)))]


def _check_ambient(n: int) -> None:
    if n > MAX_ORACLE_AMBIENT:
        raise ValueError(f"ambient {n} exceeds the oracle bound {MAX_ORACLE_AMBIENT}")


def jordan_oracle(levi: LeviDescriptor, seed: int = 0, trials: int = 8) -> Partition:
    """Ground-truth induced orbit via exact matrices and ranks of powers.

    Realizes the Levi orbit as a block matrix, adds a random integer element
    of the parabolic's nilradical (the basis elements whose row block comes
    before their column block in the flag k_1 .. k_r, then m, k_r .. k_1 for
    so/sp), and reads off the Jordan partition from ranks over the rationals.

    Las Vegas: returns the Jordan type of the first draw whose centralizer
    dimension is that of the Levi orbit.  O_l + n lies in the closure of
    Ind(O_l), the only orbit of that dimension there (Lusztig-Spaltenstein),
    so that draw is in the induced orbit and the answer is exact.  Draws
    with a smaller orbit are discarded; when all ``trials`` draws are, it
    raises TrialBudgetExhausted (deterministic for a fixed seed).  ``seed``
    and ``trials`` must be ints, not bools: ``random.Random`` would hash a
    float or a string seed, and True would be one trial.
    """
    for name, value in (("seed", seed), ("trials", trials)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, not {value!r}")
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{_MAX_TRIALS}")
    n = levi.ambient
    _check_ambient(n)
    base = _levi_base_matrix(levi)
    if not _in_algebra(base, levi.kind):
        raise RuntimeError(f"Levi base matrix is not in {levi.kind}_{n}")
    sizes = [b.k for b in levi.gl_blocks]
    if levi.kind != "gl":
        sizes += [levi.tail.m if levi.tail else 0] + sizes[::-1]
    nilradical = _nilradical(levi.kind, sizes)
    target = induced_dim_z(levi)
    rng = random.Random(seed)
    for _ in range(trials):
        drawn = Partition(_jordan_chain(_random_element(nilradical, n, rng, base)), levi.kind)
        if dim_z_partition(drawn) == target:
            return drawn
    raise TrialBudgetExhausted(f"trial budget exhausted: none of {trials} draws in "
                               f"{levi.kind}_{n} reached the induced orbit's dimension")


def centralizer_oracle(p: Partition) -> int:
    """dim ker(ad e) on the matrix algebra, for e of Jordan type p.

    Independent oracle for dim_z_partition: lays e down deterministically in
    the normal form (`_normal_form`), checks that it is in the algebra, of
    degree 2 for the sl2 weights (`_sl2_weights`) and of Jordan type p,
    brackets it with each sparse basis element and reads [e, X] at the
    canonical positions, then takes the kernel by exact linear algebra.  As
    e has degree 2, rank(ad e) is the sum of the ranks of g_k -> g_(k+2).
    """
    _check_valid(p)
    n = p.total
    _check_ambient(n)
    basis = _algebra_basis(p.kind, n)
    e = _lay(_normal_form(p.kind, p.parts), p.kind, n)
    if not _in_algebra(e, p.kind):
        raise RuntimeError(f"e of type {p.parts} is not in {p.kind}_{n}")
    weights = _sl2_weights(p.parts)
    e_rows = [[(j, x) for j, x in enumerate(row) if x] for row in e]
    e_cols = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*e)]
    if any(weights[i] - weights[j] != 2 for i, row in enumerate(e_rows) for j, _ in row):
        raise RuntimeError(f"e of type {p.parts} is not homogeneous of degree 2")
    if (got := _jordan_chain(e)) != p.parts:
        raise RuntimeError(f"e of type {p.parts} has Jordan type {got}")
    degree = [weights[element[0][0]] - weights[element[0][1]] for element in basis]
    slot = [[None] * n for _ in range(n)]  # canonical position -> (degree, index in it)
    sizes: dict[int, int] = {}
    for element, k in zip(basis, degree):
        i, j = element[0][:2]
        index = sizes.get(k, 0)
        slot[i][j] = (k, index)
        sizes[k] = index + 1
    blocks: dict[int, list[list[int]]] = {}  # degree k -> the rows of g_k -> g_(k+2)
    for element, k in zip(basis, degree):
        image = [0] * sizes.get(k + 2, 0)
        for r, c, x in element:
            for i, y in e_cols[r]:  # eX
                if (at := slot[i][c]) is not None:
                    if at[0] != k + 2:
                        raise RuntimeError(f"[e, X] for X of degree {k} has a term of "
                                           f"degree {at[0]}")
                    image[at[1]] += y * x
            for j, y in e_rows[c]:  # -Xe
                if (at := slot[r][j]) is not None:
                    if at[0] != k + 2:
                        raise RuntimeError(f"[e, X] for X of degree {k} has a term of "
                                           f"degree {at[0]}")
                    image[at[1]] -= x * y
        blocks.setdefault(k, []).append(image)
    return len(basis) - sum(len(linalg.integer_row_basis(rows)) for rows in blocks.values())


def partitions_of(n: int):
    """All partitions of n in descending lexicographic order."""
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


def is_rigid(p: Partition) -> tuple[bool, LeviDescriptor | None]:
    """(True, None) if p is rigid, else (False, a Levi descriptor inducing it).

    Collingwood-McGovern (1993), 7.3, in 1-based positions with p_(L+1) = 0.
    Induction is transitive (Lusztig-Spaltenstein, 1979), so a witness with
    the least k has one gl block (k, (1^k)).  Gap rule: k is the first position
    with p_k - p_(k+1) >= step, and the first k parts drop by step (gl: 1,
    the second block; so/sp: 2, the tail).  so/sp pair rule, if its k is
    smaller: the first value v of the free parity (odd in so, even in sp)
    occurring exactly twice is at k, k + 1; the first k - 1 parts drop by 2
    and the pair becomes v - 1, v - 1.  No rule, or gl (1^n): p is rigid.
    """
    _check_valid(p)
    n, parts, gl = p.total, p.parts, p.kind == "gl"
    if p.kind == "so" and n <= 2:
        # so_2 is abelian (gl_1 in it is the whole algebra): no proper Levi
        return True, None
    step, free = (1, None) if gl else (2, 1 if p.kind == "so" else 0)
    start = 0
    while start < len(parts):  # one pass down the runs of equal parts
        v, end = parts[start], start + 1
        while end < len(parts) and parts[end] == v:
            end += 1
        if v % 2 == free and end - start == 2:  # pair rule: k = start + 1
            k, lowered, rest = start + 1, start, (v - 1, v - 1) + parts[end:]
            break
        if v - (parts[end] if end < len(parts) else 0) >= step:  # gap rule
            k, lowered, rest = end, end, parts[end:]
            break
        start = end
    if start == len(parts) or 2 * k > n:  # 2k > n: the zero orbit of gl_n
        return True, None
    c = Partition(tuple(x - step for x in parts[:lowered]) + rest, p.kind)
    block = GLBlock(k, Partition((1,) * k, "gl"))
    witness = (LeviDescriptor("gl", n, (block, GLBlock(n - k, c))) if gl else
               LeviDescriptor(p.kind, n, (block,), Tail(n - 2 * k, c) if c.parts else None))
    if induce(witness).parts != parts:
        raise RuntimeError(f"rigidity witness {witness.to_json_dict()} does not induce {parts}")
    return False, witness


def is_very_even(p: Partition) -> bool:
    """Type-D ambiguity flag: all parts even in an so partition of even total."""
    return (p.kind == "so" and p.total % 2 == 0 and p.parts != ()
            and all(q % 2 == 0 for q in p.parts))


def induced_dim_z(levi: LeviDescriptor) -> int:
    """dim z of the Levi orbit itself (the dimension-preservation invariant)."""
    total = sum(dim_z_partition(b.d) for b in levi.gl_blocks)
    if levi.tail:
        total += dim_z_partition(levi.tail.c)
    return total
