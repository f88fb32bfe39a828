"""The partition half of the engine against the root-system half, on the
classical types (Collingwood-McGovern, section 5.3).

For every Levi subset Pi_0 of A_r, B_r, C_r and D_r up to rank 7, the
regular nilpotent of the Levi has the characteristic h = ``h_regular``.
Its epsilon coordinates are the eigenvalues of h on the natural
representation: for B, C and D with their negatives too, and for B also a
0.  A Jordan block of size d contributes the eigenvalues d - 1, d - 3, ...,
1 - d, so the eigenvalues give the orbit's partition.  ``dim_z_partition``
of that partition must equal dim z read off the roots,
``model.dim - orbit_dim_from_h`` (plus 1 for gl, whose centre sl lacks).

Induction is checked the same way.  For a Levi descriptor, h is the
characteristic of ``induce(levi)`` and h_L the block characteristic: each
block's orbit written on its own coordinates.  The roots alpha with
alpha(h) in {0, 1}, plus the rank, count dim z of the induced orbit; over
the roots of the standard Levi (both signs) at h_L they count dim z of the
Levi orbit.  Lusztig-Spaltenstein induction preserves codimension (1979),
so the two counts agree, and both equal ``induced_dim_z(levi)``.
"""
import itertools
import random
from collections import Counter

import pytest

from epsilon_reference import levi_positive
from orbitcert import certify as ct
from orbitcert import rootsys as rs
from orbitcert.lsinduce import (GLBlock, LeviDescriptor, Tail, collapse, induce, induced_dim_z,
                                random_descriptor, valid_partitions)
from orbitcert.orbits import Partition, dim_z_partition

# series -> (partition kind, ranks, natural eigenvalues from h's coordinates)
SERIES = {
    "A": ("gl", range(1, 8), lambda xs: xs),
    "B": ("so", range(2, 8), lambda xs: [*xs, 0, *(-x for x in xs)]),
    "C": ("sp", range(2, 8), lambda xs: [*xs, *(-x for x in xs)]),
    "D": ("so", range(4, 8), lambda xs: [*xs, *(-x for x in xs)]),
}
CASES = [(series, rank) for series, (_, ranks, _) in SERIES.items() for rank in ranks]


def jordan_partition(eigenvalues) -> tuple[int, ...]:
    """The parts d whose strings d - 1, d - 3, ..., 1 - d make up the
    eigenvalues, the largest string first."""
    left = Counter(eigenvalues)
    parts = []
    while +left:
        top = max(left.elements())
        for value in range(top, -top - 1, -2):
            if not left[value]:
                raise ValueError(f"{sorted(eigenvalues)} are not sl2 strings")
            left[value] -= 1
        parts.append(top + 1)
    return tuple(parts)


def test_jordan_partition():
    assert jordan_partition([5, 3, 1, -1, -3, -5, 1, -1, 0]) == (6, 2, 1)
    assert jordan_partition([0, 0]) == (1, 1)
    with pytest.raises(ValueError, match="not sl2 strings"):
        jordan_partition([2, 0])


@pytest.mark.parametrize("series, rank", CASES, ids=[f"{s}{r}" for s, r in CASES])
def test_levi_regular_dim_z_from_roots_and_partition(series, rank):
    kind, _, natural = SERIES[series]
    model = rs.build(f"{series}{rank}")
    reached = set()
    for size in range(rank + 1):
        for pi0 in itertools.combinations(range(rank), size):
            h = ct.h_regular(model, pi0)
            assert h.den == 1, pi0
            p = Partition(jordan_partition(natural(list(h.nums))), kind)
            dim_z = model.dim - ct.orbit_dim_from_h(model, h)
            assert dim_z_partition(p) == dim_z + (kind == "gl"), (pi0, p.parts)
            reached.add(p)
    if kind == "gl":  # every gl orbit is regular in a Levi: the one of its transpose
        assert reached == set(valid_partitions(rank + 1, "gl"))


def eigenvalues(parts) -> list[int]:
    """The eigenvalues of the characteristic of a nilpotent of Jordan type
    ``parts`` on the natural representation, largest first."""
    return sorted((d - 1 - 2 * j for d in parts for j in range(d)), reverse=True)


def ambient_label(kind: str, n: int) -> str | None:
    """The model of gl_n, so_n or sp_n; None for so_4 and so_6 (D2, D3),
    which the models do not build."""
    if kind == "gl":
        return f"A{n - 1}"
    if kind == "so" and n in (4, 6):
        return None
    return f"{'C' if kind == 'sp' else 'DB'[n % 2]}{n // 2}"



def levi_simple_indices(model, levi) -> list[int]:
    """The simple roots of the standard Levi: each gl block takes the next
    coordinates and the tail the rest, and a simple root is the Levi's when
    it lies on one block's coordinates, with coordinate sum 0 on a gl block
    (so B's e_i, C's 2 e_i and D's e_i + e_j stay out of gl_k, and D's so_2
    tail is a torus)."""
    starts = [0, *itertools.accumulate(b.k for b in levi.gl_blocks)]
    spans = [(set(range(a, b)), True) for a, b in zip(starts, starts[1:])]
    spans.append((set(range(starts[-1], model.ambient_dim)), False))  # the tail; empty in gl
    return [i for i, alpha in enumerate(model.simple_roots)
            if any({j for j, x in enumerate(alpha.nums) if x} <= span
                   and not (is_gl and sum(alpha.nums)) for span, is_gl in spans)]


def zero_one_count(positive_roots, h) -> int:
    """#{alpha among the roots and their negatives : alpha(h) in {0, 1}}."""
    values = [beta.dot(h) for beta in positive_roots]
    return sum((v in (0, 1)) + (v in (0, -1)) for v in values)


def random_parts(rng: random.Random, n: int) -> tuple[int, ...]:
    """A seeded partition of n, drawn without listing the partitions of n."""
    parts = []
    while n:
        parts.append(rng.randint(1, n))
        n -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def large_descriptors():
    """Two seeded descriptors at each type of rank 32 (rootsys.MAX_RANK):
    gl_33, so_65, sp_64 and so_64."""
    rng = random.Random(32)
    for kind, n in 2 * (("gl", 33), ("so", 65), ("sp", 64), ("so", 64)):
        k = rng.randint(1, n // 2)
        if kind == "gl":
            yield LeviDescriptor("gl", n, tuple(GLBlock(sz, Partition(random_parts(rng, sz)))
                                                for sz in (k, n - k)))
        else:
            m = n - 2 * k
            tail = Tail(m, collapse(random_parts(rng, m), kind)) if m else None
            yield LeviDescriptor(kind, n, (GLBlock(k, Partition(random_parts(rng, k))),), tail)


def descriptors():
    """Seeded ``random_descriptor`` draws up to ambient 16, and the large ones."""
    rng = random.Random(15)
    for kind in ("gl", "so", "sp"):
        for _ in range(150):
            yield random_descriptor(rng, kind, 16)
    yield from large_descriptors()


def test_induction_preserves_dim_z_on_the_roots():
    checked = Counter()
    for levi in descriptors():
        label = ambient_label(levi.kind, levi.ambient)
        if label is None:
            continue
        model = rs.build(label)
        h = rs.Weight(eigenvalues(induce(levi).parts)[:model.ambient_dim])
        h_levi = [x for block in levi.gl_blocks for x in eigenvalues(block.d.parts)]
        if levi.tail:
            h_levi += eigenvalues(levi.tail.c.parts)[:model.ambient_dim - len(h_levi)]
        centre = levi.kind == "gl"  # gl's centre, which the model of sl_n lacks
        on_g = zero_one_count(model.positive_roots, h) + model.rank + centre
        on_levi = (zero_one_count(levi_positive(model, levi_simple_indices(model, levi)),
                                  rs.Weight(h_levi)) + model.rank + centre)
        assert on_g == on_levi == induced_dim_z(levi), levi.to_json_dict()
        checked[label[0]] += 1
    assert set(checked) == set("ABCD") and sum(checked.values()) > 400, checked
