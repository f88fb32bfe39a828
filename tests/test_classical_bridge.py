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
"""
import itertools
from collections import Counter

import pytest

from orbitcert import certify as ct
from orbitcert import rootsys as rs
from orbitcert.lsinduce import valid_partitions
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
