import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from induction_reference import transpose
from orbitcert import certify as ct
from orbitcert import orbits as ob
from orbitcert import rootsys as rs
from orbitcert.lsinduce import valid_partitions

DIM_G = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}


def test_graded_dims_zero(e8):
    zero = rs.canonicalize(e8, (0,) * 9)
    assert ct.graded_dims(e8, zero) == {0: 248}


def test_graded_dims_sl2():
    a1 = rs.build("A1")
    a = a1.simple_roots[0]
    h = Fraction(2, a.dot(a)) * a
    assert ct.graded_dims(a1, h) == {-2: 1, 0: 1, 2: 1}


def test_graded_dims_e8_example(e8, flagship_h):
    dims = ct.graded_dims(e8, flagship_h)
    assert dims[0] + dims[1] == 46
    assert sum(dims.values()) == 248
    assert all(dims[k] == dims[-k] for k in dims)


def test_graded_dims_rejects_non_integral(e8):
    from fractions import Fraction as Fr
    with pytest.raises(ValueError):
        ct.graded_dims(e8, Fr(1, 2) * e8.simple_roots[0])


@given(st.integers(0, 255))
def test_graded_dims_symmetric_for_levi_characteristics(mask):
    e8 = rs.build("E8")
    pi0 = [i for i in range(8) if mask & (1 << i)]
    dims = ct.graded_dims(e8, ct.h_regular(e8, pi0))
    assert all(dims[k] == dims[-k] for k in dims)
    assert sum(dims.values()) == 248


def test_centralizer_and_orbit_dims(e8, flagship_h):
    """dim z = dim g - dim O = dim g(0) + dim g(1)."""
    zero = rs.canonicalize(e8, (0,) * 9)
    for h, dim_orbit, dim_z in ((flagship_h, 202, 46), (zero, 0, 248)):
        dims = ct.graded_dims(e8, h)
        assert ct.orbit_dim_from_h(e8, h) == dim_orbit == e8.dim - dim_z
        assert dims[0] + dims.get(1, 0) == dim_z


def test_odd_orbit_dimension_raises_under_optimize():
    # h = (1, 0) on A1 pairs to 1 with the root: dim O would be 3 - 2 = 1
    code = ("from orbitcert import rootsys as rs, certify as ct\n"
            "try:\n"
            "    ct.orbit_dim_from_h(rs.build('A1'), rs.Weight((1, 0)))\n"
            "except ValueError as exc:\n"
            "    print('raised:', exc)\n")
    src = str(Path(ob.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True).stdout
    assert out.startswith("raised: orbit dimension 1 is odd")


def test_g2_long_root_centralizer():
    g2 = rs.build("G2")
    h = ct.h_regular(g2, [1])  # the long simple root
    assert g2.dim - ct.orbit_dim_from_h(g2, h) == 8


# partitions ------------------------------------------------------------------

def test_partition_validation():
    with pytest.raises(ValueError):
        ob.Partition((1, 2))
    with pytest.raises(ValueError):
        ob.Partition((2, 1), "weird")
    assert ob.Partition((3, 2, 0, 0)).parts == (3, 2)


@pytest.mark.parametrize("parts", [(3.7, 1.2), (3, 1.0), (Fraction(3), 1), (3, 0.0), ("3", 1),
                                   (True,), (2, False)])
def test_partition_rejects_parts_that_are_not_integers(parts):
    """int() would truncate (3.7, 1.2) to the wrong partition (3, 1); a bool
    is not a part either, though it is a ``numbers.Integral``."""
    with pytest.raises(TypeError, match="partition parts must be integers"):
        ob.Partition(parts, "gl")


def test_parity_validity():
    assert ob.parity_valid(ob.Partition((2, 2), "sp"))
    assert not ob.parity_valid(ob.Partition((3, 1), "sp"))
    assert ob.parity_valid(ob.Partition((3, 3, 1), "so"))
    assert not ob.parity_valid(ob.Partition((4, 2, 1), "so"))
    assert ob.parity_valid(ob.Partition((4, 2, 1), "gl"))


@pytest.mark.parametrize("parts,kind", [((2,), "so"), ((4, 2, 1), "so"), ((3, 1), "sp"),
                                        ((1,), "sp")])
def test_dim_z_partition_rejects_an_invalid_partition(parts, kind):
    with pytest.raises(ValueError, match=rf"^\({parts[0]},.* is not a valid {kind} partition$"):
        ob.dim_z_partition(ob.Partition(parts, kind))


def test_dim_z_partition_examples():
    assert ob.dim_z_partition(ob.Partition((6,))) == 6
    assert ob.dim_z_partition(ob.Partition((2, 2), "sp")) == 4
    assert ob.dim_z_partition(ob.Partition((3, 2, 2, 1), "so")) == 12
    assert ob.dim_z_partition(ob.Partition((4,), "sp")) == 2
    with pytest.raises(ValueError):
        ob.dim_z_partition(ob.Partition((3, 1), "sp"))


def test_dim_z_partition_matches_transpose_squares():
    """sum (2i - 1) p_i is the transpose square sum, on every partition up to 12."""
    for n in range(13):
        for kind in ("gl", "so", "sp"):
            for p in valid_partitions(n, kind):
                sq = sum(m * m for m in transpose(p).parts)
                odd = sum(q % 2 for q in p.parts)
                assert ob.dim_z_partition(p) == {"gl": sq, "so": (sq - odd) // 2,
                                                 "sp": (sq + odd) // 2}[kind]


@given(st.lists(st.integers(1, 7), min_size=1, max_size=6))
def test_dim_z_gl_transpose_consistency(parts):
    p = ob.Partition(tuple(sorted(parts, reverse=True)))
    double = transpose(transpose(p))
    assert ob.dim_z_partition(p) == sum(m * m for m in transpose(double).parts)


# tables ----------------------------------------------------------------------

def test_table_row_counts():
    assert len(ob.RIGID_TABLE) == 34
    assert len(ob.DUALITY_TABLE) == 8


def test_rigid_table_lookups():
    row = ob.rigid_table("E8", "A5+A1")
    assert row.dim_z == 46 and row.q_type == "2A1"
    row = ob.rigid_table("E8", "A1")
    assert row.dim_z == 190 and row.q_type == "E7"
    row = ob.rigid_table("G2", "~A1")
    assert row.dim_z == 6
    assert ob.rigid_table("E8", "nonsense") is None
    for algebra in ("A5", "E9", "e8"):
        with pytest.raises(ValueError, match="the tables cover"):
            ob.rigid_table(algebra, "A1")


def test_duality_table_lookups():
    assert ob.duality_table("E7", "2A1").e_dual_label == "E7(a2)"
    assert ob.duality_table("E8", "D4(a1)+A1").e_dual_label == "E8(a6)"
    assert ob.duality_table("E8", "A1") is None
    assert ob.duality_table("E6", "A1") is None  # a covered algebra without that row
    with pytest.raises(ValueError, match="the tables cover"):
        ob.duality_table("E9", "A1")


def test_rigid_table_orbit_dims_even():
    for rec in ob.RIGID_TABLE:
        assert (DIM_G[rec.algebra] - rec.dim_z) % 2 == 0


def test_duality_rows_reference_rigid_rows():
    for rec in ob.DUALITY_TABLE:
        assert ob.rigid_table(rec.algebra, rec.e_label) is not None
