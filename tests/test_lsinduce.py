import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from induction_reference import _jordan_block_matrix
from orbitcert import lsinduce as ls
from orbitcert import orbits as ob
from orbitcert.orbits import Partition, dim_z_partition


def P(parts, kind="gl"):
    return Partition(tuple(parts), kind)


def brute_collapse(parts, kind):
    n = sum(parts)
    cands = [p for p in ls.valid_partitions(n, kind)
             if ls.dominates(tuple(parts), p.parts)]
    best = [p for p in cands if all(ls.dominates(p.parts, q.parts) for q in cands)]
    assert len(best) == 1
    return best[0].parts


# collapse --------------------------------------------------------------------

def test_collapse_examples():
    assert ls.collapse((3, 1), "sp").parts == (2, 2)
    assert ls.collapse((2, 2), "sp").parts == (2, 2)
    assert ls.collapse((4, 2, 1), "so").parts == (3, 3, 1)
    assert ls.collapse((2,), "so").parts == (1, 1)
    assert ls.collapse((), "sp").parts == ()


def test_collapse_idempotent_on_valid():
    for parts, kind in [((2, 2), "sp"), ((3, 3, 1), "so"), ((6, 4, 4), "sp")]:
        assert ls.collapse(parts, kind).parts == parts


def test_collapse_rejects_bad_input():
    with pytest.raises(ValueError):
        ls.collapse((3,), "sp")  # odd total has no sp partition
    with pytest.raises(ValueError):
        ls.collapse((1, 2), "so")
    with pytest.raises(ValueError):
        ls.collapse((2, 2), "gl")


def test_collapse_rejects_parts_that_are_not_integers():
    """int() would truncate (3.9, 2.5, 1) to (3, 2, 1) and collapse it to
    the wrong answer (2, 2, 2); a bool is not a part either."""
    for parts in ((3.9, 2.5, 1), (True, 1)):
        with pytest.raises(TypeError, match="partition parts must be integers"):
            ls.collapse(parts, "sp")


@pytest.mark.parametrize("kind", ["so", "sp"])
def test_collapse_matches_brute_force(kind):
    for n in range(0, 13):
        if kind == "sp" and n % 2:
            continue
        for parts in ls.partitions_of(n):
            assert ls.collapse(parts, kind).parts == brute_collapse(parts, kind)


# induce ----------------------------------------------------------------------

def test_induce_gl_componentwise():
    levi = ls.LeviDescriptor("gl", 5, (ls.GLBlock(2, P((2,))), ls.GLBlock(3, P((2, 1)))))
    assert ls.induce(levi).parts == (4, 1)


def test_induce_sp4_siegel():
    levi = ls.LeviDescriptor("sp", 4, (ls.GLBlock(2, P((1, 1))),))
    assert ls.induce(levi).parts == (2, 2)


def test_induce_sp4_with_tail():
    levi = ls.LeviDescriptor("sp", 4, (ls.GLBlock(1, P((1,))),),
                             ls.Tail(2, P((1, 1), "sp")))
    assert ls.induce(levi).parts == (2, 2)


def test_induce_from_full_levi_is_identity():
    levi = ls.LeviDescriptor("sp", 6, (), ls.Tail(6, P((2, 2, 1, 1), "sp")))
    assert ls.induce(levi).parts == (2, 2, 1, 1)


def test_induce_borel_gives_regular():
    levi = ls.LeviDescriptor("sp", 4, (ls.GLBlock(1, P((1,))), ls.GLBlock(1, P((1,)))))
    assert ls.induce(levi).parts == (4,)
    levi = ls.LeviDescriptor("so", 8, (ls.GLBlock(4, P((1, 1, 1, 1))),))
    # Richardson orbit of gl_4 in so_8: collapse of (2,2,2,2)
    assert ls.induce(levi).parts == (2, 2, 2, 2)
    levi = ls.LeviDescriptor("so", 6, (ls.GLBlock(3, P((1, 1, 1))),))
    assert ls.induce(levi).parts == (2, 2, 1, 1)


@given(st.permutations(list(range(3))))
def test_induce_block_order_independent(perm):
    blocks = (ls.GLBlock(2, P((2,))), ls.GLBlock(1, P((1,))), ls.GLBlock(3, P((2, 1))))
    base = ls.induce(ls.LeviDescriptor("sp", 12, blocks))
    permuted = tuple(blocks[i] for i in perm)
    assert ls.induce(ls.LeviDescriptor("sp", 12, permuted)) == base


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ls.LeviDescriptor("gl", 5, (ls.GLBlock(2, P((2,))),))
    with pytest.raises(ValueError):
        ls.LeviDescriptor("sp", 4, (ls.GLBlock(1, P((2,))),))
    with pytest.raises(ValueError):
        ls.LeviDescriptor("sp", 5, (ls.GLBlock(1, P((1,))),), ls.Tail(3, P((3,), "sp")))
    with pytest.raises(ValueError):
        ls.LeviDescriptor("sp", 6, (ls.GLBlock(1, P((1,))),), ls.Tail(4, P((3, 1), "sp")))


def test_descriptor_json_round_trip():
    levi = ls.LeviDescriptor("sp", 8, (ls.GLBlock(2, P((2,))),),
                             ls.Tail(4, P((1, 1, 1, 1), "sp")))
    data = levi.to_json_dict()
    assert data == {"type": "sp", "ambient": 8,
                    "gl_blocks": [{"k": 2, "d": [2]}],
                    "tail": {"m": 4, "c": [1, 1, 1, 1]}}
    assert ls.LeviDescriptor.from_json_dict(data) == levi


@pytest.mark.parametrize("build, message", [
    (lambda: ls.LeviDescriptor("su", 2, (ls.GLBlock(2, P((2,))),)), "unknown ambient type"),
    (lambda: ls.LeviDescriptor("gl", 3, (ls.GLBlock(2, P((2,))),), ls.Tail(1, P((1,)))),
     "gl ambient admits no classical tail"),
    (lambda: ls.LeviDescriptor("so", 7, (ls.GLBlock(2, P((2,))),), ls.Tail(2, P((1, 1), "so"))),
     "sum 2k_i \\+ m must equal the ambient size"),
    (lambda: ls.LeviDescriptor("so", 7, (ls.GLBlock(2, P((2,))),), ls.Tail(3, P((1, 1), "so"))),
     "tail partition \\(1, 1\\) is not of 3"),
    (lambda: ls.LeviDescriptor.from_json_dict({"type": 5, "ambient": 2}),
     "ambient type must be a string"),
    # a bool or a float is no size, built directly or read from JSON
    (lambda: ls.LeviDescriptor("gl", True, (ls.GLBlock(1, P((1,))),)),
     "ambient must be an integer, not True"),
    (lambda: ls.LeviDescriptor("gl", 2.0, (ls.GLBlock(2, P((2,))),)),
     "ambient must be an integer, not 2.0"),
    (lambda: ls.LeviDescriptor("gl", 1, (ls.GLBlock(True, P((1,))),)),
     "k must be an integer, not True"),
    (lambda: ls.LeviDescriptor("so", 1, (), ls.Tail(True, P((1,), "so"))),
     "m must be an integer, not True"),
    (lambda: ls.LeviDescriptor.from_json_dict(
        {"type": "gl", "ambient": True, "gl_blocks": [{"k": 1, "d": [1]}]}),
     "ambient must be an integer, not True"),
    (lambda: ls.LeviDescriptor.from_json_dict(
        {"type": "gl", "ambient": 1, "gl_blocks": [{"k": True, "d": [1]}]}),
     "k must be an integer, not True"),
])
def test_descriptor_rejects_each_bad_shape(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# jordan oracle ---------------------------------------------------------------

def test_jordan_type_of_block_matrix():
    mat = _jordan_block_matrix((3, 2, 2, 1), 8)
    assert ls.jordan_type(mat) == (3, 2, 2, 1)
    assert ls.jordan_type([[0]]) == (1,)
    assert ls.jordan_type([]) == ()


def test_jordan_type_rank_identity():
    # number of parts >= i equals rank(e^(i-1)) - rank(e^i)
    from matrix_reference import matmul, rank
    mat = _jordan_block_matrix((4, 2, 1), 7)
    parts = ls.jordan_type(mat)
    power = [row[:] for row in mat]
    prev = 7
    for i in range(1, 5):
        r = rank(power)
        assert sum(1 for q in parts if q >= i) == prev - r
        prev = r
        power = matmul(power, mat)


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        ls.jordan_type([[1, 0], [0, 1]])


@pytest.mark.parametrize("entry", [True, False, 1.0, Fraction(1), Fraction(1, 2)],
                         ids=["True", "False", "float", "Fraction", "half"])
def test_jordan_type_rejects_a_non_int_entry(entry):
    """[[False, True], [False, False]] once read as the 2 x 2 Jordan block."""
    mat = [[0, 0], [entry, 0]]
    with pytest.raises(TypeError, match=rf"^matrix entry \(1, 0\) must be an int, "
                                        rf"not {type(entry).__name__}: "):
        ls.jordan_type(mat)


@pytest.mark.parametrize("mat", [[[0], [0]], [[0, 0, 0]], [[0, 1], [0]], [[]]])
def test_jordan_type_rejects_non_square(mat):
    with pytest.raises(ValueError, match="not square"):
        ls.jordan_type(mat)


def test_oracle_identity_on_full_gl_levi():
    levi = ls.LeviDescriptor("gl", 5, (ls.GLBlock(5, P((3, 2))),))
    assert ls.jordan_oracle(levi).parts == (3, 2)


def test_oracle_sp4_siegel():
    levi = ls.LeviDescriptor("sp", 4, (ls.GLBlock(2, P((1, 1))),))
    assert ls.jordan_oracle(levi, seed=3).parts == (2, 2)


def test_oracle_deterministic_for_seed():
    levi = ls.LeviDescriptor("so", 7, (ls.GLBlock(2, P((2,))),),
                             ls.Tail(3, P((1, 1, 1), "so")))
    a = ls.jordan_oracle(levi, seed=11, trials=3)
    b = ls.jordan_oracle(levi, seed=11, trials=3)
    assert a == b


def test_oracle_discards_draws_below_the_induced_orbit():
    """sp_6 from gl_3 with orbit (2, 1): under this seed the first two
    nilradical draws land in (3, 3), below the induced orbit (4, 2).  The
    oracle discards them by dimension and stops at the third draw; with a
    budget of two draws it raises instead of answering (3, 3)."""
    levi = ls.LeviDescriptor("sp", 6, (ls.GLBlock(3, P((2, 1))),))
    seen = []
    chain = ls._jordan_chain

    def recorded(mat):
        seen.append(chain(mat))
        return seen[-1]

    with mock.patch.object(ls, "_jordan_chain", recorded):
        assert ls.jordan_oracle(levi, seed=850592468) == ls.induce(levi) == P((4, 2), "sp")
    assert seen == [(3, 3), (3, 3), (4, 2)]
    with pytest.raises(ValueError, match="trial budget exhausted"):
        ls.jordan_oracle(levi, seed=850592468, trials=2)


def test_oracle_trials_bounded():
    levi = ls.LeviDescriptor("gl", 2, (ls.GLBlock(1, P((1,))), ls.GLBlock(1, P((1,)))))
    assert ls.jordan_oracle(levi, trials=1000).parts == (2,)
    assert ls.jordan_oracle(levi, trials=1).parts == (2,)  # both ends of 1..1000
    for trials in (0, 1001):
        with pytest.raises(ValueError, match="trials must be in 1..1000"):
            ls.jordan_oracle(levi, trials=trials)
    # a bool is no count, and random.Random would hash a float or a string seed
    for kwargs in ({"trials": True}, {"trials": 2.0}, {"seed": 1.5}, {"seed": "abc"},
                   {"seed": False}):
        (name, value), = kwargs.items()
        with pytest.raises(TypeError, match=f"{name} must be an int, not {value!r}"):
            ls.jordan_oracle(levi, **kwargs)


def test_oracle_respects_ambient_bound():
    over = ls.LeviDescriptor("so", 17, (ls.GLBlock(8, P((1,) * 8)),), ls.Tail(1, P((1,), "so")))
    with pytest.raises(ValueError, match="ambient 17 exceeds the oracle bound 16"):
        ls.jordan_oracle(over)
    levi = ls.LeviDescriptor("sp", 6, (ls.GLBlock(3, P((1, 1, 1))),))
    assert ls.jordan_oracle(levi).parts == (2, 2, 2)


@given(st.sampled_from(["gl", "so", "sp"]), st.integers(0, 16))
def test_algebra_basis_is_canonical_and_in_algebra(kind, n):
    if kind == "sp" and n % 2:
        n -= 1
    basis = ls._algebra_basis(kind, n)
    assert len(basis) == {"gl": n * n, "so": n * (n - 1) // 2, "sp": n * (n + 1) // 2}[kind]
    positions = [element[0][:2] for element in basis]
    assert positions == sorted(set(positions))  # distinct, row-major
    for element in basis:
        i, j, one = element[0]
        assert one == 1
        if kind != "gl":  # canonical: the lesser of a mirrored pair, so has no antidiagonal
            assert i + j < n - 1 or (kind == "sp" and i + j == n - 1)
        mat = ls._zero(n)
        for r, c, x in element:
            mat[r][c] += x
        assert ls._in_algebra(mat, kind)
        # zero at every other canonical position: coefficients are entries
        assert all(mat[r][c] == 0 for r, c in positions if (r, c) != (i, j))


def test_invariant_checks_raise_under_optimize():
    code = ("from orbitcert import lsinduce as ls\n"
            "from orbitcert.orbits import Partition\n"
            "ls._in_algebra = lambda mat, kind: False\n"
            "calls = [lambda: ls.jordan_oracle(ls.LeviDescriptor(\n"
            "             'sp', 4, (ls.GLBlock(2, Partition((1, 1))),))),\n"
            "         lambda: ls.centralizer_oracle(Partition((2, 2), 'sp'))]\n"
            "for call in calls:\n"
            "    try:\n"
            "        call()\n"
            "    except RuntimeError as exc:\n"
            "        print('raised:', exc)\n"
            "ls.parity_valid = lambda p: False\n"
            "try:\n"
            "    ls.collapse((3, 1), 'sp')\n"
            "except RuntimeError as exc:\n"
            "    print('raised:', exc)\n")
    src = str(Path(ls.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True).stdout
    assert out.splitlines() == [
        "raised: Levi base matrix is not in sp_4",
        "raised: e of type (2, 2) is not in sp_4",
        "raised: collapse of (3, 1) gave (2, 2), which is not a valid sp partition "
        "dominated by the input"]


def test_oracle_agrees_with_induce_seeded():
    rng = random.Random(7)
    for kind in ("gl", "so", "sp"):
        for trial in range(12):
            levi = ls.random_descriptor(rng, kind, 9)
            assert ls.jordan_oracle(levi, seed=trial, trials=3) == ls.induce(levi)


def test_random_descriptor_covers_its_ambient_ranges():
    """Seeded draws reach every ambient the docstring gives: 2..max-2 for
    gl, 4..max for so, and the even ones of 4..max for sp; and in each, every
    first block size: 1..n-1 for gl, 1..n/2 for so/sp (n/2: no tail)."""
    rng = random.Random(0)
    for kind, ambients in (("gl", range(2, 8)), ("so", range(4, 10)), ("sp", range(4, 10, 2))):
        drawn = [ls.random_descriptor(rng, kind, 9) for _ in range(300)]
        assert {levi.ambient for levi in drawn} == set(ambients)
        top = (lambda n: n - 1) if kind == "gl" else (lambda n: n // 2)
        assert {(levi.ambient, levi.gl_blocks[0].k) for levi in drawn} == {
            (n, k) for n in ambients for k in range(1, top(n) + 1)}


# centralizer oracle ----------------------------------------------------------

def test_centralizer_oracle_gl():
    assert ls.centralizer_oracle(P((1, 1, 1))) == 9
    assert ls.centralizer_oracle(P((4,))) == 4
    assert ls.centralizer_oracle(P((2, 1))) == 5


def test_centralizer_oracle_classical():
    assert ls.centralizer_oracle(P((2, 2), "sp")) == 4
    assert ls.centralizer_oracle(P((3, 2, 2, 1), "so")) == 12
    assert ls.centralizer_oracle(P((1, 1, 1, 1), "sp")) == 10
    assert ls.centralizer_oracle(P((5,), "so")) == 2


def test_normal_form_is_exact_without_random_draws():
    """Every valid gl/so/sp partition up to the oracle bound: the laid normal
    form is in the algebra, homogeneous of degree 2 for the sl2 weights and
    of the target Jordan type, and the centralizer oracle matches the
    formula, with no random number drawn.  The form is strictly upper
    triangular, so its rank chain may stop at the last Jordan block; its
    basis reversal P e P^-1 is lower triangular and runs the whole chain."""
    def no_draws(*args, **kwargs):
        raise AssertionError("random draw")

    checked = 0
    with mock.patch.object(ls.random, "Random", no_draws), \
            mock.patch.object(ls, "_random_element", no_draws):
        for n in range(ls.MAX_ORACLE_AMBIENT + 1):
            for kind in ("gl", "so", "sp"):
                for p in ls.valid_partitions(n, kind):
                    e = ls._lay(ls._normal_form(kind, p.parts), kind, n)
                    weights = ls._sl2_weights(p.parts)
                    assert ls._in_algebra(e, kind), p
                    assert {x for row in e for x in row} <= {-1, 0, 1}, p  # a 0/±1 normal form
                    assert all(weights[i] - weights[j] == 2 for i in range(n)
                               for j in range(n) if e[i][j]), p
                    reversal = [row[::-1] for row in e[::-1]]
                    assert ls.jordan_type(e) == ls.jordan_type(reversal) == p.parts, p
                    assert ls.centralizer_oracle(p) == dim_z_partition(p), p
                    checked += 1
    assert checked == 1487


@pytest.mark.parametrize("kind,ambient,tail", [
    ("so", 16, (3, 2, 2, 1)), ("so", 15, (5, 3, 1)), ("so", 7, (3,)),
    ("sp", 14, (4, 3, 3)), ("sp", 16, (2, 2, 1, 1)), ("sp", 6, (2,)),
])
def test_tail_laid_at_offset(kind, ambient, tail):
    """The tail's normal form laid at offset sum k_i on the ambient basis is
    the tail's own laid matrix there, and the Levi representative is in the
    algebra with the gl block's orbit twice and the tail's once."""
    m = sum(tail)
    k = (ambient - m) // 2
    levi = ls.LeviDescriptor(kind, ambient, (ls.GLBlock(k, P((2,) + (1,) * (k - 2))),),
                             ls.Tail(m, P(tail, kind)))
    base = ls._levi_base_matrix(levi)
    alone = ls._lay(ls._normal_form(kind, tail), kind, m)
    assert [row[k:k + m] for row in base[k:k + m]] == alone
    assert ls._in_algebra(base, kind)
    expected = sorted(tail + (2, 2) + (1,) * (2 * k - 4), reverse=True)
    assert ls.jordan_type(base) == tuple(expected)


def test_centralizer_oracle_rejects_invalid():
    with pytest.raises(ValueError):
        ls.centralizer_oracle(P((3, 1), "sp"))


def test_centralizer_oracle_ambient_bound():
    assert ls.centralizer_oracle(P((16,))) == 16
    with pytest.raises(ValueError, match="ambient 17 exceeds the oracle bound 16"):
        ls.centralizer_oracle(P((17,)))


# dimension preservation ------------------------------------------------------

def test_dim_preservation_small():
    for kind in ("sp", "so"):
        for n in range(2, 9):
            if kind == "sp" and n % 2:
                continue
            for k in range(1, n // 2 + 1):
                m = n - 2 * k
                if kind == "sp" and m % 2:
                    continue
                for d in ls.partitions_of(k):
                    for c in ls.valid_partitions(m, kind):
                        tail = ls.Tail(m, c) if m else None
                        levi = ls.LeviDescriptor(kind, n, (ls.GLBlock(k, P(d)),), tail)
                        assert dim_z_partition(ls.induce(levi)) == ls.induced_dim_z(levi)


def test_dim_preservation_multi_block():
    levi = ls.LeviDescriptor("so", 9, (ls.GLBlock(2, P((2,))), ls.GLBlock(1, P((1,)))),
                             ls.Tail(3, P((3,), "so")))
    assert dim_z_partition(ls.induce(levi)) == ls.induced_dim_z(levi)


def test_induction_transitivity():
    # two stages through an intermediate Levi equal one stage, ambient <= 10
    for kind in ("sp", "so"):
        for n in range(4, 11):
            if kind == "sp" and n % 2:
                continue
            for k1 in range(1, n // 2 + 1):
                for k2 in range(1, (n - 2 * k1) // 2 + 1):
                    m = n - 2 * k1 - 2 * k2
                    if kind == "sp" and m % 2:
                        continue
                    for d1 in ls.partitions_of(k1):
                        for d2 in ls.partitions_of(k2):
                            for c in ls.valid_partitions(m, kind):
                                tail = ls.Tail(m, c) if m else None
                                one = ls.induce(ls.LeviDescriptor(kind, n, (
                                    ls.GLBlock(k1, P(d1)), ls.GLBlock(k2, P(d2))), tail))
                                inner = ls.induce(ls.LeviDescriptor(
                                    kind, 2 * k2 + m, (ls.GLBlock(k2, P(d2)),), tail))
                                outer = ls.induce(ls.LeviDescriptor(
                                    kind, n, (ls.GLBlock(k1, P(d1)),),
                                    ls.Tail(2 * k2 + m, inner)))
                                assert one.parts == outer.parts


# rigidity --------------------------------------------------------------------

def test_zero_orbit_is_rigid():
    for kind, ns in [("sp", (2, 4, 6)), ("so", (3, 4, 5, 6, 7)), ("gl", (1, 2, 3, 4, 5))]:
        for n in ns:
            assert ls.is_rigid(P((1,) * n, kind))[0] is True


def test_sp4_rigidity_table():
    assert ls.is_rigid(P((2, 1, 1), "sp"))[0] is True
    rigid, witness = ls.is_rigid(P((4,), "sp"))
    assert rigid is False and ls.induce(witness).parts == (4,)
    rigid, witness = ls.is_rigid(P((2, 2), "sp"))
    assert rigid is False and ls.induce(witness).parts == (2, 2)


def test_gl2_regular_witness_for_sp4():
    levi = ls.LeviDescriptor("sp", 4, (ls.GLBlock(2, P((2,))),))
    assert ls.induce(levi).parts == (4,)


def test_induced_orbits_are_never_rigid():
    for kind in ("sp", "so"):
        for n in range(4, 9):
            if kind == "sp" and n % 2:
                continue
            for k in range(1, n // 2 + 1):
                m = n - 2 * k
                if kind == "sp" and m % 2:
                    continue
                for d in ls.partitions_of(k):
                    for c in ls.valid_partitions(m, kind):
                        tail = ls.Tail(m, c) if m else None
                        levi = ls.LeviDescriptor(kind, n, (ls.GLBlock(k, P(d)),), tail)
                        induced = ls.induce(levi)
                        rigid, witness = ls.is_rigid(induced)
                        assert not rigid
                        assert ls.induce(witness) == induced


def test_is_rigid_bound():
    """No size bound: only a partition of the wrong parity is refused."""
    assert ls.is_rigid(P((1,) * 16, "sp")) == (True, None)
    assert ls.is_rigid(P((3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1), "so")) == (True, None)
    rigid, witness = ls.is_rigid(P((10**12, 10**12 - 2), "sp"))
    assert rigid is False and ls.induce(witness).parts == (10**12, 10**12 - 2)
    with pytest.raises(ValueError, match="not a valid sp partition"):
        ls.is_rigid(P((1,) * 15, "sp"))


@pytest.mark.parametrize("kind", ["so", "sp"])
def test_is_rigid_is_linear_in_the_parts(kind):
    """About 10**5 parts: each value from 40000 down to 1, twice if of the
    bad parity and three times if of the free one, is rigid, and the scan
    reads every run; one copy fewer of the last free-parity value makes
    that value a pair, where the pair rule fires.  A scan quadratic in the
    parts would not finish."""
    bad = 0 if kind == "so" else 1
    parts = tuple(v for v in range(40000, 0, -1) for _ in range(2 if v % 2 == bad else 3))
    assert len(parts) >= 10**5
    assert ls.is_rigid(P(parts, kind)) == (True, None)
    pair = 1 + bad
    i = parts.index(pair)
    cut = parts[:i] + parts[i + 1:]
    rigid, witness = ls.is_rigid(P(cut, kind))
    assert rigid is False and ls.induce(witness).parts == cut
    assert witness.gl_blocks[0].k == i + 1


def test_gl_nonzero_orbits_all_induced():
    for n in range(2, 7):
        for parts in ls.partitions_of(n):
            rigid, witness = ls.is_rigid(P(parts))
            assert rigid == (parts == (1,) * n)
            if not rigid:
                assert ls.induce(witness).parts == parts


CRITERION_AMBIENT = 14


def rigid_by_criterion(p):
    """Collingwood-McGovern, Nilpotent Orbits in Semisimple Lie Algebras
    (1993), 7.3: in gl only the zero orbit is rigid; in so/sp, p is rigid
    exactly when no two consecutive parts (with a trailing 0) differ by more
    than 1 and no part of the free parity (odd in so, even in sp) occurs
    exactly twice."""
    if p.kind == "gl":
        return set(p.parts) <= {1}
    free = 1 if p.kind == "so" else 0
    gaps_ok = all(a - b <= 1 for a, b in zip(p.parts, p.parts[1:] + (0,)))
    return gaps_ok and all(p.parts.count(q) != 2 for q in set(p.parts) if q % 2 == free)


def test_is_rigid_matches_the_closed_form_criterion():
    """is_rigid against the criterion on every valid partition of 1..14.
    One exception: the zero orbit (1, 1) of so_2, which the criterion calls
    induced (from gl_1, the whole of the abelian so_2) and is_rigid calls
    rigid, as it admits no proper Levi."""
    checked = {True: 0, False: 0}
    for kind in ("gl", "so", "sp"):
        for n in range(1, CRITERION_AMBIENT + 1):
            for p in ls.valid_partitions(n, kind):
                rigid, witness = ls.is_rigid(p)
                expected = rigid_by_criterion(p) or (kind, p.parts) == ("so", (1, 1))
                assert rigid == expected, p
                assert rigid == (witness is None), p
                checked[rigid] += 1
    assert sum(checked.values()) == 852 and checked[True] and checked[False]


# misc ------------------------------------------------------------------------

def test_very_even_flag():
    assert ls.is_very_even(P((4, 2, 2), "so"))
    assert not ls.is_very_even(P((3, 3, 2), "so"))
    assert not ls.is_very_even(P((4, 2, 2), "sp"))
    assert not ls.is_very_even(P((), "so"))


@given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
@settings(max_examples=40)
def test_transpose_rank_duality_of_partitions(parts):
    parts = tuple(sorted(parts, reverse=True))
    assert ob.transpose(ob.transpose(P(parts))).parts == parts
