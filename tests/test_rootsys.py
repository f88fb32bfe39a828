import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcert import certify as ct
from orbitcert import integral as ig
from orbitcert import rootsys as rs

import conftest
import epsilon_reference as ref

TYPE_COUNTS = [("A1", 1), ("A4", 10), ("B2", 4), ("B3", 9), ("C3", 9),
               ("D4", 12), ("G2", 6), ("F4", 24), ("E6", 36), ("E7", 63),
               ("E8", 120)]


@pytest.mark.parametrize("label,count", TYPE_COUNTS)
def test_positive_root_counts(label, count):
    model = rs.build(label)
    assert len(model.positive_roots) == count
    assert model.dim == 2 * count + model.rank


def test_dim_identities():
    assert rs.build("E8").dim == 248
    assert rs.build("G2").dim == 14
    assert rs.build("F4").dim == 52
    assert rs.build("E7").dim == 133
    assert rs.build("E6").dim == 78


@pytest.mark.parametrize("bad", ["Z3", "A0", "B1", "C1", "D3", "E5", "E9",
                                 "F5", "G3", "E", "8", "A-1", "A33", "B120", "D33"])
def test_build_rejects_bad_labels(bad):
    with pytest.raises(ValueError):
        rs.build(bad)


def test_build_interns_label_spellings():
    """One model per (series, rank), whatever the spelling of the label."""
    assert rs.build("e8") is rs.build("E8") is rs.build("E_8") is rs.build(" e 8 ")
    assert rs.build("b3") is rs.build("B3") is not rs.build("C3")


@pytest.mark.parametrize("label", sorted(
    {f"{series}{low}" for series, (low, _) in rs._VALID_RANKS.items()} | set(conftest.TYPES)))
def test_pickled_model_is_the_interned_one(label):
    """A model pickles, copies and deep-copies to the model ``build`` interns
    for its label; it is immutable, and its repr is that ``build`` call."""
    model = rs.build(label)
    assert pickle.loads(pickle.dumps(model)) is model
    assert copy.copy(model) is model and copy.deepcopy(model) is model
    assert repr(model) == f"build({model.cartan_type!r})"
    for name in ("cartan_type", "rank", "pos_coefficients"):
        with pytest.raises(AttributeError, match=f"immutable: cannot assign '{name}'"):
            setattr(model, name, None)
        with pytest.raises(AttributeError, match=f"immutable: cannot delete '{name}'"):
            delattr(model, name)


def test_rank_bound():
    for series in "ABCD":
        assert rs.parse_label(f"{series}{rs.MAX_RANK}") == (series, rs.MAX_RANK)
        with pytest.raises(ValueError, match="rank out of range"):
            rs.parse_label(f"{series}{rs.MAX_RANK + 1}")


def test_rank_digits_are_read_without_int():
    """Leading zeros, and any run of decimal digits, keep the meaning ``int``
    gives them; a rank written with more digits than ``int`` reads (4300)
    is out of range, with the digits printed as ``int`` prints them."""
    for label in ("E08", "e_008", "E" + "0" * 5000 + "8", "E\u0660\u0668"):
        assert rs.parse_label(label) == ("E", 8)
    assert rs.parse_label("a07") == ("A", 7)
    for digits, shown in (("1" * 5000, "1" * 5000), ("0" * 4400 + "123", "123"),
                          ("\u0663\u0663", "33"), ("0", "0"), ("000", "0")):
        with pytest.raises(ValueError) as info:
            rs.parse_label("A" + digits)
        assert str(info.value) == f"rank out of range for type A{shown}"
    assert rs.decimal_digits("\u0660\u0660\u06f9\u0037") == "97"


def _cartan_matrix(model):
    return [[rs.pairing(model, a, b) for b in model.simple_roots]
            for a in model.simple_roots]


def test_cartan_matrix_g2():
    assert _cartan_matrix(rs.build("G2")) == [[2, -1], [-3, 2]]


def test_cartan_matrix_b3_c3():
    assert _cartan_matrix(rs.build("B3")) == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert _cartan_matrix(rs.build("C3")) == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]


def test_cartan_matrix_f4():
    assert _cartan_matrix(rs.build("F4")) == [
        [2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def test_cartan_matrix_e8_branch(e8):
    cm = _cartan_matrix(e8)
    for i in range(8):
        assert cm[i][i] == 2
    # chain a1-...-a7 with a8 hanging off a5
    chain = {(i, i + 1) for i in range(6)} | {(4, 7)}
    for i in range(8):
        for j in range(i + 1, 8):
            expected = -1 if (i, j) in chain else 0
            assert cm[i][j] == expected and cm[j][i] == expected


def test_every_positive_root_is_nonneg_simple_combination(e8):
    for label in ("B3", "G2", "F4", "E8"):
        model = rs.build(label)
        for beta, coeff in zip(model.positive_roots, model.pos_coefficients):
            assert all(c >= 0 for c in coeff)
            acc = [Fr(0)] * model.ambient_dim
            for c, alpha in zip(coeff, model.simple_roots):
                for i, x in enumerate(alpha.coords):
                    acc[i] += c * x
            assert rs.Weight(tuple(acc)) == beta


# canonicalization -----------------------------------------------------------

def test_canonicalize_e8_alpha8(e8):
    w = rs.canonicalize(e8, (0, 0, 0, 0, 0, 1, 1, 1, 0))
    assert sorted(w.coords) == [Fr(-1, 3)] * 6 + [Fr(2, 3)] * 3
    assert w.dot(w) == 2


def test_canonicalize_fixed_points(e8):
    zero = rs.canonicalize(e8, (0,) * 9)
    assert not any(zero.nums)
    assert not any(rs.canonicalize(e8, (1,) * 9).nums)


def test_canonicalize_identity_for_classical():
    b3 = rs.build("B3")
    w = rs.canonicalize(b3, (1, 2, 3))
    assert w.coords == (1, 2, 3)


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_e_model_roots_are_canonical(label):
    model = rs.build(label)
    for beta in model.positive_roots:
        assert sum(beta.coords) == 0


def test_model_inner_is_dot(e8):
    a = e8.simple_roots[0]
    assert a.dot(a) == 2


def test_canonicalize_wrong_length(e8):
    with pytest.raises(ValueError):
        rs.canonicalize(e8, (1, 2, 3))


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                min_size=9, max_size=9))
def test_canonicalize_idempotent_and_pairing_invariant(raw):
    e8 = rs.build("E8")
    once = rs.canonicalize(e8, raw)
    assert rs.canonicalize(e8, once.coords) == once
    alpha = e8.positive_roots[17]
    assert rs.pairing(e8, once, alpha) == Fr(2 * rs.Weight(tuple(raw)).dot(alpha), 2)


# rho and fundamental weights -------------------------------------------------

def test_rho_e8_reference_coordinates(e8):
    assert rs.rho(e8) == rs.canonicalize(e8, conftest.RHO_COORDS)


def test_rho_a1():
    a1 = rs.build("A1")
    assert rs.rho(a1) == Fr(1, 2) * a1.simple_roots[0]


@pytest.mark.parametrize("label", conftest.TYPES)
def test_rho_defining_property(label):
    model = rs.build(label)
    r = rs.rho(model)
    for alpha in model.simple_roots:
        assert rs.pairing(model, r, alpha) == 1


@pytest.mark.parametrize("label", ["B3", "G2", "E8"])
def test_rho_pairing_at_least_one_on_positives(label):
    model = rs.build(label)
    r = rs.rho(model)
    simple = set(model.simple_roots)
    for beta in model.positive_roots:
        val = rs.pairing(model, r, beta)
        assert val >= 1
        assert (val == 1) == (beta in simple)


@pytest.mark.parametrize("label", conftest.TYPES)
def test_fundamental_coweights_defining(label):
    model = rs.build(label)
    for i, w in enumerate(rs.fundamental_coweights(model)):
        for j, alpha in enumerate(model.simple_roots):
            assert alpha.dot(w) == (1 if i == j else 0)


@pytest.mark.parametrize("label", [label for label, _ in TYPE_COUNTS])
def test_coweight_has_the_given_simple_values(label):
    """h_values inverts coweight on random integer values, and the unit
    vectors give the fundamental coweights."""
    model = rs.build(label)
    rng = random.Random(f"coweight-{label}")
    for _ in range(20):
        values = [rng.randint(-9, 9) for _ in range(model.rank)]
        assert rs.h_values(model, rs.coweight(model, values)) == values
    for i, w in enumerate(rs.fundamental_coweights(model)):
        assert rs.coweight(model, [int(i == j) for j in range(model.rank)]) == w


def test_pi8_is_minus_3eps9(e8):
    # the printed value 3*eps_9 pairs to -1 against a8; the defining system
    # forces the opposite sign.  E8 is simply laced with (a, a) = 2, so its
    # fundamental weights are its fundamental coweights.
    printed = rs.canonicalize(e8, (0,) * 8 + (3,))
    assert rs.pairing(e8, printed, e8.simple_roots[7]) == -1
    assert rs.fundamental_coweights(e8)[7] == -printed


def test_a1_fundamental_weight_is_half_root():
    # (a, a) = 2, so the fundamental weight is the fundamental coweight
    a1 = rs.build("A1")
    assert rs.fundamental_coweights(a1)[0] == Fr(1, 2) * a1.simple_roots[0]


# pairing ---------------------------------------------------------------------

def test_pairing_flagship_values(e8, flagship_lambda_prime):
    alpha = rs.canonicalize(e8, (0, 0, 1, 1, 0, 0, 1, 0, 0))
    assert rs.pairing(e8, flagship_lambda_prime, alpha) == 1
    a8 = e8.simple_roots[7]
    assert rs.pairing(e8, flagship_lambda_prime, a8) == Fr(5, 6)


def test_pairing_rejects_non_roots(e8):
    with pytest.raises(ValueError):
        rs.pairing(e8, rs.rho(e8), rs.canonicalize(e8, (1, 0, 0, 0, 0, 0, 0, 0, 0)))


@given(st.fractions(min_value=-4, max_value=4, max_denominator=5),
       st.fractions(min_value=-4, max_value=4, max_denominator=5))
def test_pairing_bilinear_in_lambda(a, b):
    g2 = rs.build("G2")
    u = rs.rho(g2)
    v = rs.fundamental_coweights(g2)[1]
    alpha = g2.positive_roots[3]
    lhs = rs.pairing(g2, a * u + b * v, alpha)
    assert lhs == a * rs.pairing(g2, u, alpha) + b * rs.pairing(g2, v, alpha)


@pytest.mark.parametrize("label", conftest.TYPES)
def test_root_and_coroot_steps(label):
    """Each positive root (coroot) is a simple one or an earlier one plus a
    simple one, in weakly increasing height (coroot height): the order that
    root_values, coroot_values and the integral system's walk rely on."""
    model = rs.build(label)
    for steps, coeffs in ((model.root_steps, model.pos_coefficients),
                          (model.coroot_steps, model.coroot_coefficients)):
        assert sorted(k for k, _, _ in steps) == list(range(len(coeffs)))
        done, heights = set(), []
        for k, parent, i in steps:
            step = [int(j == i) for j in range(model.rank)]
            below = coeffs[parent] if parent >= 0 else (0,) * model.rank
            assert parent < 0 or parent in done
            assert list(coeffs[k]) == [a + b for a, b in zip(below, step)]
            done.add(k)
            heights.append(sum(coeffs[k]))
        assert heights == sorted(heights)
    labels = list(range(2, 2 + model.rank))
    assert rs.root_values(model, labels) == [sum(a * b for a, b in zip(c, labels))
                                             for c in model.pos_coefficients]
    values, den = rs.coroot_values(model, rs.rho(model))  # <rho, beta^vee> = coroot height
    assert values == [den * sum(cv) for cv in model.coroot_coefficients]


# type identification ---------------------------------------------------------

def _classify(model, indices):
    """``classify_gram`` of the model's simple roots at ``indices``, read
    from its integer Gram matrix."""
    return rs.classify_gram([[model.gram[i][j] for j in indices] for i in indices])


def test_identify_type_basics(e8):
    assert _classify(e8, range(8)) == ("E8",)
    assert _classify(e8, (0, 2)) == ("A1", "A1")
    assert _classify(e8, conftest.LEVI_A5A1) == ("A5", "A1")


def test_identify_type_b_vs_c():
    f4 = rs.build("F4")
    assert _classify(f4, (0, 1, 2)) == ("B3",)
    assert _classify(f4, (1, 2, 3)) == ("C3",)
    assert _classify(f4, (1, 2)) == ("B2",)
    assert _classify(rs.build("B4"), range(4)) == ("B4",)
    assert _classify(rs.build("C4"), range(4)) == ("C4",)


def test_identify_type_d_and_e():
    for label in ("D4", "E6", "E7"):
        model = rs.build(label)
        assert _classify(model, range(model.rank)) == (label,)


def test_identify_type_rejects_dependent(e8):
    g = e8.gram[0][0]  # a_1 and -a_1
    with pytest.raises(ValueError, match="^simple system is not linearly independent$"):
        rs.classify_gram([[g, -g], [-g, g]])


def test_identify_type_rejects_non_crystallographic():
    # (1, 0) and (-1, 1/2), times 4: pairings outside {0,-1,-2,-3} are not of finite type
    with pytest.raises(ValueError, match="^pairings are not those of a crystallographic"):
        rs.classify_gram([[4, -4], [-4, 5]])


def _tree_gram(n, edges):
    """The simply laced Gram matrix (Cartan matrix) of a tree on n nodes."""
    gram = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = -1
    return gram


# T(2, 3, 7): E8's chain 0 - ... - 8 with node 9 on node 2; det -1, not finite type
_T237 = _tree_gram(10, [(i, i + 1) for i in range(8)] + [(2, 9)])


@pytest.mark.parametrize("gram,error,message", [
    ([[2, -2], [-2, 2]], ValueError, "simple system is not linearly independent"),
    ([[2, 1], [1, 2]], ValueError, "pairings are not those of a finite-type simple system"),
    ([[2.0]], TypeError, "a Gram matrix entry must be an int, not float: 2.0"),
    ([[True]], TypeError, "a Gram matrix entry must be an int, not bool: True"),
    ([[Fr(2)]], TypeError, "a Gram matrix entry must be an int, not Fraction: Fraction(2, 1)"),
    ([[2, -1]], ValueError, "Gram matrix is not square: 1 rows of lengths [2]"),
    ([[2, -1], [0, 2]], ValueError, "Gram matrix is not symmetric"),
    ([[-2]], ValueError, "Gram matrix is not positive definite"),
    (_T237, ValueError, "Gram matrix is not positive definite"),
], ids=["dependent", "positive_pairing", "float", "bool", "Fraction", "not_square",
        "not_symmetric", "negative_diagonal", "hyperbolic_T237"])
def test_finite_cartan_rejects(gram, error, message):
    """The simple-system check that ``classify_gram`` and cor68 share; types
    are named from integer Gram matrices only, so a float, a bool or a
    Fraction entry is a TypeError, not a silent reading.  A non-square
    matrix once raised IndexError, and [[-2]] was named A1 and the
    indefinite T(2, 3, 7) E10."""
    for fn in (rs.finite_cartan, rs.classify_gram):
        with pytest.raises(error) as exc:
            fn(gram)
        assert str(exc.value) == message


def test_finite_cartan_of_g2():
    g2 = rs.build("G2")
    assert rs.finite_cartan(g2.gram) == g2.cartan


@settings(max_examples=25)
@given(st.permutations(list(range(8))), st.integers(0, 255))
def test_identify_type_permutation_invariant(perm, mask):
    e8 = rs.build("E8")
    subset = [i for i in range(8) if mask & (1 << i)]
    base = _classify(e8, subset)
    shuffled = [subset[perm[i] % len(subset)] for i in range(len(subset))]
    if len(set(shuffled)) == len(subset):
        assert _classify(e8, shuffled) == base


def test_dual_label():
    assert ref.dual_label("B3") == "C3"
    assert ref.dual_label("C4") == "B4"
    assert ref.dual_label("B2") == "B2"
    assert ref.dual_label("C2") == "B2"
    for lbl in ("A5", "D4", "E8", "F4", "G2"):
        assert ref.dual_label(lbl) == lbl


def test_format_type():
    assert rs.format_type(("A5", "A2", "A1")) == "A5+A2+A1"
    assert rs.format_type(("A1", "A5", "A2")) == "A5+A2+A1"
    assert rs.format_type(()) == "0"


def test_positive_count_helper():
    assert len(rs.build("A5").positive_roots) == 15
    assert len(rs.build("B2").positive_roots) == 4
    assert len(rs.build("E8").positive_roots) == 120


# serialization ---------------------------------------------------------------

def test_weight_string_round_trip(flagship_lambda_prime):
    strings = flagship_lambda_prime.to_strings()
    assert all("/" in s or s.lstrip("-").isdigit() for s in strings)
    assert rs.Weight(strings) == flagship_lambda_prime


def test_weight_arithmetic_and_hash():
    u = rs.Weight((1, Fr(1, 2)))
    v = rs.Weight(("1", "1/2"))
    assert u == v and hash(u) == hash(v)
    assert not any((u - v).nums)
    assert (2 * u).coords == (2, 1)
    assert (-u).coords == (-1, Fr(-1, 2))
    assert (u.nums, u.den) == ((2, 1), 2)
    assert ((2 * u).nums, (2 * u).den) == ((2, 1), 1)
    assert str(u) == "[1, 1/2]" and repr(u) == "Weight([1, 1/2])"
    with pytest.raises(AttributeError):
        u.den = 1


def test_weight_length_mismatch_raises():
    u, v = rs.Weight((1, 2)), rs.Weight((1, 2, 3))
    for op in (lambda: u + v, lambda: u - v, lambda: u.dot(v), lambda: v.dot(u)):
        with pytest.raises(ValueError, match="different lengths: [23] and [23]"):
            op()
    a2 = rs.build("A2")
    with pytest.raises(ValueError, match="different lengths: 9 and 3"):
        rs.pairing(a2, rs.Weight([1] * 9), a2.simple_roots[0])


def test_weight_rejects_inexact_entries():
    """Only exact rationals and strings enter a Weight, as entries or as a
    scalar: a float would enter as its binary expansion (0.1 with the
    denominator 2**55)."""
    a2 = rs.build("A2")
    u = rs.Weight((1, 2, 3))
    for bad in (0.1, 0.5, 1.0, Decimal("0.5"), 1j, None):
        for op in (lambda: rs.Weight((bad, 0, 0)), lambda: rs.canonicalize(a2, [bad, 0, 0]),
                   lambda: rs.combine(a2, [bad, 1]), lambda: bad * u):
            with pytest.raises(TypeError, match="exact rational or a string"):
                op()
    assert rs.Weight((True, Fr(1, 2), "3/4")) == rs.Weight((1, Fr(1, 2), Fr(3, 4)))
    assert Fr(1, 2) * u == "1/2" * u == rs.Weight((Fr(1, 2), 1, Fr(3, 2)))
    assert rs.combine(a2, [Fr(1, 2), "1"]) == rs.combine(a2, [1, 2], 2)


def test_weight_reads_strings_as_the_cli_does():
    """A string entry goes through ``parse_rational``: exponent notation,
    which ``Fraction`` would expand digit by digit, and a zero denominator
    raise ValueError, for an entry and for a scalar."""
    for token, message in (("1e10000000", "exponent notation"), ("1/0", "zero denominator"),
                           (" 2E3", "exponent notation")):
        with pytest.raises(ValueError, match=message):
            rs.Weight([token, "0"])
        with pytest.raises(ValueError, match=message):
            token * rs.Weight((1, 2))
    assert rs.Weight([" -3/6 ", "0.5", "+2"]) == rs.Weight((Fr(-1, 2), Fr(1, 2), 2))


def test_weight_is_numerators_over_one_denominator():
    u = rs.Weight((Fr(-3, 4), 2, "1/6"))
    assert (u.nums, u.den) == ((-9, 24, 2), 12)
    assert u.coords == tuple(Fr(x, u.den) for x in u.nums) == (Fr(-3, 4), 2, Fr(1, 6))
    assert hash(u) == hash((u.nums, u.den))
    assert rs.Weight([" 1/2", "3"]) == rs.Weight((Fr(1, 2), 3))
    assert rs.Weight.__slots__ == ("nums", "den")


def test_weight_pickles_and_stays_immutable():
    u = rs.Weight((Fr(1, 2), -1))
    v = pickle.loads(pickle.dumps(u))
    assert type(v) is rs.Weight and v == u and hash(v) == hash(u)
    assert (v.nums, v.den) == ((1, -2), 2)
    for name in ("nums", "den", "coords", "other"):
        with pytest.raises(AttributeError, match=f"Weight is immutable: cannot assign '{name}'"):
            setattr(v, name, 1)


@pytest.mark.parametrize("label", conftest.TYPES)
def test_root_membership_matches_the_root_lists(label):
    model = rs.build(label)
    rng = random.Random(f"membership-{label}")
    candidates = list(model.roots) + [-beta for beta in model.roots]
    candidates += [2 * beta for beta in model.positive_roots]
    candidates += [rs.Weight([0] * model.ambient_dim), rs.Weight([1] * (model.ambient_dim + 1)),
                   rs.Weight([Fr(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(model.ambient_dim)])]
    positives = set(model.positive_roots)
    for v in candidates:
        assert model.is_root(v) == (v in model.roots), v
        # a root's position in ``roots`` is below len(positive_roots) exactly when positive
        assert (model._root_index.get(v, len(model.roots))
                < len(model.positive_roots)) == (v in positives), v
    assert sum(map(model.is_root, candidates)) == 2 * len(model.roots)


@pytest.mark.parametrize("call, message", [
    (lambda e8: ct.graded_dims(e8, rs.Weight([5, 3, 1, -1, -3, -5, 1, -1, 0, 7, 7])),
     "expected 9 coordinates, got 11"),
    (lambda e8: ig.integral_system(e8, rs.Weight([1, 2])), "expected 9 coordinates, got 2"),
    (lambda e8: ct.CertificateInput(e8, (0, 1), None, rs.Weight([5, 5])),
     "expected 9 coordinates, got 2"),
    (lambda e8: ct.CertificateInput(e8, (0, 1), rs.Weight([5, 5]), rs.rho(e8)),
     "expected 9 coordinates, got 2"),
    (lambda e8: rs.simple_pairings(e8, rs.Weight([1] * 10)), "expected 9 coordinates, got 10"),
    (lambda e8: rs.levi_coords(e8, rs.Weight([1]), 0b111), "expected 9 coordinates, got 1"),
    (lambda e8: rs.levi_part(e8, rs.Weight([1] * 10), 0b111), "expected 9 coordinates, got 10"),
    (lambda e8: rs.combine(e8, [1, 2]), "expected 8 simple-root coefficients"),
    (lambda e8: rs.coweight(e8, [2] * 9), "expected 8 simple values"),
    (lambda e8: rs.combine(e8, [Fr(1, 2)] * 9), "expected 8 simple-root coefficients"),
], ids=["graded_dims", "integral_system", "certificate_lambda_prime", "certificate_h",
        "simple_pairings", "levi_coords", "levi_part", "combine", "coweight",
        "combine_rational"])
def test_kernel_rejects_vectors_of_the_wrong_length(e8, call, message):
    with pytest.raises(ValueError, match=message):
        call(e8)
