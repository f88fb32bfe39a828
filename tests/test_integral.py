import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcert import certify as ct
from orbitcert import integral as ig
from orbitcert import linalg
from orbitcert import rootsys as rs

import conftest
import epsilon_reference as ref


def test_e8_flagship_integral_system(e8, flagship_lambda_prime, flagship_integral_simples):
    isys = ig.integral_system(e8, flagship_lambda_prime)
    assert isys.cartan_type == ("A5", "A2", "A1")
    assert frozenset(isys.simple_system) == flagship_integral_simples
    assert isys.size == 38
    assert isys.cor68 == ig.cor68_dim(e8, flagship_lambda_prime) == 202
    values = sorted(rs.pairing(e8, flagship_lambda_prime, b) for b in isys.simple_system)
    assert set(values) == {1, 2}


def test_integral_system_of_rho(e8):
    isys = ig.integral_system(e8, rs.rho(e8))
    assert isys.size == 240
    assert isys.cartan_type == ("E8",)
    assert set(isys.simple_system) == set(e8.simple_roots)


def test_integral_system_empty():
    a1 = rs.build("A1")
    isys = ig.integral_system(a1, Fr(1, 3) * a1.simple_roots[0])
    assert isys.size == 0
    assert isys.cartan_type == ()
    assert isys.simple_system == ()


def test_integral_system_negation_closed(e8, flagship_lambda_prime):
    isys = ig.integral_system(e8, flagship_lambda_prime)
    roots = set(isys.coroots)
    assert all(-b in roots for b in roots)


def test_integral_system_reflection_stable(e8, flagship_lambda_prime):
    isys = ig.integral_system(e8, flagship_lambda_prime)
    roots = set(isys.coroots)
    for simple in isys.simple_system:
        for beta in roots:
            image = beta - rs.pairing(e8, beta, simple) * simple
            assert image in roots


def test_integral_system_b_c_dualization():
    b4 = rs.build("B4")
    lp = rs.weight((Fr(1, 2), Fr(1, 2), Fr(1, 2), 0))
    isys = ig.integral_system(b4, lp)
    # the coroot subsystem has a C3 component; the root side reports B3
    assert isys.cartan_type == ("B3", "A1")
    assert isys.size == 20
    c3 = rs.build("C3")
    lp = rs.weight((Fr(1, 2), Fr(1, 2), 0))
    isys = ig.integral_system(c3, lp)
    # long coroots (e_i+-e_j)/1... pair integrally iff i,j <= 2; short e_i stay
    assert sum(len(rs.build(lbl).positive_roots) for lbl in isys.cartan_type) * 2 == isys.size


def test_integral_simples_are_positive_roots(e8, flagship_lambda_prime):
    isys = ig.integral_system(e8, flagship_lambda_prime)
    assert all(b in e8.positive_roots for b in isys.simple_system)


# antidominant representatives -------------------------------------------------

def test_antidominant_already_there(e8):
    _, simp = rs.levi_subsystem(e8, (0, 2))
    mu = -2 * rs.rho(e8)
    res = ig.antidominant_rep(e8, simp, mu)
    assert res.word == () and res.weight == mu and res.minimal


def test_antidominant_single_reflection():
    a1 = rs.build("A1")
    alpha = a1.simple_roots[0]
    mu = Fr(3, 2) * alpha  # <mu, alpha^vee> = 3
    res = ig.antidominant_rep(a1, (alpha,), mu)
    assert res.word == (0,)
    assert rs.pairing(a1, res.weight, alpha) == -3
    assert res.minimal


def test_antidominant_flagship_word_length(e8, flagship_lambda_prime):
    isys = ig.integral_system(e8, flagship_lambda_prime)
    res = ig.antidominant_rep(e8, isys.simple_system, flagship_lambda_prime)
    sub_pos = ref.enumerate_positive(list(isys.simple_system))[0]
    inversions = sum(1 for g in sub_pos if flagship_lambda_prime.dot(g) > 0)
    assert res.minimal
    assert len(res.word) == inversions
    assert all(rs.pairing(e8, res.weight, b) <= 0 for b in isys.simple_system)
    assert ig.apply_word(isys.simple_system, res.word, flagship_lambda_prime) == res.weight


def test_antidominant_singular_flagged(e8):
    _, simp = rs.levi_subsystem(e8, (0, 1))
    mu = rs.fundamental_weights(e8)[0]  # vanishes on alpha_2's coroot
    res = ig.antidominant_rep(e8, simp, mu)
    assert not res.minimal
    assert all(rs.pairing(e8, res.weight, b) <= 0 for b in simp)


@pytest.mark.parametrize("simples, message", [
    (lambda a2: [a2.positive_roots[-1], a2.simple_roots[0]],  # theta and a1 pair to 1
     "pairings are not those of a finite-type simple system"),
    (lambda a2: [rs.weight([1, 0, 0])], r"^\[1, 0, 0\] is not a root of A2$"),
    (lambda a2: [a2.simple_roots[0]] * 2, "simple system is not linearly independent"),
], ids=["theta_a1", "not_a_root", "repeated"])
def test_antidominant_rep_rejects_a_non_simple_system(simples, message):
    """The first two once returned minimal=True."""
    a2 = rs.build("A2")
    with pytest.raises(ValueError, match=message):
        ig.antidominant_rep(a2, simples(a2), rs.weight([1, 2, -3]))


@pytest.mark.parametrize("word", [(7,), (-1,), (True,), (0, 2), (1.0,)])
def test_apply_word_rejects_indices_outside_the_system(word):
    """(-1,) and (True,) once reflected in a root silently, (7,) raised IndexError."""
    a2 = rs.build("A2")
    with pytest.raises(ValueError, match=r"^word index .* is outside 0\.\.1$"):
        ig.apply_word(a2.simple_roots, word, rs.rho(a2))


@settings(max_examples=30)
@given(st.integers(0, 10**9))
def test_antidominant_replay_property(seed):
    rng = random.Random(seed)
    model = rs.build(rng.choice(["B3", "G2", "A4", "D4"]))
    mu = rs.weight([Fr(rng.randint(-8, 8), rng.randint(1, 3))
                    for _ in range(model.ambient_dim)])
    res = ig.antidominant_rep(model, model.simple_roots, mu)
    assert ig.apply_word(model.simple_roots, res.word, mu) == res.weight
    assert all(rs.pairing(model, res.weight, a) <= 0 for a in model.simple_roots)


# dimension formulas -----------------------------------------------------------

def test_cor68_flagship(e8, flagship_lambda_prime):
    assert ig.cor68_dim(e8, flagship_lambda_prime) == 202


@pytest.mark.parametrize("label", ["A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8"])
def test_cor68_at_rho_is_zero(label):
    model = rs.build(label)
    assert ig.cor68_dim(model, rs.rho(model)) == 0


def test_cor68_not_applicable(e8):
    assert ig.cor68_dim(e8, -rs.rho(e8)) is None


def test_cor68_finds_and_checks_no_simple_system(monkeypatch, e8, flagship_h,
                                                 flagship_lambda_prime):
    """cor68 is a count of integral roots and a sign test: neither
    ``certify`` nor ``cor68_dim`` walks the integral base, builds its Gram
    matrix or eliminates.  The model's tables are built before the patch."""
    inp = ct.CertificateInput(e8, conftest.LEVI_A5A1, flagship_h, flagship_lambda_prime, True)
    assert ct.certify(inp).cor68 == 202

    def refuse(*args):
        raise AssertionError("the cor68 path walked or checked the integral base")

    for module, name in ((rs, "finite_cartan"), (rs, "height_simples"),
                         (linalg, "integer_row_basis")):
        monkeypatch.setattr(module, name, refuse)
    assert ct.certify(inp).cor68 == 202
    assert ig.cor68_dim(e8, flagship_lambda_prime) == 202


def test_prop67_values():
    assert ig.prop67_dim(248, 46, 0) == 202
    assert ig.prop67_dim(14, 14, 0) == 0
    # the bounds dim g(lambda) = 0 and dim g = 0 are allowed
    assert ig.prop67_dim(14, 0, 0) == 14
    assert ig.prop67_dim(0, 0, 0) == 0
    # w = identity: dim O_w = dim g(lambda) - rank gives the nilpotent cone
    assert ig.prop67_dim(248, 248, 248 - 8) == 240


def test_prop67_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ig.prop67_dim(46, 248, 0)
    with pytest.raises(ValueError):
        ig.prop67_dim(-1, 0, 0)
    with pytest.raises(ValueError):
        ig.prop67_dim(10, 4, -2)
    # a float or a bool is no dimension: no floating point, and True is not 1
    for args in ((10.5, 2, 0), (True, 0, 0), (248, 46.0, 0), (14, 0, False)):
        with pytest.raises(TypeError, match="integer dimensions"):
            ig.prop67_dim(*args)


# random-weight properties -----------------------------------------------------

@pytest.mark.parametrize("label", ["B3", "C3", "F4", "G2", "E6"])
def test_integral_component_counts_on_random_weights(label):
    model = rs.build(label)
    rng = random.Random(hash(label) % (2**32))
    for _ in range(40):
        mu = rs.weight([Fr(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
                        for _ in range(model.ambient_dim)])
        isys = ig.integral_system(model, mu)
        for i, a in enumerate(isys.simple_system):
            for b in isys.simple_system[i + 1:]:
                assert a.dot(b) <= 0
        assert 2 * sum(len(rs.build(lbl).positive_roots)
                       for lbl in isys.cartan_type) == isys.size
