import random
from fractions import Fraction as Fr

import pytest

from orbitcert import certify as ct
from orbitcert import integral as ig
from orbitcert import linalg
from orbitcert import rootsys as rs

import conftest


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
