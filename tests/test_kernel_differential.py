"""The integer simple-root kernel against the epsilon reference it replaced.

Every comparison is exact: equal ``Weight``s, equal root order and
coefficient vectors, equal Cartan labels, and equal error messages where
the reference raises.
"""
import itertools
import random
from fractions import Fraction as Fr

import pytest

from orbitcert import certify as ct
from orbitcert import integral as ig
from orbitcert import rootsys as rs

import epsilon_reference as ref
from conftest import TYPES

DENOMINATORS = (1, 2, 3, 6)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _levi_subsets(model, rng):
    """Every subset up to rank 6, a seeded sample of 24 above."""
    subsets = [c for size in range(model.rank + 1)
               for c in itertools.combinations(range(model.rank), size)]
    if model.rank <= 6:
        return subsets
    return [(), tuple(range(model.rank))] + rng.sample(subsets, 24)


def _random_vector(rng, model):
    return rs.weight([Fr(rng.randint(-6, 6), rng.choice(DENOMINATORS))
                      for _ in range(model.ambient_dim)])


def _random_combination(rng, model, basis, denominators):
    total = ref._zero(model)
    for b in basis:
        total = total + Fr(rng.randint(-4, 4), rng.choice(denominators)) * b
    return total


def _random_weights(rng, model, count):
    """Random epsilon vectors, and weights with random Dynkin labels."""
    return ([_random_vector(rng, model) for _ in range(count)]
            + [_random_combination(rng, model, ref.fundamental_weights(model),
                                   DENOMINATORS)
               for _ in range(count)])


def _random_hs(rng, model, count):
    """Random epsilon vectors (mostly non-integral), and integral elements."""
    return ([_random_vector(rng, model) for _ in range(count)]
            + [_random_combination(rng, model, ref.fundamental_coweights(model), (1,))
               for _ in range(count)])


@pytest.mark.parametrize("label", TYPES)
def test_build_matches_epsilon_enumeration(label):
    model = rs.build(label)
    roots, coeffs = ref.enumerate_positive(list(model.simple_roots))
    assert model.positive_roots == tuple(roots)
    assert model.pos_coefficients == tuple(coeffs)
    simples = model.simple_roots
    for i, a in enumerate(simples):
        for j, b in enumerate(simples):
            assert model.cartan[i][j] == Fr(2 * a.dot(b), b.dot(b))
            assert Fr(model.gram[i][j], model.gram_den) == a.dot(b)
    for beta, cv in zip(model.positive_roots, model.coroot_coefficients):
        coroot = sum((c * ref.coroot(a) for c, a in zip(cv, simples)), ref._zero(model))
        assert coroot == ref.coroot(beta)
    assert rs.rho(model) == ref.rho(model)
    assert rs.fundamental_coweights(model) == ref.fundamental_coweights(model)


@pytest.mark.parametrize("label", TYPES)
def test_levi_quantities_match(label):
    model = rs.build(label)
    rng = random.Random(f"levi-{label}")
    r0 = ref.rho(model)
    for pi0 in _levi_subsets(model, rng):
        pos = ref.levi_positive(model, pi0)
        simp = [model.simple_roots[i] for i in pi0]
        assert tuple(ref.enumerate_positive(simp)[0]) == pos
        assert ct.theta_for_levi(model, pi0) == ref.theta_for_levi(model, pi0)
        h = ct.h_regular(model, pi0)
        assert h == ref.h_regular(model, pi0)
        assert ct.graded_dims(model, h) == ref.graded_dims(model, h)
        dprime = ct.delta_prime(model, h)
        assert dprime == ref.delta_prime(model, h)
        shift = ct.delta(model, pi0, h)
        assert shift == ref.delta(model, pi0, h)
        for mu in (dprime - shift - r0, _random_vector(rng, model)):
            assert ct.in_levi_span(model, mu, pi0) == ref.in_levi_span(model, mu, pi0)


@pytest.mark.parametrize("label", TYPES)
def test_integral_system_matches(label):
    model = rs.build(label)
    rng = random.Random(f"integral-{label}")
    r0 = ref.rho(model)
    # (lambda', cor68): rho/31 is integral on no coroot (coroot heights stay
    # below 31), and rho - omega_i is 0 on alpha_i^vee
    known = [(r0, 0), (-r0, None), (Fr(1, 31) * r0, 2 * len(model.positive_roots))]
    known += [(r0 - w, None) for w in ref.fundamental_weights(model)]
    outcomes = set()
    for lam in [lam for lam, _ in known] + _random_weights(rng, model, 15):
        got = ig.integral_system(model, lam)
        assert got == ref.integral_system(model, lam)
        expected_cor68 = (model.dim - got.size - model.rank
                          if all(rs.pairing(model, lam, b) > 0 for b in got.simple_system)
                          else None)
        assert ig.cor68_dim(model, lam) == expected_cor68
        outcomes.add(type(expected_cor68))
    assert [ig.cor68_dim(model, lam) for lam, _ in known] == [cor68 for _, cor68 in known]
    assert outcomes == {int, type(None)}


@pytest.mark.parametrize("label", TYPES)
def test_random_h_matches_including_errors(label):
    model = rs.build(label)
    rng = random.Random(f"h-{label}")
    subsets = _levi_subsets(model, rng)
    kinds = set()
    for h in _random_hs(rng, model, 15):
        pi0 = rng.choice(subsets)
        outcome = _outcome(ct.graded_dims, model, h)
        kinds.add(outcome[0])
        assert outcome == _outcome(ref.graded_dims, model, h)
        assert _outcome(ct.delta_prime, model, h) == _outcome(ref.delta_prime, model, h)
        assert (_outcome(ct.delta, model, pi0, h)
                == _outcome(ref.delta, model, pi0, h))
        assert ct.in_levi_span(model, h, pi0) == ref.in_levi_span(model, h, pi0)
    assert kinds == {"ok", "error"}
