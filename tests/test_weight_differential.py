"""The integer-backed Weight against the Fraction-tuple Weight it replaced.

``tests/epsilon_reference.py`` keeps the old ``Weight`` as ``FractionWeight``
together with the epsilon code that ran on it.  Every comparison here is
exact: equal coordinates as Fractions, equal booleans, words and
coefficients, and equal error messages.  Inputs are every root of each
type and seeded random vectors with denominators in {1, 2, 3, 6}.
"""
import itertools
import math
import random
from fractions import Fraction as Fr

import pytest

from orbitcert import certify as ct
from orbitcert import integral as ig
from orbitcert import rootsys as rs

import epsilon_reference as ref

TYPES = ("A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8")
DENOMINATORS = (1, 2, 3, 6)


def _rational(rng):
    return Fr(rng.randint(-6, 6), rng.choice(DENOMINATORS))


def _raw_vectors(rng, dim, count):
    return [[_rational(rng) for _ in range(dim)] for _ in range(count)]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _assert_same(w, r):
    """An engine Weight equals a FractionWeight, and is in lowest terms."""
    assert isinstance(w, rs.Weight)
    assert w.coords == r.coords
    assert w.den > 0 and math.gcd(w.den, *w.nums) == 1
    assert w.to_strings() == r.to_strings() and str(w) == str(r)


def _pairs(rng, model, extra):
    """(engine, reference) pairs: every root of the model, then random vectors."""
    raw = [list(beta.coords) for beta in model.roots]
    raw += _raw_vectors(rng, model.ambient_dim, extra)
    return [(rs.Weight(v), ref.FractionWeight(v)) for v in raw]


@pytest.mark.parametrize("label", TYPES)
def test_roots_match_fraction_enumeration(label):
    model = rs.build(label)
    simples = [ref.fraction_weight(a) for a in model.simple_roots]
    roots, coeffs = ref.enumerate_positive(simples)
    assert model.pos_coefficients == tuple(coeffs)
    for beta, r in zip(model.positive_roots, roots, strict=True):
        _assert_same(beta, r)
    for beta, r in zip(model.roots[len(roots):], roots, strict=True):
        _assert_same(beta, -r)


@pytest.mark.parametrize("label", TYPES)
def test_arithmetic_matches(label):
    model = rs.build(label)
    rng = random.Random(f"arith-{label}")
    pairs = _pairs(rng, model, 60)
    for w, r in pairs:
        _assert_same(w, r)
        w2, r2 = rng.choice(pairs)
        scalar = rng.choice([_rational(rng), rng.randint(-4, 4), 0])
        _assert_same(w + w2, r + r2)
        _assert_same(w - w2, r - r2)
        _assert_same(-w, -r)
        _assert_same(scalar * w, scalar * r)
        dot = w.dot(w2)
        assert type(dot) is Fr and dot == r.dot(r2)
        assert model.inner(w, w2) == r.dot(r2)
        assert (w == w2) == (r == r2)
        assert w.is_zero() == r.is_zero() and len(w) == len(r)
        # one vector reached by different arithmetic is one Weight
        for same in ((w + w2) - w2, w2 + (w - w2), rs.Weight(w.coords), -(-w),
                     rs.Weight.from_ints([x * 6 for x in w.nums], w.den * 6),
                     rs.Weight.from_strings(w.to_strings())):
            assert same == w and hash(same) == hash(w)
        assert (w - w).is_zero() and w - w == 0 * w2


@pytest.mark.parametrize("label", TYPES)
def test_canonicalize_and_combine_match(label):
    model = rs.build(label)
    rng = random.Random(f"canon-{label}")
    for v in _raw_vectors(rng, model.ambient_dim, 40):
        expected = ref.canonicalize(model, v)
        _assert_same(rs.canonicalize(model, v), expected)
        _assert_same(rs.canonicalize(model, rs.Weight(v)), expected)
        _assert_same(rs.canonicalize(model, rs.canonicalize(model, v)), expected)
    for v in ([1] * (model.ambient_dim + 1), [Fr(1, 2)] * (model.ambient_dim - 1)):
        assert (_outcome(rs.canonicalize, model, v)
                == _outcome(rs.canonicalize, model, rs.Weight(v))
                == _outcome(ref.canonicalize, model, v))
    for _ in range(40):
        ints = [rng.randint(-6, 6) for _ in range(model.rank)]
        den = rng.choice(DENOMINATORS)
        _assert_same(rs.combine(model, ints, den), ref.combine(model, ints, den))
        fracs = [_rational(rng) for _ in range(model.rank)]
        _assert_same(rs.combine(model, fracs), ref.combine(model, fracs))


@pytest.mark.parametrize("label", TYPES)
def test_pairing_matches_including_errors(label):
    model = rs.build(label)
    rng = random.Random(f"pairing-{label}")
    pairs = _pairs(rng, model, 20)
    ref_roots = frozenset(ref.fraction_weight(beta) for beta in model.roots)
    kinds = set()
    for w, r in pairs:
        w2, r2 = rng.choice(pairs)
        outcome = _outcome(rs.pairing, model, w2, w)
        assert outcome == _outcome(ref.pairing, ref_roots, r2, r, model.cartan_type)
        kinds.add(outcome[0])
    assert kinds == {"ok", "error"}


def _levi_subsets(model, rng):
    subsets = [c for size in range(model.rank + 1)
               for c in itertools.combinations(range(model.rank), size)]
    return subsets if model.rank <= 4 else [(), tuple(range(model.rank))] + rng.sample(
        subsets, 10)


def _compare_span(model, mu, pi0):
    got = ct.in_levi_span(model, mu, pi0)
    expected = ref.in_levi_span_fractions(model, ref.fraction_weight(mu), pi0)
    assert got[0] == expected[0]
    if got[0]:
        assert got[1] == expected[1]
    else:
        _assert_same(got[1], expected[1])
    return got[0]


@pytest.mark.parametrize("label", TYPES)
def test_in_levi_span_matches(label):
    model = rs.build(label)
    rng = random.Random(f"span-{label}")
    outcomes = set()
    for pi0 in _levi_subsets(model, rng):
        inside = [_rational(rng) if i in pi0 else 0 for i in range(model.rank)]
        for mu in (rs.combine(model, inside),
                   rs.Weight(_raw_vectors(rng, model.ambient_dim, 1)[0]),
                   rs.combine(model, inside) + _rational(rng) * rng.choice(model.roots)):
            outcomes.add(_compare_span(model, mu, pi0))
    assert outcomes == {True, False}


def _subsystems(model, rng):
    """The simple system, a Levi subset, and integral systems of random weights."""
    out = [model.simple_roots, rs.levi_subsystem(model, _levi_subsets(model, rng)[-1])[1]]
    for v in _raw_vectors(rng, model.ambient_dim, 3):
        out.append(ig.integral_system(model, rs.canonicalize(model, v)).simple_system)
    return [s for s in out if s]


@pytest.mark.parametrize("label", TYPES)
def test_antidominant_rep_and_apply_word_match(label):
    model = rs.build(label)
    rng = random.Random(f"antidominant-{label}")
    minimal = set()
    for simples in _subsystems(model, rng):
        ref_simples = [ref.fraction_weight(a) for a in simples]
        vectors = _raw_vectors(rng, model.ambient_dim, 2)
        vectors.append([0] * model.ambient_dim)
        vectors += [list(rng.choice(model.roots).coords), list(rs.rho(model).coords)]
        for v in vectors:
            mu, ref_mu = rs.canonicalize(model, v), ref.canonicalize(model, v)
            got = ig.antidominant_rep(model, simples, mu)
            word, weight, regular = ref.antidominant_rep(ref_simples, ref_mu)
            assert got.word == word and got.minimal == regular
            _assert_same(got.weight, weight)
            minimal.add(regular)
            _assert_same(ig.apply_word(simples, got.word, mu),
                         ref.apply_word(ref_simples, word, ref_mu))
            random_word = [rng.randrange(len(simples)) for _ in range(rng.randint(0, 12))]
            _assert_same(ig.apply_word(simples, random_word, mu),
                         ref.apply_word(ref_simples, random_word, ref_mu))
    assert minimal == {True, False}
