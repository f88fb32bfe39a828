"""Differential test: ``check_C`` and ``centralizer_dim_from_h`` against the
reference certificate's quantities (tests/epsilon_reference.py).

``check_C`` runs the integer (C) kernel that ``certify`` runs; the reference
builds lambda' - delta' in epsilon coordinates and solves it over the Levi
with the dual basis of the simple roots.
Seeded cases on every default type put lambda' on the Levi span, off it, on
a random point of the root span and at a random epsilon vector, with h the
regular characteristic of the Levi, a random integral h or h / 2.  On the
E types lambda' also gets a multiple of the all-ones vector, so its
coordinates do not sum to zero; on A4 and G2, where the all-ones vector is
off the root span, the same shift puts lambda' off the root span.
``centralizer_dim_from_h`` reads dim z off three counts of the root values;
the reference sums the whole grading.  Its cases include h that are not
characteristics (an odd orbit dimension) and h that are not integral.
"""
import random
from fractions import Fraction as Fr
from functools import cache

import pytest

import epsilon_reference as ref
from orbitcert import certify as ct
from orbitcert import orbits as orb
from orbitcert import rootsys as rs

TYPES = ("A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8")
CASES_PER_TYPE = 300
LAMBDA_KINDS = ("on", "off", "root_span", "epsilon", "ones")
H_KINDS = ("regular", "regular", "integral", "half")


def _rational(rng, nonzero=False):
    while True:
        q = Fr(rng.randint(-6, 6), rng.randint(1, 6))
        if q or not nonzero:
            return q


def _integral_h(model, rng):
    """A random h integral on every root: an integer combination of the
    fundamental coweights."""
    h = rs.weight([0] * model.ambient_dim)
    for w in rs.fundamental_coweights(model):
        h = h + rng.randint(-2, 2) * w
    return h


@cache
def cases(label):
    """(levi, h, lambda', lambda kind, h kind) for one type, seeded by its label."""
    model = rs.build(label)
    rng = random.Random(f"quantity-differential-{label}")
    ones = rs.weight([1] * model.ambient_dim)
    out = []
    for n in range(CASES_PER_TYPE):
        kind = LAMBDA_KINDS[n % len(LAMBDA_KINDS)]
        levi = tuple(sorted(rng.sample(range(model.rank), rng.randint(0, model.rank))))
        h = ct.h_regular(model, levi)
        h_kind = rng.choice(H_KINDS)
        if h_kind == "integral":
            h = _integral_h(model, rng)
        lam = ref.delta_prime(model, h)
        for i in levi:
            lam = lam + _rational(rng) * model.simple_roots[i]
        outside = [i for i in range(model.rank) if i not in levi]
        if kind == "off" and outside:
            lam = lam + _rational(rng, nonzero=True) * model.simple_roots[rng.choice(outside)]
        elif kind == "root_span":
            lam = rs.combine(model, [_rational(rng) for _ in range(model.rank)])
        elif kind == "epsilon":
            lam = rs.weight([_rational(rng) for _ in range(model.ambient_dim)])
        elif kind == "ones":
            lam = lam + _rational(rng, nonzero=True) * ones
        if h_kind == "half":
            h = Fr(1, 2) * h
        out.append((levi, h, lam, kind, h_kind))
    return out


def _outcome(fn, *args):
    """fn's value, or the text of its ValueError."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _check_outcome(fn, *args):
    """A CheckResult as its JSON encoding, or the text of its ValueError."""
    res = _outcome(fn, *args)
    if isinstance(res, str):
        return res
    witness = res.witness
    if isinstance(witness, rs.Weight):
        witness = witness.to_strings()
    elif witness is not None:
        witness = [str(x) for x in witness]
    return res.status, res.detail, witness


def _reference_check_C(model, levi, h, lam):
    return ref.verdict_C(model, levi, lam - ref.delta_prime(model, h))


@pytest.mark.parametrize("label", TYPES)
def test_check_C_matches_reference(label):
    model = rs.build(label)
    seen = set()
    for levi, h, lam, kind, h_kind in cases(label):
        got = _check_outcome(ct.check_C, model, levi, h, lam)
        assert got == _check_outcome(_reference_check_C, model, levi, h, lam), (levi, h, lam)
        seen.add(got if isinstance(got, str) else (kind, h_kind, got[0]))
    statuses = {s[-1] for s in seen if isinstance(s, tuple)}
    assert statuses == {ct.PASS, ct.FAIL}
    assert ("on", "regular", ct.FAIL) not in seen and ("on", "integral", ct.FAIL) not in seen
    assert any(isinstance(s, str) and s.startswith("h is not integral on root ") for s in seen)
    ones = {s[-1] for s in seen if isinstance(s, tuple) and s[0] == "ones" and s[1] != "half"}
    if model.sum_zero:
        # a lambda' whose coordinates do not sum to zero passes as its
        # canonical representative does
        assert ones == {ct.PASS}
    elif label in ("A4", "G2"):
        assert ones == {ct.FAIL}


@pytest.mark.parametrize("label", TYPES)
def test_check_C_is_the_certify_verdict(label):
    """``check_C`` and ``certify`` give the same (C) on inputs ``certify``
    accepts."""
    model = rs.build(label)
    for levi, h, lam, _, _ in cases(label):
        try:
            report = ct.certify(ct.CertificateInput(model, levi, h, lam))
        except ValueError:
            continue
        assert report.verdict_C == ct.check_C(model, levi, h, lam)


@pytest.mark.parametrize("label", TYPES)
def test_centralizer_dim_matches_reference(label):
    model = rs.build(label)
    rng = random.Random(f"centralizer-differential-{label}")
    odd = 0
    for _ in range(60):
        h = _integral_h(model, rng)
        got = orb.centralizer_dim_from_h(model, h)
        assert got == ref.centralizer_dim_from_h(model, h), h
        # not every integral h is a characteristic: dim O is then odd, and
        # orbit_dim_from_h raises where centralizer_dim_from_h does not
        if (model.dim - got) % 2:
            odd += 1
            with pytest.raises(ValueError, match="is odd"):
                orb.orbit_dim_from_h(model, h)
    assert odd
    h = Fr(1, 2) * rs.fundamental_coweights(model)[0]
    message = _outcome(orb.centralizer_dim_from_h, model, h)
    assert message == _outcome(ref.centralizer_dim_from_h, model, h)
    assert message.startswith("h is not integral on root ") and ": <a,h> = " in message
