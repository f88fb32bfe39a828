"""Differential test: the (C) verdict of ``certify`` and dim z read as
dim g - ``orbit_dim_from_h`` against the reference certificate's
quantities (tests/epsilon_reference.py).

``certify`` runs the integer (C) kernel; the reference builds
lambda' - delta' in epsilon coordinates and solves it over the Levi with
the dual basis of the simple roots.  Both sides read the input with their
own ``CertificateInput``, so an h that input rejects gives the same error
text on both.
Seeded cases on every default type put lambda' on the Levi span, off it, on
a random point of the root span and at a random epsilon vector, with h the
regular characteristic of the Levi, a random integral h or h / 2.  On the
E types lambda' also gets a multiple of the all-ones vector, so its
coordinates do not sum to zero; on A4 and G2, where the all-ones vector is
off the root span, the same shift puts lambda' off the root span.
``orbit_dim_from_h`` reads dim z off three counts of the root values; the
reference sums the whole grading.  Its cases include h that are not
characteristics (an odd orbit dimension) and h that are not integral.
"""
import random
from fractions import Fraction as Fr
from functools import cache

import pytest

import epsilon_reference as ref
from conftest import TYPES, rational
from orbitcert import certify as ct
from orbitcert import orbits as orb
from orbitcert import rootsys as rs

CASES_PER_TYPE = 300
LAMBDA_KINDS = ("on", "off", "root_span", "epsilon", "ones")
H_KINDS = ("regular", "regular", "integral", "half")


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
            lam = lam + rational(rng) * model.simple_roots[i]
        outside = [i for i in range(model.rank) if i not in levi]
        if kind == "off" and outside:
            lam = lam + rational(rng, nonzero=True) * model.simple_roots[rng.choice(outside)]
        elif kind == "root_span":
            lam = rs.combine(model, [rational(rng) for _ in range(model.rank)])
        elif kind == "epsilon":
            lam = rs.weight([rational(rng) for _ in range(model.ambient_dim)])
        elif kind == "ones":
            lam = lam + rational(rng, nonzero=True) * ones
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


def _engine_C(model, levi, h, lam):
    return ct.certify(ct.CertificateInput(model, levi, h, lam)).verdict_C


def _reference_C(model, levi, h, lam):
    return ref.certify(ref.CertificateInput(model, levi, h, lam)).verdict_C


@pytest.mark.parametrize("label", TYPES)
def test_check_C_matches_reference(label):
    model = rs.build(label)
    seen = set()
    for levi, h, lam, kind, h_kind in cases(label):
        got = _check_outcome(_engine_C, model, levi, h, lam)
        assert got == _check_outcome(_reference_C, model, levi, h, lam), (levi, h, lam)
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
def test_centralizer_dim_matches_reference(label):
    """dim g - ``orbit_dim_from_h`` is the reference dim z where h is a
    characteristic; not every integral h is one, and where dim O is odd
    both raise the same error."""
    model = rs.build(label)
    rng = random.Random(f"centralizer-differential-{label}")
    odd = 0
    for _ in range(60):
        h = _integral_h(model, rng)
        got = _outcome(orb.orbit_dim_from_h, model, h)
        assert got == _outcome(ref.orbit_dim_from_h, model, h), h
        dim_z = ref.centralizer_dim_from_h(model, h)
        if (model.dim - dim_z) % 2:
            odd += 1
            assert got.endswith("is odd: h is not the characteristic of a nilpotent"), h
        else:
            assert model.dim - got == dim_z, h
    assert odd
    h = Fr(1, 2) * rs.fundamental_coweights(model)[0]
    message = _outcome(orb.orbit_dim_from_h, model, h)
    assert message == _outcome(ref.orbit_dim_from_h, model, h)
    assert message.startswith("h is not integral on root ") and ": <a,h> = " in message
