import collections
import itertools
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcert import certify as ct
from orbitcert import integral as ig
from orbitcert import orbits as ob
from orbitcert import rootsys as rs

import conftest

LEVI = conftest.LEVI_A5A1


# theta -------------------------------------------------------------------

def test_theta_full_levi_is_zero(e8):
    assert ct.theta_for_levi(e8, range(8)).is_zero()


def test_theta_empty_levi(e8):
    theta = ct.theta_for_levi(e8, ())
    for alpha in e8.simple_roots:
        assert alpha.dot(theta) == 1


def test_theta_flagship(e8):
    theta = ct.theta_for_levi(e8, LEVI)
    cw = rs.fundamental_coweights(e8)
    assert theta == cw[5] + cw[7]
    assert sum(1 for b in e8.positive_roots if b.dot(theta) == 0) == 16


@pytest.mark.parametrize("pi0", [(), (0,), (1, 3), (0, 2, 4, 6), tuple(range(8))])
def test_theta_zero_set_is_levi(e8, pi0):
    theta = ct.theta_for_levi(e8, pi0)
    levi_pos, _ = rs.levi_subsystem(e8, pi0)
    zero_set = {b for b in e8.positive_roots if b.dot(theta) == 0}
    assert zero_set == set(levi_pos)
    assert all(b.dot(theta) > 0 for b in e8.positive_roots if b not in zero_set)


# h_regular ----------------------------------------------------------------

def test_h_regular_flagship(e8, flagship_h):
    assert ct.h_regular(e8, LEVI) == flagship_h


def test_h_regular_trivial_cases(e8):
    assert ct.h_regular(e8, ()).is_zero()
    a1 = rs.build("A1")
    assert ct.h_regular(a1, (0,)) == a1.coroot(a1.simple_roots[0])


@pytest.mark.parametrize("pi0", [(0,), (0, 1), LEVI])
def test_h_regular_pairs_two_on_levi_simples(e8, pi0):
    h = ct.h_regular(e8, pi0)
    for i in pi0:
        assert e8.simple_roots[i].dot(h) == 2
    for beta in e8.positive_roots:
        assert beta.dot(h).denominator == 1


# delta and delta' ----------------------------------------------------------

def test_delta_full_levi_is_zero(e8):
    h = ct.h_regular(e8, range(8))
    assert ct.delta(e8, range(8), h).is_zero()


def test_delta_zero_h(e8):
    zero = rs.canonicalize(e8, (0,) * 9)
    assert ct.delta(e8, LEVI, zero).is_zero()


def test_delta_prime_flagship(e8, flagship_h, flagship_delta_prime):
    assert ct.delta_prime(e8, flagship_h) == flagship_delta_prime


def test_delta_prime_zero_h_gives_rho(e8):
    zero = rs.canonicalize(e8, (0,) * 9)
    assert ct.delta_prime(e8, zero) == rs.rho(e8)


def test_delta_prime_regular_h_gives_zero():
    b3 = rs.build("B3")
    h = ct.h_regular(b3, range(3))
    assert all(b.dot(h) >= 2 for b in b3.positive_roots)
    assert ct.delta_prime(b3, h).is_zero()


def test_delta_congruence_flagship(e8, flagship_h, flagship_delta_prime):
    d = ct.delta(e8, LEVI, flagship_h)
    ok, coeffs = ct.in_levi_span(e8, flagship_delta_prime - d - rs.rho(e8), LEVI)
    assert ok and len(coeffs) == 6


def test_condition_c_original_form(e8, flagship_h, flagship_lambda_prime):
    # lambda - delta in the Levi span, without routing through delta'
    lam = flagship_lambda_prime - rs.rho(e8)
    ok, _ = ct.in_levi_span(e8, lam - ct.delta(e8, LEVI, flagship_h), LEVI)
    assert ok


@pytest.mark.parametrize("label", ["G2", "F4"])
def test_delta_congruence_exhaustive_small(label):
    model = rs.build(label)
    r0 = rs.rho(model)
    for size in range(model.rank + 1):
        for pi0 in itertools.combinations(range(model.rank), size):
            h = ct.h_regular(model, pi0)
            resid = ct.delta_prime(model, h) - ct.delta(model, pi0, h) - r0
            ok, _ = ct.in_levi_span(model, resid, pi0)
            assert ok, pi0


@pytest.mark.parametrize("label,pi0", [("G2", (0,)), ("F4", (1, 3)), ("E6", (0, 2, 3))])
def test_sl2_weight_sum_identity(label, pi0):
    model = rs.build(label)
    h = ct.h_regular(model, pi0)
    theta = ct.theta_for_levi(model, pi0)
    sums = {}
    for b in model.roots:
        key = (b.dot(theta), b.dot(h))
        sums[key] = sums[key] + b if key in sums else b
    zero = ct._zero(model)
    for (k, l), s in sums.items():
        if l <= 0:
            continue
        ok, _ = ct.in_levi_span(model, s - sums.get((k, -l), zero), pi0)
        assert ok, (k, l)


@pytest.mark.parametrize("label,stride", [("G2", 1), ("F4", 1), ("E6", 5)])
def test_congruence_sweep_buckets(label, stride):
    """The (k, l) keys with l > 0 that ``congruence_sweep`` yields for a Levi
    subset are the pairs (<beta, theta>, <beta, h>) with <beta, h> > 0 over
    all roots, read off epsilon dot products: every subset of G2 and F4, and
    every ``stride``-th subset of E6 in sweep order.  Those dot products are
    integers, so they are ints."""
    model = rs.build(label)
    swept = {}
    for pi0, key, _ in ct.congruence_sweep(model):
        keys = swept.setdefault(pi0, set())
        if key is not None:
            keys.add(key)
    assert len(swept) == 2 ** model.rank
    for pi0 in list(swept)[::stride]:
        h = ct.h_regular(model, pi0)
        theta = ct.theta_for_levi(model, pi0)
        pairs = {(beta.dot(theta), beta.dot(h)) for beta in model.roots}
        assert all(type(k) is int and type(l) is int for k, l in pairs)
        assert swept[pi0] == {(k, l) for k, l in pairs if l > 0}, pi0


# span membership ------------------------------------------------------------

def test_in_levi_span_zero(e8):
    ok, coeffs = ct.in_levi_span(e8, rs.canonicalize(e8, (0,) * 9), LEVI)
    assert ok and all(c == 0 for c in coeffs)


def test_in_levi_span_flagship(e8, flagship_lambda_prime, flagship_h):
    mu = flagship_lambda_prime - ct.delta_prime(e8, flagship_h)
    ok, coeffs = ct.in_levi_span(e8, mu, LEVI)
    assert ok
    recon = ct._zero(e8)
    for c, i in zip(coeffs, LEVI):
        recon = recon + c * e8.simple_roots[i]
    assert recon == rs.canonicalize(e8, mu.coords)


def test_in_levi_span_rejects_off_span(e8):
    pi6 = rs.fundamental_weights(e8)[5]
    ok, resid = ct.in_levi_span(e8, pi6, LEVI)
    assert not ok and not resid.is_zero()


def test_in_levi_span_coset_invariance(e8, flagship_lambda_prime, flagship_h):
    shift = Fr(3, 7) * e8.simple_roots[0] - 2 * e8.simple_roots[4]
    mu = flagship_lambda_prime - ct.delta_prime(e8, flagship_h)
    ok1, _ = ct.in_levi_span(e8, mu, LEVI)
    ok2, _ = ct.in_levi_span(e8, mu + shift, LEVI)
    assert ok1 and ok2
    off = mu + rs.fundamental_weights(e8)[7]
    ok3, _ = ct.in_levi_span(e8, off, LEVI)
    assert not ok3


# the four checks -------------------------------------------------------------

def test_check_A_flagship(e8, flagship_lambda_prime):
    res = ct.check_A(e8, LEVI, flagship_lambda_prime)
    assert res.status == ct.PASS
    assert rs.pairing(e8, flagship_lambda_prime, e8.simple_roots[0]) == Fr(-1, 6)
    assert rs.pairing(e8, flagship_lambda_prime, e8.simple_roots[6]) == Fr(1, 3)


def test_check_A_fails_at_rho(e8):
    res = ct.check_A(e8, LEVI, rs.rho(e8))
    assert res.status == ct.FAIL
    assert res.witness in set(e8.positive_roots)


def test_check_A_vacuous_on_empty_levi(e8):
    assert ct.check_A(e8, (), rs.rho(e8)).status == ct.PASS


def test_check_A_undecided_without_principal(e8, flagship_lambda_prime):
    res = ct.check_A(e8, LEVI, flagship_lambda_prime, principal_in_levi=False)
    assert res.status == ct.UNDECIDED


def test_check_B_flagship(e8, flagship_lambda_prime, flagship_h):
    res = ct.check_B(e8, flagship_lambda_prime, flagship_h)
    assert res.status == ct.PASS


def test_check_B_zero_orbit(e8):
    zero = rs.canonicalize(e8, (0,) * 9)
    assert ct.check_B(e8, rs.rho(e8), zero).status == ct.PASS


def test_check_B_dimension_mismatch(e8, flagship_h):
    res = ct.check_B(e8, rs.rho(e8), flagship_h)
    assert res.status == ct.FAIL
    assert res.witness == (0, 202)


def test_check_B_undecided(e8, flagship_h):
    res = ct.check_B(e8, -rs.rho(e8), flagship_h)
    assert res.status == ct.UNDECIDED


def test_check_C_flagship(e8, flagship_lambda_prime, flagship_h):
    assert ct.check_C(e8, LEVI, flagship_h, flagship_lambda_prime).status == ct.PASS


def test_check_C_delta_prime_itself(e8, flagship_h):
    assert ct.check_C(e8, LEVI, flagship_h, ct.delta_prime(e8, flagship_h)).status == ct.PASS


def test_check_C_off_span_shift(e8, flagship_h):
    lam = ct.delta_prime(e8, flagship_h) + rs.fundamental_weights(e8)[5]
    res = ct.check_C(e8, LEVI, flagship_h, lam)
    assert res.status == ct.FAIL and isinstance(res.witness, rs.Weight)


def test_check_D():
    assert ct.check_D(True).status == ct.PASS
    assert ct.check_D(False).status == ct.UNDECIDED


# the full certificate ---------------------------------------------------------

def test_certify_flagship(e8, flagship_lambda_prime, flagship_h):
    inp = ct.CertificateInput(e8, LEVI, flagship_h, flagship_lambda_prime,
                              principal_in_levi=True)
    report = ct.certify(inp)
    assert report.overall == ct.PASS
    assert report.dim_g == 248 and report.dim_orbit == 202 and report.cor68 == 202
    assert report.verdict_A.status == ct.PASS
    assert report.verdict_B.status == ct.PASS
    assert report.verdict_C.status == ct.PASS
    assert report.verdict_D.status == ct.PASS


def test_certify_rho_fails_A_and_B(e8, flagship_h):
    inp = ct.CertificateInput(e8, LEVI, flagship_h, rs.rho(e8), principal_in_levi=True)
    report = ct.certify(inp)
    assert report.overall == ct.FAIL
    assert report.verdict_A.status == ct.FAIL
    assert report.verdict_B.status == ct.FAIL


def test_certify_principal_nilpotent_case():
    a2 = rs.build("A2")
    h = ct.h_regular(a2, range(2))
    inp = ct.CertificateInput(a2, tuple(range(2)), h, -rs.rho(a2),
                              principal_in_levi=True)
    report = ct.certify(inp)
    assert report.verdict_B.status in (ct.UNDECIDED, ct.FAIL)


def test_certify_is_deterministic(e8, flagship_lambda_prime, flagship_h):
    inp = ct.CertificateInput(e8, LEVI, flagship_h, flagship_lambda_prime,
                              principal_in_levi=True)
    assert ct.certify(inp) == ct.certify(inp)


def test_certificate_input_validation(e8, flagship_lambda_prime, flagship_h):
    with pytest.raises(ValueError):
        ct.CertificateInput(e8, (0, 99), flagship_h, flagship_lambda_prime)
    with pytest.raises(ValueError):
        # h off the Levi coroot span
        ct.CertificateInput(e8, (0,), flagship_h, flagship_lambda_prime)
    with pytest.raises(ValueError):
        # non-integral h
        ct.CertificateInput(e8, LEVI, Fr(1, 2) * flagship_h, flagship_lambda_prime)
    with pytest.raises(ValueError):
        # principal flag demands <alpha, h> = 2 on the Levi
        ct.CertificateInput(e8, LEVI, 2 * flagship_h, flagship_lambda_prime,
                            principal_in_levi=True)


def test_report_json_shape(e8, flagship_lambda_prime, flagship_h):
    inp = ct.CertificateInput(e8, LEVI, flagship_h, flagship_lambda_prime,
                              principal_in_levi=True)
    data = ct.certify(inp).to_json_dict()
    assert data["overall"] == "pass"
    assert data["cor68"] == "202"
    assert data["delta_prime"] == ["1", "1/2", "3/2", "1/2", "1", "0", "1/2",
                                   "-1/2", "-9/2"]
    assert data["unverified"]


def test_certify_computes_each_quantity_once(monkeypatch, e8, flagship_lambda_prime,
                                             flagship_h):
    """One certificate, its input included, with and without --principal,
    reads the Dynkin labels of lambda' and the simple values of h once, and
    makes one pass over the positive roots for each: the coroot values feed
    (A) and the integral system, the root values feed dim O and delta'."""
    calls = collections.Counter()
    for name in ("dynkin_labels", "h_values", "coroot_values", "root_values"):
        original = getattr(rs, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        for mod in (rs, ct, ig, ob):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    for principal, overall in ((True, ct.PASS), (False, ct.UNDECIDED)):
        calls.clear()
        inp = ct.CertificateInput(e8, LEVI, flagship_h, flagship_lambda_prime,
                                  principal_in_levi=principal)
        assert ct.certify(inp).overall == overall
        assert calls == {"dynkin_labels": 1, "h_values": 1, "coroot_values": 1,
                         "root_values": 1}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**6 - 1))
def test_check_C_pass_set_is_coset(mask):
    e6 = rs.build("E6")
    pi0 = tuple(i for i in range(6) if mask & (1 << i))
    h = ct.h_regular(e6, pi0)
    dp = ct.delta_prime(e6, h)
    assert ct.check_C(e6, pi0, h, dp).status == ct.PASS
    if pi0:
        shifted = dp + Fr(5, 3) * e6.simple_roots[pi0[0]]
        assert ct.check_C(e6, pi0, h, shifted).status == ct.PASS
