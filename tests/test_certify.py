import collections
import contextlib
import io
import itertools
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcert import certify as ct
from orbitcert import cli
from orbitcert import integral as ig
from orbitcert import rootsys as rs

import conftest
import epsilon_reference

LEVI = conftest.LEVI_A5A1


# theta -------------------------------------------------------------------

def test_theta_full_levi_is_zero(e8):
    assert not any(ct.theta_for_levi(e8, range(8)).nums)


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
    levi_pos = epsilon_reference.levi_positive(e8, pi0)
    zero_set = {b for b in e8.positive_roots if b.dot(theta) == 0}
    assert zero_set == set(levi_pos)
    assert all(b.dot(theta) > 0 for b in e8.positive_roots if b not in zero_set)


# h_regular ----------------------------------------------------------------

def test_h_regular_flagship(e8, flagship_h):
    assert ct.h_regular(e8, LEVI) == flagship_h


def test_h_regular_trivial_cases(e8):
    assert not any(ct.h_regular(e8, ()).nums)
    a1 = rs.build("A1")
    a = a1.simple_roots[0]
    assert ct.h_regular(a1, (0,)) == Fr(2, a.dot(a)) * a


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
    assert not any(ct.delta(e8, range(8), h).nums)


@pytest.mark.parametrize("label", ["A2", "E8"])
def test_delta_full_levi_checks_h(label):
    """With Pi_0 every simple root there is no theta-negative root, but h is
    still checked: delta raises as delta' does, naming a positive root."""
    model = rs.build(label)
    h = Fr(1, 3) * ct.h_regular(model, (0,))
    messages = []
    for fn, args in ((ct.delta, (model, range(model.rank), h)), (ct.delta_prime, (model, h))):
        with pytest.raises(ValueError, match="h is not integral on root") as err:
            fn(*args)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_delta_zero_h(e8):
    zero = rs.canonicalize(e8, (0,) * 9)
    assert not any(ct.delta(e8, LEVI, zero).nums)


def test_delta_prime_flagship(e8, flagship_h, flagship_delta_prime):
    assert ct.delta_prime(e8, flagship_h) == flagship_delta_prime


def test_delta_prime_zero_h_gives_rho(e8):
    zero = rs.canonicalize(e8, (0,) * 9)
    assert ct.delta_prime(e8, zero) == rs.rho(e8)


def test_delta_prime_regular_h_gives_zero():
    b3 = rs.build("B3")
    h = ct.h_regular(b3, range(3))
    assert all(b.dot(h) >= 2 for b in b3.positive_roots)
    assert not any(ct.delta_prime(b3, h).nums)


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
    zero = rs.Weight.from_ints([0] * model.ambient_dim)
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
    recon = rs.Weight.from_ints([0] * e8.ambient_dim)
    for c, i in zip(coeffs, LEVI):
        recon = recon + c * e8.simple_roots[i]
    assert recon == rs.canonicalize(e8, mu.coords)


def test_in_levi_span_rejects_off_span(e8):
    pi6 = epsilon_reference.fundamental_weights(e8)[5]
    ok, resid = ct.in_levi_span(e8, pi6, LEVI)
    assert not ok and any(resid.nums)


def test_in_levi_span_coset_invariance(e8, flagship_lambda_prime, flagship_h):
    shift = Fr(3, 7) * e8.simple_roots[0] - 2 * e8.simple_roots[4]
    mu = flagship_lambda_prime - ct.delta_prime(e8, flagship_h)
    ok1, _ = ct.in_levi_span(e8, mu, LEVI)
    ok2, _ = ct.in_levi_span(e8, mu + shift, LEVI)
    assert ok1 and ok2
    off = mu + epsilon_reference.fundamental_weights(e8)[7]
    ok3, _ = ct.in_levi_span(e8, off, LEVI)
    assert not ok3


# the four checks -------------------------------------------------------------

def _report(model, levi, h, lambda_prime, principal=False):
    """The certificate, whose verdicts are the one (A)-(D) path."""
    return ct.certify(ct.CertificateInput(model, levi, h, lambda_prime, principal))


def test_check_A_flagship(e8, flagship_lambda_prime):
    res = _report(e8, LEVI, None, flagship_lambda_prime, True).verdict_A
    assert res.status == ct.PASS
    assert rs.pairing(e8, flagship_lambda_prime, e8.simple_roots[0]) == Fr(-1, 6)
    assert rs.pairing(e8, flagship_lambda_prime, e8.simple_roots[6]) == Fr(1, 3)


def test_check_A_fails_at_rho(e8):
    res = _report(e8, LEVI, None, rs.rho(e8), True).verdict_A
    assert res.status == ct.FAIL
    assert res.witness in set(e8.positive_roots)


def test_check_A_vacuous_on_empty_levi(e8):
    assert _report(e8, (), None, rs.rho(e8), True).verdict_A.status == ct.PASS


def test_check_A_undecided_without_principal(e8, flagship_lambda_prime):
    res = _report(e8, LEVI, None, flagship_lambda_prime).verdict_A
    assert res.status == ct.UNDECIDED


@pytest.mark.parametrize("principal", [True, False])
def test_check_A_validates_input_in_both_principal_states(e8, principal):
    """A bad Pi_0 or a lambda' of the wrong length raises, also where the
    verdict of (A) would be undecided."""
    with pytest.raises(ValueError, match=r"^Pi_0 must be a subset of 0\.\.7$"):
        ct.CertificateInput(e8, (99,), None, rs.rho(e8), principal)
    with pytest.raises(ValueError, match="^expected 9 coordinates, got 2$"):
        ct.CertificateInput(e8, (0,), None, rs.Weight((1, 2)), principal)


def test_check_B_flagship(e8, flagship_lambda_prime, flagship_h):
    res = _report(e8, LEVI, flagship_h, flagship_lambda_prime).verdict_B
    assert res.status == ct.PASS


def test_check_B_zero_orbit(e8):
    zero = rs.canonicalize(e8, (0,) * 9)
    assert _report(e8, (), zero, rs.rho(e8)).verdict_B.status == ct.PASS


def test_check_B_dimension_mismatch(e8, flagship_h):
    res = _report(e8, LEVI, flagship_h, rs.rho(e8)).verdict_B
    assert res.status == ct.FAIL
    assert res.witness == (0, 202)


def test_check_B_undecided(e8, flagship_h):
    res = _report(e8, LEVI, flagship_h, -rs.rho(e8)).verdict_B
    assert res.status == ct.UNDECIDED
    assert "prop67_dim" in res.detail


def test_check_C_flagship(e8, flagship_lambda_prime, flagship_h):
    assert _report(e8, LEVI, flagship_h, flagship_lambda_prime).verdict_C.status == ct.PASS


def test_check_C_delta_prime_itself(e8, flagship_h):
    lam = ct.delta_prime(e8, flagship_h)
    assert _report(e8, LEVI, flagship_h, lam).verdict_C.status == ct.PASS


def test_check_C_off_span_shift(e8, flagship_h):
    lam = ct.delta_prime(e8, flagship_h) + epsilon_reference.fundamental_weights(e8)[5]
    res = _report(e8, LEVI, flagship_h, lam).verdict_C
    assert res.status == ct.FAIL and not res and isinstance(res.witness, rs.Weight)


def test_check_D(e8):
    """(D) is vacuous for e principal in the Levi, else undecided; a
    CheckResult is true exactly when it passes."""
    principal = _report(e8, LEVI, None, rs.rho(e8), True).verdict_D
    other = _report(e8, LEVI, None, rs.rho(e8)).verdict_D
    assert principal.status == ct.PASS and principal
    assert other.status == ct.UNDECIDED and not other


@pytest.mark.parametrize("flag", ["no", "yes", 1, 0, None])
def test_principal_flag_must_be_a_bool(flag):
    """A truthy string such as "no" once passed (D) as principal Levi type."""
    a2 = rs.build("A2")
    message = rf"^principal_in_levi must be a bool, got {flag!r}$"
    with pytest.raises(TypeError, match=message):
        ct.CertificateInput(a2, (0,), None, rs.rho(a2), flag)


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
    (A) and the integral system, the root values feed dim O and delta'.
    The default h (None) is not read at all: its simple values come from the
    Levi, and only (C) reads simple-root coordinates, those of lambda'.
    A given h is checked in the Levi coroot span by the same one product."""
    calls = collections.Counter()
    for name in ("dynkin_labels", "h_values", "coroot_values", "root_values", "span_coords"):
        original = getattr(rs, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        for mod in (rs, ct, ig):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    once = {"dynkin_labels": 1, "coroot_values": 1, "root_values": 1}
    for h, reads in ((flagship_h, {"h_values": 1, "span_coords": 2}),
                     (None, {"span_coords": 1})):
        for principal, overall in ((True, ct.PASS), (False, ct.UNDECIDED)):
            calls.clear()
            inp = ct.CertificateInput(e8, LEVI, h, flagship_lambda_prime,
                                      principal_in_levi=principal)
            assert ct.certify(inp).overall == overall
            assert calls == {**once, **reads}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**6 - 1))
def test_check_C_pass_set_is_coset(mask):
    e6 = rs.build("E6")
    pi0 = tuple(i for i in range(6) if mask & (1 << i))
    h = ct.h_regular(e6, pi0)
    dp = ct.delta_prime(e6, h)
    assert _report(e6, pi0, h, dp).verdict_C.status == ct.PASS
    if pi0:
        shifted = dp + Fr(5, 3) * e6.simple_roots[pi0[0]]
        assert _report(e6, pi0, h, shifted).verdict_C.status == ct.PASS


# one reader per input --------------------------------------------------------

def _zero(model):
    return rs.Weight([0] * model.ambient_dim)


# every entry point that takes Pi_0, on a model and a Pi_0
PI0_ENTRY_POINTS = {
    "levi_mask": lambda m, pi0: rs.levi_mask(m, pi0),
    "theta_for_levi": lambda m, pi0: ct.theta_for_levi(m, pi0),
    "h_regular": lambda m, pi0: ct.h_regular(m, pi0),
    "delta": lambda m, pi0: ct.delta(m, pi0, _zero(m)),
    "in_levi_span": lambda m, pi0: ct.in_levi_span(m, rs.rho(m), pi0),
    "CertificateInput": lambda m, pi0: ct.CertificateInput(m, pi0, None, rs.rho(m)),
}


@pytest.mark.parametrize("name", sorted(PI0_ENTRY_POINTS))
@pytest.mark.parametrize("pi0", [[True], [0, False], [-1], [2], [1.0], ["0"]],
                         ids=["True", "False", "minus_one", "rank", "float", "str"])
def test_every_pi0_entry_point_rejects_a_bad_index(name, pi0):
    """A bool is not an index: ``theta_for_levi(A2, [True])`` once read it as 1."""
    with pytest.raises(ValueError, match=r"^Pi_0 must be a subset of 0\.\.1$"):
        PI0_ENTRY_POINTS[name](rs.build("A2"), pi0)


def test_levi_mask_is_the_bit_set():
    a2 = rs.build("A2")
    assert [rs.levi_mask(a2, pi0) for pi0 in ((), (0,), [1], (1, 0, 1), range(2))] \
        == [0, 1, 2, 3, 3]
    assert ct.CertificateInput(a2, (1, 0, 1), None, rs.rho(a2)).levi == (0, 1)
    # Pi_0 is a set: a repeated index is read once
    assert rs.levi_mask(a2, [0, 0]) == rs.levi_mask(a2, [0])


# every entry point that reads h, on a model and a non-integral h
H_ENTRY_POINTS = {
    "h_values": lambda m, h: rs.h_values(m, h),
    "graded_dims": lambda m, h: ct.graded_dims(m, h),
    "orbit_dim_from_h": lambda m, h: ct.orbit_dim_from_h(m, h),
    "delta_prime": lambda m, h: ct.delta_prime(m, h),
    "delta_full_levi": lambda m, h: ct.delta(m, range(m.rank), h),
    "delta_proper_levi": lambda m, h: ct.delta(m, (0,), h),
    "delta_empty_levi": lambda m, h: ct.delta(m, (), h),
    "CertificateInput": lambda m, h: ct.CertificateInput(m, (0,), h, rs.rho(m)),
}


@pytest.mark.parametrize("label", ["A2", "E8"])
def test_every_h_entry_point_gives_one_message(label):
    """A non-integral h raises one message wherever it enters, the library
    and the CLI's ``certify --h`` and ``delta-prime`` (exit 2): the first
    positive root, in model order, on which h is not integral, and h's
    value there.  On the proper Levi (0,) that root, a1, is not
    theta-negative."""
    model = rs.build(label)
    h = Fr(1, 3) * ct.h_regular(model, (0,))
    beta = next(b for b in model.positive_roots if b.dot(h).denominator != 1)
    expected = f"h is not integral on root {beta}: <a,h> = {beta.dot(h)}"
    for name, call in H_ENTRY_POINTS.items():
        with pytest.raises(ValueError) as err:
            call(model, h)
        assert str(err.value) == expected, name
    h_arg = "--h=" + ",".join(h.to_strings())
    for argv in (["certify", "--type", label, "--levi", "a1", h_arg,
                  "--lambda-prime=" + ",".join(rs.rho(model).to_strings())],
                 ["delta-prime", "--type", label, h_arg]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(argv) == cli.EXIT_USAGE
        assert err.getvalue() == f"error: {expected}\n"
