"""Differential test: the one-pass certificate against the reference
certificate of tests/epsilon_reference.py, which writes out the rules of
(A)-(D) on its own epsilon-coordinate quantities.

Seeded cases over every default type reach each verdict of (A)-(D), both
--principal states and the input errors (h off the Levi coroot span, h not
integral, h not 2 on the Levi simple roots under --principal, an odd orbit
dimension); on A4 and G2 further cases put lambda' off the root span, so
(C) fails by that alone.  For each case the CLI prints the same bytes to stdout and
stderr and exits with the same code, in JSON and in text, when it runs the
reference ``CertificateInput`` and ``certify``; the library gives equal
integral systems, Levi-span solves and root coordinates (the reference
solve over every simple root); and the walk by coroot height finds the same
simple coroots as the pair scan.  The default
h (no --h, ``CertificateInput`` given None) is checked against the input
given ``h_regular`` on every Levi subset, and on the CLI against the
reference run with --h set to that h.
"""
import contextlib
import io
import itertools
import random
import re
from fractions import Fraction as Fr
from functools import cache

import pytest

import epsilon_reference as ref
from conftest import TYPES, rational
from orbitcert import certify as ct
from orbitcert import cli
from orbitcert import integral as ig
from orbitcert import rootsys as rs

CASES_PER_TYPE = 48
# lambda' = delta'(h) plus Levi terms: on the Levi span, then off it; then
# rho (A and B fail), -rho (B undecided) and a random vector in the root span;
# then h off the Levi span, h / 2 (not integral, or an odd orbit) and 2 h
# (not 2 on the Levi simple roots)
KINDS = ("on", "on", "off", "rho", "minus_rho", "random", "h_off_span", "h_half", "h_double")
# after those, on the types whose roots do not span the ambient and whose
# canonicalizer is the identity: lambda' = delta'(h) plus Levi terms plus a
# nonzero multiple of the all-ones vector, off the root span
OFF_ROOT_SPAN_TYPES = ("A4", "G2")
OFF_ROOT_SPAN_CASES = 6
ERRORS = {"off_span": "h is not in the Levi coroot span; residual ",
          "not_integral": "h is not integral on root ",
          "principal": "principal_in_levi requires <alpha, h> = 2 on every Levi simple root",
          "odd": r"orbit dimension \d+ is odd: h is not the characteristic of a nilpotent"}


@cache
def cases(label):
    """(argv, levi, h, lambda') for one type, seeded by its label."""
    model = rs.build(label)
    rng = random.Random(f"certify-differential-{label}")
    out = []
    for n in range(CASES_PER_TYPE):
        kind = KINDS[n % len(KINDS)]
        levi = tuple(sorted(rng.sample(range(model.rank), rng.randint(0, model.rank))))
        h = ct.h_regular(model, levi)
        lam = ct.delta_prime(model, h)
        for i in levi:
            lam = lam + rational(rng) * model.simple_roots[i]
        outside = [i for i in range(model.rank) if i not in levi]
        if kind == "off" and outside:
            lam = lam + rational(rng, nonzero=True) * model.simple_roots[rng.choice(outside)]
        elif kind == "rho":
            lam = rs.rho(model)
        elif kind == "minus_rho":
            lam = -rs.rho(model)
        elif kind == "random":
            lam = rs.combine(model, [rational(rng) for _ in range(model.rank)])
        elif kind == "h_off_span" and outside:
            h = ct.h_regular(model, levi + (rng.choice(outside),))
        elif kind == "h_half":
            h = Fr(1, 2) * h
        elif kind == "h_double":
            h = 2 * h
        principal = kind == "h_double" or rng.random() < 0.6
        out.append(_case(model, levi, h, lam, principal))
    if label in OFF_ROOT_SPAN_TYPES:
        ones = rs.Weight([1] * model.ambient_dim)
        for _ in range(OFF_ROOT_SPAN_CASES):
            levi = tuple(sorted(rng.sample(range(model.rank), rng.randint(0, model.rank))))
            h = ct.h_regular(model, levi)
            lam = ct.delta_prime(model, h)
            for i in levi:
                lam = lam + rational(rng) * model.simple_roots[i]
            lam = lam + rational(rng, nonzero=True) * ones
            out.append(_case(model, levi, h, lam, rng.random() < 0.6))
    return out


def _case(model, levi, h, lam, principal):
    argv = ["certify", "--type", model.cartan_type,
            "--levi=" + ",".join(f"a{i + 1}" for i in levi),
            "--h=" + ",".join(h.to_strings()),
            "--lambda-prime=" + ",".join(lam.to_strings())]
    if principal:
        argv.append("--principal")
    return argv, levi, rs.canonicalize(model, h), lam


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_reference(monkeypatch, argv):
    with monkeypatch.context() as patch:
        patch.setattr(ct, "CertificateInput", ref.CertificateInput)
        patch.setattr(ct, "certify", ref.certify)
        return run(argv)


@pytest.mark.parametrize("label", TYPES)
def test_cli_matches_reference(monkeypatch, label):
    for argv, _, _, _ in cases(label):
        for fmt in (["--output", "text"], []):
            got = run(fmt + argv)
            assert got == run_reference(monkeypatch, fmt + argv), argv
            assert got[0] in (0, 1, 2, 3), got


@pytest.mark.parametrize("label", TYPES)
def test_cli_integral_matches_reference(monkeypatch, label):
    """``orbitcert integral`` reads lambda' once, cor68 included; run with the
    reference integral system, whose cor68 is the simple-coroot rule, it
    prints the same bytes."""
    for _, _, _, lam in cases(label):
        argv = ["integral", "--type", label, "--lambda-prime=" + ",".join(lam.to_strings())]
        got = run(argv)
        with monkeypatch.context() as patch:
            patch.setattr(ig, "integral_system", ref.integral_system)
            assert got == run(argv) and got[0] == 0, argv


@pytest.mark.parametrize("label", TYPES)
def test_library_matches_reference(label):
    model = rs.build(label)
    for _, levi, h, lam in cases(label):
        got = ig.integral_system(model, lam)
        assert got == ref.integral_system(model, lam)
        values, den = rs.coroot_values(model, lam)
        by_height = [k for k, _, _ in model.coroot_steps if values[k] % den == 0]
        walk = sorted(by_height[pos] for pos in
                      rs.height_simples([model.coroot_coefficients[k] for k in by_height]))
        coroots = {ref.coroot(model.positive_roots[k]): k for k in sorted(by_height)}
        scan = [coroots[cv] for cv in ref._indecomposables(list(coroots))]
        assert walk == scan
        assert got.simple_system == tuple(model.positive_roots[k] for k in walk)
        for mu in (h, lam, lam - rs.rho(model)):
            nums, den, _ = rs.span_coords(model, mu)
            assert [Fr(x, den) for x in nums] == list(_reference_root_coords(model, mu))
            assert ct.in_levi_span(model, mu, levi) == ref.in_levi_span(model, mu, levi)


def _reference_root_coords(model, mu):
    """mu's projection onto the root span on the simple roots: the reference
    solve over every simple root, of mu less its residual when mu is off the
    root span."""
    every = range(model.rank)
    ok, info = ref.in_levi_span(model, mu, every)
    return info if ok else ref.in_levi_span(model, mu - info, every)[1]


def test_orbit_dim_from_values_matches_graded_dims():
    """dim O read off three counts of the root values equals dim g minus
    dim g(0) + dim g(1) of the whole grading (``certify.graded_dims``), or
    raises the same odd-orbit error, for every integral h of the cases;
    ``orbit_dim_from_h`` agrees with the reference on every h.  The cases
    reach both parities."""
    parities = set()
    for label in TYPES:
        model = rs.build(label)
        for _, _, h, _ in cases(label):
            assert _outcome_of(ct.orbit_dim_from_h, model, h) == \
                _outcome_of(ref.orbit_dim_from_h, model, h)
            try:
                values = rs.root_values(model, rs.h_values(model, h))
            except ValueError:
                continue  # h is not integral
            dims = ct.graded_dims(model, h)
            expected = model.dim - dims.get(0, 0) - dims.get(1, 0)
            parities.add(expected % 2)
            if expected % 2:
                expected = (f"orbit dimension {expected} is odd: h is not the "
                            "characteristic of a nilpotent")
            assert _outcome_of(ct.orbit_dim_from_values, model, values) == expected, h
    assert parities == {0, 1}


def _outcome_of(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _outcome(model, levi, h, lam, principal, module):
    try:
        return module.certify(module.CertificateInput(model, levi, h, lam, principal)
                              ).to_json_dict()
    except ValueError as exc:
        return str(exc)


def test_cases_reach_every_verdict_and_error():
    """The cases reach every status of A, B, C, D and overall, both
    --principal states and each input error, on the engine and the reference
    alike."""
    seen = set()
    for label in TYPES:
        model = rs.build(label)
        for argv, levi, h, lam in cases(label):
            principal = "--principal" in argv
            got = _outcome(model, levi, h, lam, principal, ct)
            assert got == _outcome(model, levi, h, lam, principal, ref), argv
            seen.add(("principal", principal))
            if isinstance(got, str):
                seen.add(("error", next(name for name, pattern in ERRORS.items()
                                        if re.match(pattern, got))))
            else:
                seen |= {(key, got[key]["status"]) for key in "ABCD"}
                seen.add(("overall", got["overall"]))
    expected = {("principal", True), ("principal", False),
                ("A", "pass"), ("A", "fail"), ("A", "undecided"),
                ("B", "pass"), ("B", "fail"), ("B", "undecided"),
                ("C", "pass"), ("C", "fail"), ("D", "pass"), ("D", "undecided"),
                ("overall", "pass"), ("overall", "fail"), ("overall", "undecided")}
    expected |= {("error", name) for name in ERRORS}
    assert seen == expected


@pytest.mark.parametrize("label", OFF_ROOT_SPAN_TYPES)
def test_off_root_span_cases_fail_C_by_the_root_span_alone(label):
    """lambda' - delta' has no coordinate outside Pi_0, yet lies off the root
    span, so (C) fails with the all-ones part as its residual."""
    model = rs.build(label)
    extra = cases(label)[CASES_PER_TYPE:]
    assert len(extra) == OFF_ROOT_SPAN_CASES
    assert {"--principal" in argv for argv, _, _, _ in extra} == {True, False}
    for argv, levi, h, lam in extra:
        mu = lam - ct.delta_prime(model, h)
        nums, _, _ = rs.span_coords(model, mu)
        assert all(nums[i] == 0 for i in range(model.rank) if i not in levi), argv
        assert not rs.span_coords(model, lam)[2], argv
        report = ct.certify(ct.CertificateInput(model, levi, h, lam, "--principal" in argv))
        assert report.verdict_C.status == ct.FAIL, argv
        residual = report.verdict_C.witness
        assert any(residual.nums) and len(set(residual.coords)) == 1, argv


@pytest.mark.parametrize("label", TYPES)
def test_default_h_matches_h_regular(label):
    """For every Levi subset, in both --principal states, the input with the
    default h (None) and the one given ``h_regular`` read the same Levi,
    lambda' and simple values of h, and certify to the same report; lambda'
    is delta' of the regular h (on the Levi span) or rho."""
    model = rs.build(label)
    for size in range(model.rank + 1):
        for levi in itertools.combinations(range(model.rank), size):
            h = ct.h_regular(model, levi)
            for lam in (ct.delta_prime(model, h), rs.rho(model)):
                for principal in (True, False):
                    got = ct.CertificateInput(model, levi, None, lam, principal)
                    want = ct.CertificateInput(model, levi, h, lam, principal)
                    assert (got.levi, got.lambda_prime, got.h_simple) == \
                        (want.levi, want.lambda_prime, want.h_simple), levi
                    assert ct.certify(got) == ct.certify(want), levi


@pytest.mark.parametrize("label", TYPES)
def test_cli_default_h_matches_reference_with_h_regular(monkeypatch, label):
    """Each case without --h prints the same bytes and exits with the same
    code as the same argv with --h set to the Levi's regular h, run through
    the reference."""
    model = rs.build(label)
    for argv, levi, _, _ in cases(label):
        without_h = [token for token in argv if not token.startswith("--h=")]
        with_h = without_h + ["--h=" + ",".join(ct.h_regular(model, levi).to_strings())]
        for fmt in (["--output", "text"], []):
            got = run(fmt + without_h)
            assert got == run_reference(monkeypatch, fmt + with_h), without_h
            assert got[0] in (0, 1, 2, 3), got
