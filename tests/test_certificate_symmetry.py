"""Relations of the certificate that need no reference implementation: it
is invariant under diagram automorphisms, monotone in the Levi, and
unmoved by lattice shifts of lambda' (the last two at the end of this file).

A diagram automorphism sigma of the simple roots extends to an isometry of
the ambient space that maps roots to roots.  It maps a certificate on
(Pi_0, h, lambda') to one on (sigma Pi_0, sigma h, sigma lambda'): the
statuses of (A)-(D), the overall verdict, dim O and cor68 are equal, delta'
maps to sigma delta', and the witness of (C) maps too (its coefficients
move to the permuted simple roots; its residual is sigma of the residual).

The automorphisms are derived, not written by hand: sigma is a permutation
of the simple roots that keeps the Cartan matrix, and its ambient map sends
a_i to a_sigma(i) and fixes the orthogonal complement of the root span
(``_automorphism``).  The maps once written by hand in the epsilon models,
A_n's reversal and negation of the coordinates and D_n's negation of the
last one, are rows that the derived maps must reproduce on the root span.
The sample is every Levi subset of A3..A6, D4..D6 (all five nontrivial
automorphisms of D4, triality included) and E6, with h the regular
characteristic of the Levi (omitted, or given), or of a smaller Levi inside
it, and seeded lambda' with denominators in {1, 2, 3}: on the Levi span
after delta', off it, rho, -rho and a random ambient vector, under both
principal flags where the input allows them.
"""
import itertools
import math
import operator
import random
from fractions import Fraction as Fr

import pytest

from orbitcert import certify as ct
from orbitcert import integral
from orbitcert import linalg
from orbitcert import rootsys as rs

A_TYPES = ("A3", "A4", "A5", "A6")
D_TYPES = ("D4", "D5", "D6")
DENOMINATORS = (1, 2, 3)
ALL_STATUSES = {("A", "pass"), ("A", "fail"), ("A", "undecided"),
                ("B", "pass"), ("B", "fail"), ("B", "undecided"),
                ("C", "pass"), ("C", "fail"), ("D", "pass"), ("D", "undecided"),
                ("overall", "pass"), ("overall", "fail"), ("overall", "undecided")}

# series -> (sigma on the simple roots of rank n, the hand-written map on
# ambient numerators), for the maps the derived ones must reproduce
HAND_WRITTEN = {
    "A": (lambda n: [n - 1 - i for i in range(n)],
          lambda nums: [-x for x in reversed(nums)]),
    "D": (lambda n: list(range(n - 2)) + [n - 1, n - 2],
          lambda nums: list(nums[:-1]) + [-nums[-1]]),
}


def _diagram_automorphisms(model):
    """The permutations sigma of the simple roots other than the identity
    with cartan[sigma i][sigma j] == cartan[i][j]."""
    n, cartan = model.rank, model.cartan
    return [list(sigma) for sigma in itertools.permutations(range(n))
            if sigma != tuple(range(n))
            and all(cartan[sigma[i]][sigma[j]] == cartan[i][j]
                    for i in range(n) for j in range(n))]


def _automorphism(model, sigma):
    """The ambient map of sigma on weights: M with M a_i = a_sigma(i) on the
    simple roots and M c = c on each c of ``rootsys.span_complement``.  With
    the basis as the columns of B and their images as those of S, M = S B^-1,
    an integer matrix over one denominator (any common denominator of the
    basis cancels)."""
    complement = list(rs.span_complement(model))
    basis = list(model.simple_roots) + complement
    images = [model.simple_roots[j] for j in sigma] + complement
    den = math.lcm(*(w.den for w in basis))
    columns = [[x * (den // w.den) for x in w.nums] for w in basis]
    inv, inv_den = linalg.inverse([list(row) for row in zip(*columns)])
    image_rows = list(zip(*([x * (den // w.den) for x in w.nums] for w in images)))
    matrix = [[sum(map(operator.mul, row, col)) for col in zip(*inv)] for row in image_rows]
    return lambda w: rs.Weight.from_ints(  # noqa: E731
        [sum(map(operator.mul, row, w.nums)) for row in matrix], w.den * inv_den)


def _rational(rng):
    return Fr(rng.randint(-4, 4), rng.choice(DENOMINATORS))


def _lambdas(model, rng, levi, h):
    """Seeded lambda' for one Levi and h: delta' plus Levi terms (then plus
    an outside simple root, when there is one), rho, -rho and a random
    ambient vector."""
    on = ct.delta_prime(model, h)
    for i in levi:
        on = on + _rational(rng) * model.simple_roots[i]
    out = [on, rs.rho(model), -rs.rho(model),
           rs.Weight([_rational(rng) for _ in range(model.ambient_dim)])]
    outside = [i for i in range(model.rank) if i not in levi]
    if outside:
        out.append(on + Fr(rng.choice((-2, -1, 1, 2)), rng.choice(DENOMINATORS))
                   * model.simple_roots[rng.choice(outside)])
    return out


def _certificates(label):
    """(input, image input, sigma on weights, sigma on indices) for every
    nontrivial diagram automorphism of one type and every Levi subset; h is
    drawn per Levi from the regular characteristic omitted or given, and
    that of the Levi less its last simple root (which allows no principal
    flag)."""
    model = rs.build(label)
    rng = random.Random(f"symmetry-{label}")
    for perm in _diagram_automorphisms(model):
        image = _automorphism(model, perm)
        moved = lambda pi0: tuple(sorted(perm[i] for i in pi0))  # noqa: E731
        for size in range(model.rank + 1):
            for levi in itertools.combinations(range(model.rank), size):
                sub = rng.choice((None, levi, levi[:-1]) if levi else (None, levi))
                h = None if sub is None else ct.h_regular(model, sub)
                image_h = None if sub is None else ct.h_regular(model, moved(sub))
                if h is not None:
                    assert image_h == image(h)
                flags = (True, False) if sub is None or sub == levi else (False,)
                lam_h = ct.h_regular(model, levi if sub is None else sub)
                for lam in _lambdas(model, rng, levi, lam_h):
                    for principal in flags:
                        yield (ct.CertificateInput(model, levi, h, lam, principal),
                               ct.CertificateInput(model, moved(levi), image_h, image(lam),
                                                   principal),
                               image, perm)


def test_automorphisms_permute_the_simple_roots():
    """The derived automorphisms are the diagram's (one for A_n, D5, D6 and
    E6, five for D4), each map permutes the simple roots as sigma does and
    fixes the complement of their span, and each hand-written map is
    reproduced on the simple roots."""
    counts = {"A3": 1, "A4": 1, "A5": 1, "A6": 1, "D4": 5, "D5": 1, "D6": 1, "E6": 1}
    for label, count in counts.items():
        model = rs.build(label)
        perms = _diagram_automorphisms(model)
        assert len(perms) == count
        for perm in perms:
            image = _automorphism(model, perm)
            assert [image(alpha) for alpha in model.simple_roots] == [
                model.simple_roots[j] for j in perm]
            assert all(image(c) == c for c in rs.span_complement(model))
        if label[0] in HAND_WRITTEN:
            hand_perm, nums_map = HAND_WRITTEN[label[0]]
            perm = hand_perm(model.rank)
            assert perm in perms
            image = _automorphism(model, perm)
            for alpha in model.simple_roots:
                assert image(alpha) == rs.Weight.from_ints(nums_map(alpha.nums), alpha.den)


def _check_pair(inp, moved, image, perm, seen):
    report, image_report = ct.certify(inp), ct.certify(moved)
    statuses = [getattr(report, f"verdict_{x}").status for x in "ABCD"]
    assert [getattr(image_report, f"verdict_{x}").status for x in "ABCD"] == statuses
    assert image_report.overall == report.overall
    assert (image_report.dim_orbit, image_report.cor68) == (report.dim_orbit, report.cor68)
    assert image_report.delta_prime == image(report.delta_prime)
    assert image_report.verdict_B.witness == report.verdict_B.witness
    witness, image_witness = report.verdict_C.witness, image_report.verdict_C.witness
    if report.verdict_C.status == ct.PASS:
        # coefficient on a_i, for i in Pi_0 in increasing order, lands on a_perm[i]
        by_root = dict(zip((perm[i] for i in inp.levi), witness))
        assert image_witness == tuple(by_root[j] for j in moved.levi)
    else:
        assert image_witness == image(witness)
    seen |= {(x, s) for x, s in zip("ABCD", statuses)} | {("overall", report.overall)}


@pytest.mark.parametrize("labels", [A_TYPES, D_TYPES, ("E6",)], ids=["A3-A6", "D4-D6", "E6"])
def test_certificate_maps_under_the_diagram_automorphism(labels):
    """Every certificate of the sample and its image agree, and each type's
    sample reaches every status of every verdict."""
    count = 0
    for label in labels:
        seen = set()
        for inp, moved, image, perm in _certificates(label):
            _check_pair(inp, moved, image, perm, seen)
            count += 1
        assert seen == ALL_STATUSES, label
    assert count > 500


# Levi monotonicity --------------------------------------------------------------
#
# Take Pi_0 inside Pi_0' and one h in the Levi coroot span of Pi_0, given
# explicitly to both inputs.  dim O, cor68, (B) and delta' read only h,
# lambda' and the model, so they agree; and the Q-span of Pi_0 lies in that of
# Pi_0', so (C) passing on Pi_0 passes on Pi_0' with the same coefficients
# and 0 on the added roots, and (C) failing on Pi_0' fails on Pi_0.

MONOTONE_TYPES = ("A4", "A5", "D4", "D5", "E6", "E7")


def _enlarged_levis(label):
    """(input on Pi_0, input on a larger Pi_0') for every proper Levi subset
    Pi_0 of one type, with a seeded Pi_0' and h the regular characteristic
    of Pi_0; lambda' is delta' plus a seeded vector in the span of Pi_0,
    delta' plus one in the span of Pi_0', rho and a random ambient vector."""
    model = rs.build(label)
    rng = random.Random(f"monotone-{label}")
    for size in range(model.rank):
        for levi in itertools.combinations(range(model.rank), size):
            outside = [i for i in range(model.rank) if i not in levi]
            added = rng.sample(outside, rng.randint(1, len(outside)))
            larger = tuple(sorted(levi + tuple(added)))
            h = ct.h_regular(model, levi)
            dp = ct.delta_prime(model, h)
            spans = []
            for pi0 in (levi, larger):
                on = dp
                for i in pi0:
                    on = on + _rational(rng) * model.simple_roots[i]
                spans.append(on)
            for lam in (*spans, rs.rho(model),
                        rs.Weight([_rational(rng) for _ in range(model.ambient_dim)])):
                yield (ct.CertificateInput(model, levi, h, lam),
                       ct.CertificateInput(model, larger, h, lam))


def test_certificate_is_monotone_in_the_levi():
    """Every pair of the sample obeys the relations, and the sample reaches
    (C) pass and fail on each side, including a fail on Pi_0 beside a pass
    on Pi_0'."""
    seen = set()
    count = 0
    for label in MONOTONE_TYPES:
        for small, large in _enlarged_levis(label):
            report, large_report = ct.certify(small), ct.certify(large)
            assert (large_report.dim_orbit, large_report.cor68, large_report.delta_prime) == (
                report.dim_orbit, report.cor68, report.delta_prime)
            assert large_report.verdict_B == report.verdict_B
            passed = report.verdict_C.status == ct.PASS
            large_passed = large_report.verdict_C.status == ct.PASS
            if passed:
                by_root = dict(zip(small.levi, report.verdict_C.witness))
                assert large_report.verdict_C.witness == tuple(by_root.get(i, 0)
                                                               for i in large.levi)
            if not large_passed:
                assert not passed
            seen |= {("small", passed), ("large", large_passed), ("pair", passed, large_passed)}
            count += 1
    assert count > 800
    assert {("small", True), ("small", False), ("large", True), ("large", False),
            ("pair", False, True)} <= seen


# Lattice shifts -----------------------------------------------------------------
#
# <nu, beta^vee> is an integer for every root beta when nu is in the root
# lattice ZPi, and, in a simply-laced model, when nu is in the weight lattice
# (there the coroots are the roots under the form, so ``rootsys.coweight`` of
# integer values is a weight).  So lambda' + nu has the integral roots of
# lambda' (Humphreys, Representations of semisimple Lie algebras in the BGG
# category O, 3.4), and cor68, which reads their number and the signs of
# lambda' on them, is None on one side or equal on both.  For nu in ZPi_0,
# lambda' + nu - delta' lies in the span of Pi_0 exactly when lambda' - delta'
# does, and its coefficients are those of lambda' - delta' plus nu's.

SHIFT_TYPES = ("G2", "A4", "A5", "B3", "C3", "D4", "D5", "F4", "E6", "E7")


def _shifted(label):
    """(input, shift name, nu, its coefficients on Pi_0 or None) for every
    Levi subset of one type, with h the regular characteristic of the Levi
    and lambda' seeded, on the Levi span after delta' for every other
    subset and a random ambient vector otherwise; nu is a seeded vector of
    ZPi, of ZPi_0 (with its coefficients), and of the weight lattice when
    the type is simply laced."""
    model = rs.build(label)
    rng = random.Random(f"shift-{label}")
    draw = lambda: rng.randint(-3, 3)  # noqa: E731
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(model.rank), size) for size in range(model.rank + 1))
    for index, levi in enumerate(subsets):
        h = ct.h_regular(model, levi)
        if index % 2:
            lam = rs.Weight([_rational(rng) for _ in range(model.ambient_dim)])
        else:
            lam = ct.delta_prime(model, h)
            for i in levi:
                lam = lam + _rational(rng) * model.simple_roots[i]
        inp = ct.CertificateInput(model, levi, h, lam)
        yield inp, "root", rs.combine(model, [draw() for _ in range(model.rank)]), None
        levi_coeffs = [draw() for _ in levi]
        by_root = dict(zip(levi, levi_coeffs))
        nu = rs.combine(model, [by_root.get(i, 0) for i in range(model.rank)])
        yield inp, "levi", nu, tuple(levi_coeffs)
        if label[0] in "ADE":
            yield inp, "weight", rs.coweight(model, [draw() for _ in range(model.rank)]), None


def test_lattice_shifts_keep_the_integral_roots_and_the_levi_span():
    """Every shift of the sample keeps the integral roots and cor68; a
    ZPi_0 shift keeps (C)'s status and moves a pass's coefficients by nu's.
    The sample reaches (C) pass and fail on both sides of each shift, and
    cor68 equal and None."""
    seen = set()
    count = 0
    for label in SHIFT_TYPES:
        for inp, shift, nu, levi_coeffs in _shifted(label):
            model = inp.model
            moved = ct.CertificateInput(model, inp.levi, inp.h, inp.lambda_prime + nu)
            system = integral.integral_system(model, inp.lambda_prime)
            moved_system = integral.integral_system(model, moved.lambda_prime)
            assert moved_system.coroots == system.coroots
            report, moved_report = ct.certify(inp), ct.certify(moved)
            cor68s = (report.cor68, moved_report.cor68)
            assert None in cor68s or cor68s[0] == cor68s[1]
            assert report.cor68 == system.cor68 and moved_report.cor68 == moved_system.cor68
            verdict, moved_verdict = report.verdict_C, moved_report.verdict_C
            if levi_coeffs is not None:
                assert moved_verdict.status == verdict.status
                if verdict.status == ct.PASS:
                    assert moved_verdict.witness == tuple(
                        c + n for c, n in zip(verdict.witness, levi_coeffs))
            seen |= {(shift, "before", verdict.status), (shift, "after", moved_verdict.status),
                     ("cor68", "equal" if None not in cor68s else "none")}
            count += 1
    assert count > 700
    assert seen == {(shift, side, status) for shift in ("root", "levi", "weight")
                    for side in ("before", "after") for status in (ct.PASS, ct.FAIL)} | {
        ("cor68", "equal"), ("cor68", "none")}
