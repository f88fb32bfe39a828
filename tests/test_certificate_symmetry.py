"""The certificate is invariant under diagram automorphisms.

A diagram automorphism sigma of the simple roots extends to an isometry of
the ambient space that maps roots to roots.  It maps a certificate on
(Pi_0, h, lambda') to one on (sigma Pi_0, sigma h, sigma lambda'): the
statuses of (A)-(D), the overall verdict, dim O and cor68 are equal, delta'
maps to sigma delta', and the witness of (C) maps too (its coefficients
move to the permuted simple roots; its residual is sigma of the residual).
This relation needs no reference implementation.

In the epsilon models, A_n's automorphism reverses and negates the
coordinates (a_i <-> a_{n-1-i}, 0-based) and D_n's negates the last one
(a_{n-2} <-> a_{n-1}).  The sample is every Levi subset of A3..A6 and
D4..D6, with h the regular characteristic of the Levi (omitted, or given),
or of a smaller Levi inside it, and seeded lambda' with denominators in
{1, 2, 3}: on the Levi span after delta', off it, rho, -rho and a random
ambient vector, under both principal flags where the input allows them.
"""
import itertools
import random
from fractions import Fraction as Fr

import pytest

from orbitcert import certify as ct
from orbitcert import rootsys as rs

A_TYPES = ("A3", "A4", "A5", "A6")
D_TYPES = ("D4", "D5", "D6")
DENOMINATORS = (1, 2, 3)


def _automorphism(model):
    """(sigma on ambient numerators, sigma on simple-root indices)."""
    n = model.rank
    if model.cartan_type[0] == "A":
        return (lambda nums: [-x for x in reversed(nums)]), [n - 1 - i for i in range(n)]
    perm = list(range(n))
    perm[n - 2], perm[n - 1] = n - 1, n - 2
    return (lambda nums: list(nums[:-1]) + [-nums[-1]]), perm


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
    Levi subset of one type; h is drawn per Levi from the regular
    characteristic omitted or given, and that of the Levi less its last
    simple root (which allows no principal flag)."""
    model = rs.build(label)
    sigma, perm = _automorphism(model)
    image = lambda w: rs.Weight.from_ints(sigma(w.nums), w.den)  # noqa: E731
    moved = lambda pi0: tuple(sorted(perm[i] for i in pi0))  # noqa: E731
    rng = random.Random(f"symmetry-{label}")
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
    for label in A_TYPES + D_TYPES:
        model = rs.build(label)
        sigma, perm = _automorphism(model)
        assert sorted(perm) == list(range(model.rank)) and perm != list(range(model.rank))
        for i, alpha in enumerate(model.simple_roots):
            image = rs.Weight.from_ints(sigma(alpha.nums), alpha.den)
            assert image == model.simple_roots[perm[i]]


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


@pytest.mark.parametrize("labels", [A_TYPES, D_TYPES], ids=["A3-A6", "D4-D6"])
def test_certificate_maps_under_the_diagram_automorphism(labels):
    """Every certificate of the sample and its image agree, and the sample
    reaches every status of every verdict."""
    seen = set()
    count = 0
    for label in labels:
        for inp, moved, image, perm in _certificates(label):
            _check_pair(inp, moved, image, perm, seen)
            count += 1
    assert count > 500
    assert seen == {("A", "pass"), ("A", "fail"), ("A", "undecided"),
                    ("B", "pass"), ("B", "fail"), ("B", "undecided"),
                    ("C", "pass"), ("C", "fail"), ("D", "pass"), ("D", "undecided"),
                    ("overall", "pass"), ("overall", "fail"), ("overall", "undecided")}
