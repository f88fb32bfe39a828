"""The integer-backed Weight against the Fraction-tuple Weight it replaced.

``tests/epsilon_reference.py`` keeps the old ``Weight`` as ``FractionWeight``
together with the epsilon code that ran on it.  Every comparison here is
exact: equal coordinates as Fractions, equal booleans and
coefficients, and equal error messages.  The engine's scalars (dot
products, pairings and Levi-span coefficients) must also have
the type the contract gives them: an int when the value is an integer, else
a Fraction; the reference's scalars must be exact, never a float.  Inputs
are every root of each type and seeded random vectors with denominators in
{1, 2, 3, 6}.
"""
import itertools
import math
import random
from fractions import Fraction as Fr

import pytest

from orbitcert import certify as ct
from orbitcert import rootsys as rs

import epsilon_reference as ref
from conftest import TYPES

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


def _exact_scalar(value):
    """The engine's scalar rule: an int when the value is an integer, else a
    Fraction (never a float, never an integral Fraction)."""
    return type(value) is (int if value.denominator == 1 else Fr)


def _reference(value):
    """A reference scalar, checked to be exact: no float reaches a comparison."""
    assert isinstance(value, (int, Fr)), f"reference value {value!r} is not exact"
    return value


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
        assert _exact_scalar(dot) and dot == _reference(r.dot(r2))
        assert (w == w2) == (r == r2)
        assert (not any(w.nums)) == r.is_zero() and len(w) == len(r)
        # one vector reached by different arithmetic is one Weight
        for same in ((w + w2) - w2, w2 + (w - w2), rs.Weight(w.coords), -(-w),
                     rs.Weight.from_ints([x * 6 for x in w.nums], w.den * 6),
                     rs.Weight(w.to_strings())):
            assert same == w and hash(same) == hash(w)
        assert not any((w - w).nums) and w - w == 0 * w2


@pytest.mark.parametrize("label", TYPES)
def test_to_strings_is_str_of_each_fraction(label):
    """``to_strings`` writes each entry from ``nums`` and ``den``, which
    are in lowest terms as a vector but not entry by entry; its strings are
    those of ``str(Fraction)``, on every root, the seeded vectors, their
    negations and a few multiples."""
    model = rs.build(label)
    rng = random.Random(f"strings-{label}")
    for w, r in _pairs(rng, model, 60):
        for v in (w, -w, Fr(1, 2) * w, Fr(-2, 3) * w, 6 * w):
            assert v.to_strings() == [str(Fr(x, v.den)) for x in v.nums]
        assert w.to_strings() == [str(c) for c in r.coords]


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
        expected = _outcome(ref.pairing, ref_roots, r2, r, model.cartan_type)
        assert outcome == expected
        if outcome[0] == "ok":
            assert _exact_scalar(outcome[1]) and _reference(expected[1]) == outcome[1]
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
        assert all(_exact_scalar(c) for c in got[1])
        assert got[1] == tuple(map(_reference, expected[1]))
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


# Denominator pairs for + and -: equal (1 included), d2 | d1, d1 | d2, coprime,
# and neither dividing the other nor coprime.
DENOMINATOR_PAIRS = {
    "equal": [(1, 1), (3, 3), (6, 6)],
    "second_divides_first": [(3, 1), (6, 2), (6, 3), (9, 3)],
    "first_divides_second": [(1, 3), (2, 6), (3, 6), (3, 9)],
    "coprime": [(2, 3), (3, 2), (4, 9), (9, 4)],
    "other": [(4, 6), (6, 4), (6, 9)],
}


def _over(rng, dim, den):
    """A random vector whose lowest-terms denominator is exactly den."""
    nums = [rng.randint(-12, 12) for _ in range(dim)]
    nums[rng.randrange(dim)] = 1
    return [Fr(x, den) for x in nums]


@pytest.mark.parametrize("kind", DENOMINATOR_PAIRS)
def test_sum_and_difference_by_denominator_pair(kind):
    """Each branch of ``+`` and ``-`` against the Fraction reference, in
    lowest terms, results that reduce included; ``dot`` is an int exactly
    when its value is an integer."""
    rng = random.Random(f"den-{kind}")
    integral_dots = set()
    for d1, d2 in DENOMINATOR_PAIRS[kind]:
        for _ in range(40):
            dim = rng.choice((3, 9))
            u, v = _over(rng, dim, d1), _over(rng, dim, d2)
            w1, w2 = rs.Weight(u), rs.Weight(v)
            r1, r2 = ref.FractionWeight(u), ref.FractionWeight(v)
            assert (w1.den, w2.den) == (d1, d2)
            _assert_same(w1 + w2, r1 + r2)
            _assert_same(w1 - w2, r1 - r2)
            _assert_same(w2 - w1, r2 - r1)
            # results that reduce below the larger denominator
            _assert_same(w1 + (w2 - w1), r2)
            _assert_same(w1 - w1, ref.FractionWeight([0] * dim))
            dot = w1.dot(w2)
            assert _exact_scalar(dot) and dot == _reference(r1.dot(r2))
            integral_dots.add(type(dot))
    assert integral_dots == {int, Fr}


@pytest.mark.parametrize("label, complement", [("E6", 3), ("E7", 2), ("E8", 1)])
def test_in_levi_span_one_product_matches(label, complement):
    """The E-type models keep the complement of their root span in the rows
    of ``span_rows`` (3, 2 and 1 rows); ``in_levi_span`` agrees with the
    reference on inputs in the Levi span, off it, and off the root span
    with no coordinate outside Pi_0, where only those rows can tell."""
    model = rs.build(label)
    rows, _ = model.span_rows
    assert len(rows) - model.rank == complement == len(rs.span_complement(model))
    rng = random.Random(f"one-product-{label}")
    # the complement less its all-ones direction, which canonicalize removes
    off_root_span = [c for c in (rs.canonicalize(model, v) for v in rs.span_complement(model))
                     if any(c.nums)]
    assert bool(off_root_span) == (complement > 1)
    outcomes = set()
    for pi0 in _levi_subsets(model, rng):
        inside = [_rational(rng) if i in pi0 else 0 for i in range(model.rank)]
        mu = rs.combine(model, inside)
        cases = [mu, mu + Fr(1, 3) * model.simple_roots[rng.randrange(model.rank)]]
        cases += [mu + Fr(2, 3) * v for v in off_root_span]
        for w in cases:
            outcomes.add(_compare_span(model, w, pi0))
            assert ref.in_levi_span(model, w, range(model.rank))[0] == (w in cases[:2])
    assert outcomes == {True, False}


def _compare_walk(model, w, pi0):
    """``in_levi_span`` and the walk under it against ``ref.in_levi_span``:
    the same verdict, the same coefficients of the same types, the same
    residual; the walk on the canonical w gives the coefficients or None."""
    got, expected = ct.in_levi_span(model, w, pi0), ref.in_levi_span(model, w, pi0)
    assert got[0] == expected[0]
    if got[0]:
        assert got[1] == expected[1]
        assert list(map(type, got[1])) == list(map(type, expected[1]))
    else:
        assert isinstance(got[1], rs.Weight) and got[1] == expected[1]
        assert got[1].to_strings() == expected[1].to_strings()
    coords = rs.levi_coords(model, rs.canonicalize(model, w), rs.levi_mask(model, pi0))
    assert coords == (got[1] if got[0] else None)
    return got[0]


# types whose ambient space is larger than their rank
COMPLEMENT_TYPES = ("A3", "A5", "G2", "E6", "E7", "E8")


@pytest.mark.parametrize("label", ["A5", "B3", "C4", "D5", "G2", "F4", "E6", "E7", "E8"])
def test_levi_walk_ends_at_the_first_coweight_row_outside_pi0(label):
    """With Pi_0 all but the first, a middle and the last simple root, the
    first nonzero coordinate outside Pi_0 is put at each of those rows in
    turn, with every later one outside Pi_0 nonzero too, and once alone;
    each miss, and the hit with none, matches the reference."""
    model = rs.build(label)
    rng = random.Random(f"walk-exit-{label}")
    rank = model.rank
    outside = sorted({0, rank // 2, rank - 1})
    pi0 = tuple(i for i in range(rank) if i not in outside)
    inside = [_rational(rng) if i in pi0 else 0 for i in range(rank)]
    assert _compare_walk(model, rs.combine(model, inside), pi0)
    for first in outside:
        for later in (True, False):
            coeffs = list(inside)
            for i in outside:
                if i == first or later and i > first:
                    coeffs[i] = Fr(rng.choice((-5, -1, 1, 5)), rng.choice(DENOMINATORS))
            assert not _compare_walk(model, rs.combine(model, coeffs), pi0)


@pytest.mark.parametrize("label", COMPLEMENT_TYPES)
def test_levi_walk_ends_at_a_complement_row(label):
    """A vector in the span of Pi_0 plus a nonzero part off the root span
    passes every coweight row and misses on a complement row, for Pi_0 of
    every size from empty to full.  On E8 canonicalize removes the only
    complement direction, so the miss shows on the walk of the raw vector
    while ``in_levi_span`` (which canonicalizes) agrees with the reference."""
    model = rs.build(label)
    rng = random.Random(f"walk-complement-{label}")
    rank = model.rank
    assert model.ambient_dim > rank
    off_span = [c for c in (rs.canonicalize(model, v) for v in rs.span_complement(model))
                if any(c.nums)]
    assert bool(off_span) == (label != "E8")  # E8's one row is the all-ones direction
    raw_off_span = rs.Weight.from_ints(rs.span_complement(model)[0].nums)
    for size in range(rank + 1):
        pi0 = tuple(sorted(rng.sample(range(rank), size)))
        mask = rs.levi_mask(model, pi0)
        mu = rs.combine(model, [_rational(rng) if i in pi0 else 0 for i in range(rank)])
        assert _compare_walk(model, mu, pi0)
        for v in off_span:
            assert not _compare_walk(model, mu + Fr(rng.choice((-2, 1, 3)), 2) * v, pi0)
        if not off_span:
            assert rs.levi_coords(model, mu + raw_off_span, mask) is None
            assert _compare_walk(model, mu + raw_off_span, pi0)


@pytest.mark.parametrize("label", TYPES)
def test_levi_walk_with_pi0_empty_and_full(label):
    """Pi_0 empty: only zero is a hit (no coefficients); any root misses at
    its first nonzero coordinate.  Pi_0 full: the coweight rows never end
    the walk, so a vector in the root span is a hit with all its coordinates,
    and only a part off the root span misses."""
    model = rs.build(label)
    rng = random.Random(f"walk-empty-full-{label}")
    rank, every = model.rank, tuple(range(model.rank))
    zero = rs.canonicalize(model, [0] * model.ambient_dim)
    assert _compare_walk(model, zero, ())
    assert ct.in_levi_span(model, zero, ()) == (True, ())
    for beta in model.roots:
        assert not _compare_walk(model, beta, ())
        assert _compare_walk(model, beta, every)
    for raw in _raw_vectors(rng, model.ambient_dim, 20):
        w = rs.canonicalize(model, raw)
        in_root_span = all(v.dot(w) == 0 for v in rs.span_complement(model))
        assert _compare_walk(model, w, every) == in_root_span
        assert _compare_walk(model, w, ()) == (not any(w.nums))
    full = rs.combine(model, [_rational(rng) for _ in range(rank)])
    assert _compare_walk(model, full, every)


def test_h_regular_matches_reference_on_every_levi():
    """The regular characteristic of every Levi of the small types, and of
    a sample of E-type Levis, built from the per-support value sums."""
    rng = random.Random("h-regular")
    for label in TYPES:
        model = rs.build(label)
        for pi0 in _levi_subsets(model, rng):
            _assert_same(ct.h_regular(model, pi0), ref.h_regular(model, pi0))


def test_regular_values_are_those_of_h_regular():
    """The simple values of the regular characteristic, summed over the
    supports inside Pi_0, are those of h_regular and of the reference's h,
    on every Levi of the small types and a sample of E-type Levis."""
    rng = random.Random("regular-values")
    for label in TYPES:
        model = rs.build(label)
        for pi0 in _levi_subsets(model, rng):
            values = ct._regular_values(model, rs.levi_mask(model, pi0))
            assert values == rs.h_values(model, ct.h_regular(model, pi0)), (label, pi0)
            assert values == rs.h_values(model, ref.h_regular(model, pi0)), (label, pi0)


@pytest.mark.parametrize("call, error, message", [
    (lambda e8: rs.Weight([1] * 9) + rs.Weight([1] * 8), ValueError,
     "vectors of different lengths: 9 and 8"),
    (lambda e8: rs.Weight([Fr(1, 3)] * 9) - rs.Weight([1] * 8), ValueError,
     "vectors of different lengths: 9 and 8"),
    (lambda e8: rs.Weight([1] * 2).dot(rs.Weight([Fr(1, 2)] * 3)), ValueError,
     "vectors of different lengths: 2 and 3"),
    (lambda e8: ct.in_levi_span(e8, rs.Weight([1] * 8), (0,)), ValueError,
     "expected 9 coordinates, got 8"),
    (lambda e8: rs.levi_coords(e8, rs.Weight([1] * 10), 0b1), ValueError,
     "expected 9 coordinates, got 10"),
    (lambda e8: ct.in_levi_span(e8, e8.simple_roots[0], (True,)), ValueError,
     "Pi_0 must be a subset of 0..7"),
    (lambda e8: ct.in_levi_span(e8, e8.simple_roots[0], (0, 8)), ValueError,
     "Pi_0 must be a subset of 0..7"),
    (lambda e8: ct.in_levi_span(e8, e8.simple_roots[0], (-1,)), ValueError,
     "Pi_0 must be a subset of 0..7"),
    (lambda e8: ct.h_regular(rs.build("E6"), (6,)), ValueError,
     "Pi_0 must be a subset of 0..5"),
    (lambda e8: rs.combine(e8, [1, Fr(1, 2)]), ValueError,
     "expected 8 simple-root coefficients"),
], ids=["add", "sub", "dot", "span_length", "levi_coords_length", "levi_bool",
        "levi_high", "levi_negative", "levi_rank", "combine"])
def test_fast_paths_keep_their_errors(call, error, message):
    with pytest.raises(error) as info:
        call(rs.build("E8"))
    assert type(info.value) is error and str(info.value) == message
