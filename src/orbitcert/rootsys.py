"""Exact root-system models on integer simple-root coordinates.

A model is its simple roots; every table is derived from them once.  The
invariant form is the integer symmetrized Cartan matrix ``gram`` over
``gram_den``, so that (alpha_i, alpha_j) = gram[i][j] / gram_den, and the
positive roots are enumerated on the integer Cartan matrix as integer
coefficient vectors on the simple roots (``pos_coefficients``).  Inside
the engine an element h of the Cartan is its integer values <alpha_i, h>
on the simple roots (``h_values``) and a weight is its Dynkin labels
<lambda, alpha_i^vee> over one common denominator (``dynkin_labels``).
Every pairing with a root is then an integer dot product with the root's
coefficients or with its coroot's coefficients on the simple coroots
(``coroot_coefficients``).  This is LiE's representation (van Leeuwen,
Cohen & Lisser, 1992), with the Cartan data of Bourbaki, Lie Groups and Lie
Algebras ch. VI.

Epsilon coordinates are the I/O format.  Weights are parsed, serialized and
returned as ``Weight`` vectors in an orthonormal ambient basis, where the
form is the dot product of canonical representatives.  A ``Weight`` is
integer numerators ``nums`` over one positive denominator ``den`` in lowest
terms, so its sums, scalings, dot products, equality and hash are integer
operations, and it is printed from them too (``to_strings``); its Fraction
coordinates ``coords`` are a view for library callers.  Every exact scalar
this layer returns (``Weight.dot``, ``pairing``) is an ``int``
when its value is an integer and a ``Fraction`` otherwise (``rational``).
The E-type models live in the 9-coordinate quotient of R^9 by the diagonal
(canonical representative: coordinate sum zero); E7 and E6 are the
sub-root-systems of E8 generated by {a2..a7, a8} and {a3..a7, a8}.  All
other types use the standard orthonormal epsilon-models and the identity
canonicalizer.  A vector enters simple-root coordinates once
(``simple_pairings``, ``dynkin_labels``, ``h_values``, ``levi_coords``, all
reading ``nums`` and ``den``) and leaves them once (``combine``); an element
h of the Cartan leaves its simple values through ``coweight``.

Each certificate input has one reader: ``levi_mask`` reads a Levi subset
Pi_0 into its bit set, ``h_values`` a characteristic h into its simple
values (or names the first positive root where h is not integral), and
``coroot_values`` lambda'.  ``parse_rational`` reads a string entry and
``read_weight`` a comma-separated vector of them.

A positive root that is not simple is a simple root plus a positive root
(Humphreys, Introduction to Lie Algebras, 10.2, Lemma A), and that positive
root has height one less.  Two tables follow from it and turn simple-root
numbers into values on every positive root in one pass by height, one
addition per root: ``root_steps`` writes each positive root as a simple root
or as an earlier positive root plus a simple root, and ``coroot_steps`` does
the same for the coroots on the simple coroots, in order of coroot height.
``root_values`` runs the first on h's simple values; ``coroot_values`` runs
the second on a weight's Dynkin labels.  ``levi_coords`` walks one cached
integer matrix, the fundamental coweights as ambient rows over one
denominator stacked on a basis of the complement of the root span: a
vector's product with a coweight row is its coordinate on that simple root,
and it lies in the span of a set of simple roots exactly when its products
with the other coweight rows and with the complement rows vanish, so the
walk ends at the first nonzero one of those; ``levi_part`` and
``coweight`` read the same coweight rows.

The simple system of a root subsystem is found by height too
(``height_simples``): walk the coefficient tuples of its positive roots in
order of height and keep a root unless it minus a simple root already kept
is in the subsystem.  By the same lemma inside the subsystem, whose simple
roots have smaller height than the roots above them, the walk is exact; it
costs one tuple subtraction and set lookup per pair of a root and a simple
root found before it.  The integral system walks its ``coroot_coefficients``
by coroot height (the order of ``coroot_steps``), and ``classify_gram``
names it from ``root_gram``, the integer Gram matrix of the roots found,
read from their ``pos_coefficients`` and ``gram``.
"""
from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul, sub

from . import linalg


class Weight:
    """A vector of exact rationals in a model's ambient coordinates.

    Held as integer numerators ``nums`` over one positive denominator
    ``den``, in lowest terms, so that equality, hashing and arithmetic are
    integer operations.  ``coords`` is the same vector as a tuple of
    Fractions, built on each call.  Entries (and the scalar of
    ``scalar * w``) are exact rationals or strings; anything else, a float
    included, raises TypeError.  Immutable.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coords):
        fracs = tuple(map(_exact, coords))
        den = math.lcm(*(c.denominator for c in fracs))
        _set(self, "nums", tuple(c.numerator * (den // c.denominator) for c in fracs))
        _set(self, "den", den)

    @staticmethod
    def from_ints(nums, den: int = 1) -> "Weight":
        """The vector nums / den for integers nums and den > 0."""
        g = math.gcd(den, *nums)
        if g == 1:
            return _weight(tuple(nums), den)
        return _weight(tuple([x // g for x in nums]), den // g)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __setattr__(self, name, value):
        raise AttributeError(f"Weight is immutable: cannot assign {name!r}")

    def __add__(self, other: "Weight", op=add) -> "Weight":
        """self + other, or self - other with ``op=sub`` (``__sub__``): over
        the larger denominator when one divides the other, else the product."""
        a, b = self.nums, other.nums
        if len(a) != len(b):
            raise _length_error(self, other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return Weight.from_ints(list(map(op, a, b)), d1)
        if d1 % d2 == 0:
            k = op(0, d1 // d2)  # the scale of other, with the sign of op
            return Weight.from_ints([x + k * y for x, y in zip(a, b)], d1)
        if d2 % d1 == 0:
            k = d2 // d1
            return Weight.from_ints(list(map(op, [k * x for x in a], b)), d2)
        k = op(0, d1)
        return Weight.from_ints([x * d2 + k * y for x, y in zip(a, b)], d1 * d2)

    def __sub__(self, other: "Weight") -> "Weight":
        return self.__add__(other, sub)

    def __neg__(self) -> "Weight":
        return _weight(tuple(-x for x in self.nums), self.den)

    def __rmul__(self, scalar) -> "Weight":
        s = _exact(scalar)
        p = s.numerator
        return Weight.from_ints([p * x for x in self.nums], s.denominator * self.den)

    def dot(self, other: "Weight") -> numbers.Rational:
        """The dot product, as ``rational`` gives it: an int when integral."""
        a, b = self.nums, other.nums
        if len(a) != len(b):
            raise _length_error(self, other)
        num, den = sum(map(mul, a, b)), self.den * other.den
        return num // den if num % den == 0 else Fraction(num, den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Weight):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __len__(self) -> int:
        return len(self.nums)

    def __repr__(self) -> str:
        return f"Weight({self})"

    def __str__(self) -> str:
        return "[" + ", ".join(self.to_strings()) + "]"

    def to_strings(self) -> list[str]:
        """Serialize as exact "p/q" strings in lowest terms ("p" when q is 1),
        the strings ``str(Fraction)`` gives."""
        den = self.den
        out = []
        for x in self.nums:
            g = math.gcd(x, den)
            out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return out

    def __reduce__(self):
        return _weight, (self.nums, self.den)


_set = object.__setattr__


def _exact(value) -> Fraction:
    """An exact rational, or a string read by ``parse_rational``, as a
    Fraction; TypeError otherwise (a float would enter as its binary expansion)."""
    if isinstance(value, str):
        return parse_rational(value)
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"a Weight entry must be an exact rational or a string, "
                        f"not {type(value).__name__}: {value!r}")
    return Fraction(value)


def parse_rational(token: str) -> Fraction:
    """The rational ``Fraction`` reads from a string, surrounding whitespace
    stripped; ValueError for exponent notation, which ``Fraction`` would
    expand to 10**exponent first, and for a zero denominator."""
    token = token.strip()
    if "e" in token or "E" in token:
        raise ValueError(f"exponent notation is not accepted: {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


# the documented token form [+-]p[/q], in ASCII digits, read straight to integers
_INTEGER_TOKEN = r"([+-]?[0-9]+)(?:/([0-9]+))?"

# The size limits of a weight read from text: the digits written in each
# token's numerator and in its denominator, and the digits of the lcm of the
# weight's denominators.  An integer a command prints from such a weight has
# at most a few digits more than a numerator and the lcm together, so it
# stays under the 4300 digits that Python converts between int and str.
MAX_TOKEN_DIGITS = 2000
MAX_LCM_DIGITS = 2000
_LCM_BOUND = 10 ** MAX_LCM_DIGITS


def read_weight(model: RootSystemModel, text: str, root_coords: bool) -> Weight:
    """The comma-separated tokens of ``text`` as one Weight over the lcm of
    their denominators: epsilon coordinates, canonicalized, or with
    ``root_coords`` coefficients on the simple roots.  A token of the form
    [+-]p[/q] is read as integers in the order ``Fraction`` reads it (p,
    then q, then the zero check); any other token goes through
    ``parse_rational``, so every value and every error is the one
    ``Fraction`` gives, except that a token whose numerator or denominator
    is written with more than MAX_TOKEN_DIGITS digits, or a weight whose
    lcm of denominators has more than MAX_LCM_DIGITS digits, raises
    ValueError naming the limit before any value is built from it."""
    fullmatch = re.compile(_INTEGER_TOKEN).fullmatch  # compiled on first use, then from re's cache
    nums, dens = [], []
    for part in text.split(","):
        token = part.strip()
        if len(token) > MAX_TOKEN_DIGITS:  # a shorter token has fewer digits in each part
            _check_token_digits(token)
        m = fullmatch(token)
        if m is None:
            value = parse_rational(token)
            num, den = value.numerator, value.denominator
        else:
            p, q = m.groups()
            num, den = int(p), 1 if q is None else int(q)
            if den == 0:
                raise ValueError(f"zero denominator in {token!r}")
        nums.append(num)
        dens.append(den)
    den = math.lcm(*dens)
    if den >= _LCM_BOUND:
        raise ValueError(f"the lcm of the denominators has more than the limit of "
                         f"{MAX_LCM_DIGITS} digits")
    nums = [x * (den // d) for x, d in zip(nums, dens)]
    if root_coords:
        return combine(model, nums, den)
    return canonicalize(model, Weight.from_ints(nums, den))


def _check_token_digits(token: str) -> None:
    """ValueError when the numerator or the denominator written in ``token``
    (the parts before and after "/") has more than MAX_TOKEN_DIGITS digits,
    so that no part is too long for ``int``.  A decimal's denominator, a
    power of ten, is bounded by the lcm check."""
    numerator, _, denominator = token.partition("/")
    for part, what in ((numerator, "numerator"), (denominator, "denominator")):
        digits = sum(map(str.isdigit, part))
        if digits > MAX_TOKEN_DIGITS:
            raise ValueError(f"a {what} has {digits} digits, more than the limit of "
                             f"{MAX_TOKEN_DIGITS}")


def rational(num: int, den: int) -> numbers.Rational:
    """num / den for integers num and den > 0: an int when den divides num,
    else a Fraction.  Both have the same ``==``, ``hash`` and ``str``, and an
    int is cheaper to hash, compare and add."""
    return num // den if num % den == 0 else Fraction(num, den)


def _length_error(u: Weight, v: Weight) -> ValueError:
    return ValueError(f"vectors of different lengths: {len(u.nums)} and {len(v.nums)}")


def _weight(nums: tuple[int, ...], den: int) -> Weight:
    """A Weight from numerators already in lowest terms over den > 0."""
    w = object.__new__(Weight)
    _set(w, "nums", nums)
    _set(w, "den", den)
    return w


# The largest rank a label may ask for: D32 builds in 0.4 s but A120 takes 17 s
# (2-core host, Python 3.11), and labels come from outside the program.
MAX_RANK = 32

_VALID_RANKS = {"A": (1, MAX_RANK), "B": (2, MAX_RANK), "C": (2, MAX_RANK),
                "D": (4, MAX_RANK), "E": (6, 8), "F": (4, 4), "G": (2, 2)}

# positive-root counts of the irreducible types, by series letter
_POS_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def parse_label(label: str) -> tuple[str, int]:
    """Parse a Cartan label like "E8" or "a5" into (series, rank); ValueError
    when malformed or when the rank is outside the series' range (at most MAX_RANK)."""
    m = re.fullmatch(r"([A-Ga-g])\s*_?\s*(\d+)", label.strip())
    if not m:
        raise ValueError(f"malformed Cartan type {label!r}")
    series, digits = m.group(1).upper(), decimal_digits(m.group(2))
    lo, hi = _VALID_RANKS[series]
    if len(digits) > 2 or not lo <= int(digits) <= hi:  # MAX_RANK has two digits
        raise ValueError(f"rank out of range for type {series}{digits}")
    return series, int(digits)


def decimal_digits(digits: str) -> str:
    """A run of decimal digits, as ``\\d`` matches them, written as
    ``str(int(digits))`` writes it: ASCII, without leading zeros.  Read one
    digit at a time, since ``int`` refuses a run of more than 4300 digits."""
    return "".join(str(int(c)) for c in digits).lstrip("0") or "0"


class RootSystemModel:
    """Immutable simple root system, held as its simple roots.

    Models are interned by :func:`build` (one instance per Cartan label), so
    identity comparison and hashing are the intended semantics, and a
    pickled model loads as the interned one.  Every table is derived from
    the simple roots once, on first use (``cached_property`` writes it to
    the instance ``__dict__``, past ``__setattr__``); the integer ones
    (``gram``, ``cartan``, ``pos_coefficients``, ``coroot_coefficients``)
    carry the arithmetic, and ``positive_roots`` are the same roots in
    epsilon coordinates, in the order of ``pos_coefficients``.
    """

    cartan_type: str
    ambient_dim: int
    simple_roots: tuple[Weight, ...]
    sum_zero: bool  # canonicalizer: project onto the sum-zero hyperplane?

    def __init__(self, cartan_type, ambient_dim, simple_roots, sum_zero):
        self.__dict__.update(cartan_type=cartan_type, ambient_dim=ambient_dim,
                             simple_roots=simple_roots, sum_zero=sum_zero)

    def __setattr__(self, name, value):
        raise AttributeError(f"RootSystemModel is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RootSystemModel is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return build, (self.cartan_type,)

    def __repr__(self):
        return f"build({self.cartan_type!r})"

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @property
    def dim(self) -> int:
        """dim g = #roots + rank."""
        return 2 * len(self.pos_coefficients) + self.rank

    @cached_property
    def pos_coefficients(self) -> tuple[tuple[int, ...], ...]:
        """The positive roots on the simple roots (``_positive_coefficients``)."""
        return tuple(_positive_coefficients(self.cartan))

    @cached_property
    def positive_roots(self) -> tuple[Weight, ...]:
        return tuple(combine(self, c) for c in self.pos_coefficients)

    @cached_property
    def roots(self) -> tuple[Weight, ...]:
        return self.positive_roots + tuple(-b for b in self.positive_roots)

    @cached_property
    def _root_index(self) -> dict[Weight, int]:
        """Position in ``roots``: below len(positive_roots) exactly for positive roots."""
        return {beta: k for k, beta in enumerate(self.roots)}

    @cached_property
    def _basis(self) -> tuple[list[list[int]], list[tuple[int, ...]], int]:
        """(rows, columns, den): the simple roots as integer ambient vectors / den."""
        rows, den = _common_rows(self.simple_roots)
        return rows, list(zip(*rows)), den

    @cached_property
    def _form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        rows, _, den = self._basis
        return _gram(rows, den)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The integer symmetrized Cartan matrix: (a_i, a_j) = gram[i][j] / gram_den."""
        return self._form[0]

    @property
    def gram_den(self) -> int:
        return self._form[1]

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """cartan[i][j] = <a_i, a_j^vee>."""
        return _cartan_of(self.gram)

    @cached_property
    def coroot_scale(self) -> tuple[list[int], int]:
        """(nums, den): a_i^vee = (nums[i] / den) a_i, i.e. 2 / (a_i, a_i)."""
        norms = [self.gram[i][i] for i in range(self.rank)]
        den = math.lcm(*norms)
        return [2 * self.gram_den * (den // g) for g in norms], den

    @cached_property
    def supports(self) -> tuple[int, ...]:
        """Bit i of supports[k] is set when alpha_i occurs in positive root k."""
        return tuple(sum(1 << i for i, c in enumerate(coeff) if c)
                     for coeff in self.pos_coefficients)

    @cached_property
    def coroot_coefficients(self) -> tuple[tuple[int, ...], ...]:
        """Each positive root's coroot on the simple coroots:
        beta^vee = sum_i c_i (a_i, a_i) / (beta, beta) a_i^vee."""
        out = []
        for coeff in self.pos_coefficients:
            norm = sum(c * sum(map(mul, row, coeff)) for c, row in zip(coeff, self.gram))
            row = []
            for i, c in enumerate(coeff):
                q, r = divmod(c * self.gram[i][i], norm)
                if r:
                    raise RuntimeError(f"{self.cartan_type}: non-integral coroot {coeff}")
                row.append(q)
            out.append(tuple(row))
        return tuple(out)

    @cached_property
    def root_steps(self) -> tuple[tuple[int, int, int], ...]:
        """``_steps`` of the positive roots, in the model order (by height)."""
        return _steps(self.pos_coefficients, range(len(self.pos_coefficients)))

    @cached_property
    def coroot_steps(self) -> tuple[tuple[int, int, int], ...]:
        """``_steps`` of the positive coroots on the simple coroots, by
        coroot height (stable in the model order)."""
        coeffs = self.coroot_coefficients
        heights = [sum(cv) for cv in coeffs]
        return _steps(coeffs, sorted(range(len(coeffs)), key=heights.__getitem__))

    @cached_property
    def span_rows(self) -> tuple[list[list[int]], int]:
        """(rows, den) for the walk ``levi_coords`` makes over w.nums, one
        integer product per row.  The first rank rows are the fundamental
        coweights: omega_i^vee = rows[i] / den in ambient coordinates, the
        inverse of the Gram matrix times the simple-root rows.  Since
        (a_j, omega_i^vee) = delta_ij, w's orthogonal projection onto the
        span of the simple roots is sum_i (rows[i] . w.nums) / (den w.den) a_i.  The rows after them
        span the orthogonal complement of that span (``span_complement``),
        so w lies in the span exactly when they all pair to zero with it,
        and in the span of a subset of the simple roots when, besides, its
        coordinates on the other simple roots vanish."""
        inverse = linalg.inverse(self.gram)
        if inverse is None:
            raise RuntimeError(f"{self.cartan_type}: the Gram matrix is singular")
        inv, inv_den = inverse
        basis, columns, basis_den = self._basis
        # omega_i^vee = sum_j gram_den inv[i][j] a_j / inv_den: (a_i, a_j) = gram[i][j] / gram_den
        coords = [[self.gram_den * sum(map(mul, row, col)) for col in columns] for row in inv]
        return coords + linalg.kernel_basis(basis), inv_den * basis_den

    @cached_property
    def support_values(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(support, values) for each distinct bit set of ``supports``: the
        values <a_j, beta^vee> on the simple roots, summed over the positive
        roots beta with that support.  A sum of coroots over the roots whose
        support lies in a set of simple roots runs over these, fewer than the
        roots (44 against 120 for E8)."""
        sums: dict[int, list[int]] = {}
        for s, cv in zip(self.supports, self.coroot_coefficients):
            acc = sums.setdefault(s, [0] * self.rank)
            for i, c in enumerate(cv):
                acc[i] += c
        # <a_j, sum_i c_i a_i^vee> = sum_i cartan[j][i] c_i
        return tuple((s, tuple(sum(map(mul, row, acc)) for row in self.cartan))
                     for s, acc in sums.items())

    def is_root(self, v: Weight) -> bool:
        return v in self._root_index


def canonicalize(model: RootSystemModel, raw_coords) -> Weight:
    """Canonical representative of a raw coordinate vector or a Weight.

    For the E-type quotient models this subtracts the coordinate mean
    (orthogonal projection onto the sum-zero hyperplane); for all other
    models it is the identity.  Idempotent either way.
    """
    w = raw_coords if isinstance(raw_coords, Weight) else Weight(raw_coords)
    _check_length(model, w)
    return _sum_zero(w) if model.sum_zero else w


def _check_length(model: RootSystemModel, w: Weight) -> None:
    if len(w.nums) != model.ambient_dim:
        raise ValueError(f"expected {model.ambient_dim} coordinates, got {len(w.nums)}")


def _sum_zero(w: Weight) -> Weight:
    """w minus its coordinate mean."""
    n, total = len(w.nums), sum(w.nums)
    if total == 0:
        return w
    return Weight.from_ints([x * n - total for x in w.nums], w.den * n)


def pairing(model: RootSystemModel, lam: Weight, root: Weight) -> numbers.Rational:
    """The exact pairing <lam, root^vee> = 2(lam, root)/(root, root)."""
    if not model.is_root(root):
        raise ValueError(f"{root} is not a root of {model.cartan_type}")
    return rational(*_coroot_pairing(lam, root))


def _coroot_pairing(lam: Weight, a: Weight) -> tuple[int, int]:
    """(num, den) with <lam, a^vee> = 2(lam, a)/(a, a) = num / den and den > 0."""
    if len(lam.nums) != len(a.nums):
        raise _length_error(lam, a)
    return (2 * sum(map(mul, lam.nums, a.nums)) * a.den,
            lam.den * sum(x * x for x in a.nums))


def _common_rows(weights) -> tuple[list[list[int]], int]:
    """Weights as integer rows over their least common denominator."""
    weights = list(weights)
    den = math.lcm(*(w.den for w in weights))
    return [[x * (den // w.den) for x in w.nums] for w in weights], den


def _gram(rows, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(gram, gram_den) for the vectors rows[i] / den, reduced by their common factor."""
    raw = [[sum(map(mul, u, v)) for v in rows] for u in rows]
    divisor = math.gcd(math.gcd(*(x for row in raw for x in row)), den * den)
    return tuple(tuple(x // divisor for x in row) for row in raw), den * den // divisor


def _cartan_of(gram) -> tuple[tuple[int, ...], ...]:
    """<a_i, a_j^vee> = 2 (a_i, a_j) / (a_j, a_j) from a Gram matrix (any scale)."""
    out = []
    for row in gram:
        cartan_row = []
        for j, x in enumerate(row):
            q, r = divmod(2 * x, gram[j][j])
            if r:
                raise ValueError("pairings are not those of a crystallographic simple system")
            cartan_row.append(q)
        out.append(tuple(cartan_row))
    return tuple(out)


def simple_pairings(model: RootSystemModel, w: Weight) -> tuple[list[int], int]:
    """(nums, den) with (a_i, w) = nums[i] / den on each simple root."""
    _check_length(model, w)
    nums = w.nums
    rows, _, basis_den = model._basis
    return [sum(map(mul, row, nums)) for row in rows], w.den * basis_den


def dynkin_labels(model: RootSystemModel, w: Weight) -> tuple[list[int], int]:
    """(labels, den) with <w, a_i^vee> = labels[i] / den on each simple root.

    <w, beta^vee> for the positive root k is the integer dot product of
    ``model.coroot_coefficients[k]`` with ``labels``, over ``den``.
    """
    nums, den = simple_pairings(model, w)
    scale, scale_den = model.coroot_scale
    return list(map(mul, nums, scale)), den * scale_den


def coroot_values(model: RootSystemModel, w: Weight) -> tuple[list[int], int]:
    """(values, den) with <w, beta^vee> = values[k] / den on positive root k:
    the Dynkin labels, read once, summed along ``coroot_steps``."""
    labels, den = dynkin_labels(model, w)
    return _step_values(model.coroot_steps, labels), den


def h_values(model: RootSystemModel, h: Weight) -> list[int]:
    """The integers <a_i, h> on the simple roots; <beta, h> for a root is
    the dot product with the root's coefficients.

    h is integral on every root exactly when it is on the simple roots.
    Otherwise this raises ValueError naming the first positive root, in
    model order, on which h is not integral, and h's value there.
    """
    nums, den = simple_pairings(model, h)
    if not any([x % den for x in nums]):
        return [x // den for x in nums]
    k, value = next((k, v) for k, v in enumerate(root_values(model, nums)) if v % den)
    raise ValueError(f"h is not integral on root {model.positive_roots[k]}: "
                     f"<a,h> = {rational(value, den)}")


def root_values(model: RootSystemModel, values) -> list[int]:
    """<beta, h> on each positive root, from h's values on the simple roots,
    summed along ``root_steps``."""
    return _step_values(model.root_steps, values)


def _step_values(steps, simple_values) -> list[int]:
    """A linear form on every root of ``steps``, from its simple values."""
    out = [0] * len(steps)
    for k, parent, i in steps:
        out[k] = simple_values[i] if parent < 0 else out[parent] + simple_values[i]
    return out


def _steps(coeffs, order) -> tuple[tuple[int, int, int], ...]:
    """(k, parent, i) for each positive root k of a root system, given by its
    coefficient vectors ``coeffs`` on the simple roots, in ``order`` (by
    weakly increasing height): root k is the simple root a_i when parent is
    -1, and otherwise root ``parent``, earlier in the order, plus a_i."""
    index = {c: k for k, c in enumerate(coeffs)}
    steps = []
    for k in order:
        c = coeffs[k]
        if sum(c) == 1:
            steps.append((k, -1, c.index(1)))
            continue
        for i, x in enumerate(c):
            parent = index.get(c[:i] + (x - 1,) + c[i + 1:]) if x else None
            if parent is not None:
                steps.append((k, parent, i))
                break
        else:
            raise RuntimeError(f"positive root {c} is no positive root plus a simple root")
    return tuple(steps)


def levi_coords(model: RootSystemModel, w: Weight, mask: int
                ) -> tuple[numbers.Rational, ...] | None:
    """w's coefficients on the simple roots of Pi_0, given as its bit set
    ``mask`` (a subset of 0..rank-1), in increasing index, when w lies in
    their span, each an int when integral and else a Fraction; None when it
    does not.  One walk over ``span_rows``: the product with a coweight row
    in Pi_0 is that coefficient, over ``den`` times w.den, and the first
    nonzero product with a coweight row outside Pi_0 or with a complement
    row (no bit of ``mask`` is set that high) ends the walk."""
    _check_length(model, w)
    nums = w.nums
    rows, den = model.span_rows
    den *= w.den
    coeffs = []
    for i, row in enumerate(rows):
        x = sum(map(mul, row, nums))
        if mask >> i & 1:  # rational(x, den), inlined on (C)'s hot path
            coeffs.append(x // den if x % den == 0 else Fraction(x, den))
        elif x:
            return None
    return tuple(coeffs)


def levi_part(model: RootSystemModel, w: Weight, mask: int) -> Weight:
    """sum_i c_i a_i over the simple roots of Pi_0, given as its bit set
    ``mask``, where sum_i c_i a_i is w's orthogonal projection onto the
    span of all the simple roots: one integer product with each coweight
    row of ``span_rows`` in Pi_0, then ``combine``."""
    _check_length(model, w)
    nums = w.nums
    rows, den = model.span_rows
    return combine(model, [sum(map(mul, row, nums)) if mask >> i & 1 else 0
                           for i, row in enumerate(rows[:model.rank])], den * w.den)


def combine(model: RootSystemModel, coeffs, den: int = 1) -> Weight:
    """The epsilon vector sum_i (coeffs[i] / den) a_i; coeffs are ints or
    exact rationals."""
    if len(coeffs) != model.rank:
        raise ValueError(f"expected {model.rank} simple-root coefficients")
    if not all([isinstance(c, int) for c in coeffs]):
        scaled = Weight(coeffs)
        coeffs, den = scaled.nums, den * scaled.den
    _, columns, basis_den = model._basis
    return Weight.from_ints([sum(map(mul, col, coeffs)) for col in columns],
                            den * basis_den)


def _positive_coefficients(cartan) -> list[tuple[int, ...]]:
    """Coefficient vectors of all positive roots of a Cartan matrix, via root strings.

    Walks up by height: beta + alpha_i is a root iff the alpha_i-string
    through beta does not stop, i.e. p - <beta, alpha_i^vee> > 0 where p is
    the number of times alpha_i can be subtracted.  Sorted by height, then
    by coefficient vector.
    """
    n = len(cartan)
    found = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    frontier = sorted(found)
    while frontier:
        new: list[tuple[int, ...]] = []
        for beta in frontier:
            for i in range(n):
                gamma = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                if gamma in found:
                    continue
                p = 0
                while beta[:i] + (beta[i] - p - 1,) + beta[i + 1:] in found:
                    p += 1
                if p - sum(c * cartan[j][i] for j, c in enumerate(beta)) > 0:
                    found.add(gamma)
                    new.append(gamma)
        frontier = new
    return sorted(found, key=lambda c: (sum(c), c))


def _eps(i: int, dim: int) -> Weight:
    return Weight(tuple(Fraction(1) if k == i else Fraction(0) for k in range(dim)))


def _chain(dim: int, indices) -> list[Weight]:
    """The simple roots e_i - e_(i+1) for i in ``indices``, in R^dim."""
    return [_eps(i, dim) - _eps(i + 1, dim) for i in indices]


def _simple_root_data(series: str, rank: int) -> tuple[int, list[Weight], bool]:
    """(ambient_dim, simple roots, sum_zero flag) for one irreducible type."""
    if series == "A":
        dim = rank + 1
        return dim, _chain(dim, range(rank)), False
    if series == "B":
        return rank, _chain(rank, range(rank - 1)) + [_eps(rank - 1, rank)], False
    if series == "C":
        return rank, _chain(rank, range(rank - 1)) + [2 * _eps(rank - 1, rank)], False
    if series == "D":
        last = _eps(rank - 2, rank) + _eps(rank - 1, rank)
        return rank, _chain(rank, range(rank - 1)) + [last], False
    if series == "G":
        return 3, _chain(3, range(1)) + [Weight((-2, 1, 1))], False
    if series == "F":
        half = Fraction(1, 2)
        return 4, _chain(4, range(1, 3)) + [_eps(3, 4), Weight((half, -half, -half, -half))], False
    raise RuntimeError(f"no simple roots for series {series}")


def _e8_simples() -> list[Weight]:
    dim = 9
    return _chain(dim, range(7)) + [_sum_zero(_eps(5, dim) + _eps(6, dim) + _eps(7, dim))]


# E7/E6 are generated by these (0-based) subsets of the E8 simple system
_E_SUBSETS = {7: (1, 2, 3, 4, 5, 6, 7), 6: (2, 3, 4, 5, 6, 7)}


@lru_cache(maxsize=None)
def build(label: str) -> RootSystemModel:
    """The exact model for a Cartan type label such as "E8" or "B3"; every
    spelling of one (series, rank), such as "e8" and "E_8", gives the same object."""
    return _build(*parse_label(label))


@lru_cache(maxsize=None)
def _build(series: str, rank: int) -> RootSystemModel:
    if series == "E":
        e8_simples = _e8_simples()
        simples = (e8_simples if rank == 8
                   else [e8_simples[i] for i in _E_SUBSETS[rank]])
        dim, sum_zero = 9, True
    else:
        dim, simples, sum_zero = _simple_root_data(series, rank)
    model = RootSystemModel(f"{series}{rank}", dim, tuple(simples), sum_zero)
    coeffs = model.pos_coefficients
    expected = _POS_COUNTS[series](rank)
    if len(coeffs) != expected:
        raise RuntimeError(
            f"{model.cartan_type}: enumerated {len(coeffs)} positive roots, expected {expected}")
    # rho is integral: <rho, a_i^vee> = 1 on every simple root
    two_rho = [sum(col) for col in zip(*coeffs)]
    if any(sum(map(mul, two_rho, col)) != 2 for col in zip(*model.cartan)):
        raise RuntimeError(f"{model.cartan_type}: <rho, a_i^vee> is not 1 on every simple root")
    return model


@lru_cache(maxsize=None)
def rho(model: RootSystemModel) -> Weight:
    """Half-sum of the positive roots; <rho, a_i^vee> = 1 for simple a_i."""
    return combine(model, [sum(col) for col in zip(*model.pos_coefficients)], 2)


def coweight(model: RootSystemModel, values: list[int]) -> Weight:
    """The element h of span(Pi) with <a_i, h> = values[i] on the simple
    roots, sum_i values[i] omega_i^vee, for integer values: one product
    with the coweight rows of ``span_rows``."""
    rank = model.rank
    if len(values) != rank:
        raise ValueError(f"expected {rank} simple values")
    rows, den = model.span_rows
    return Weight.from_ints([sum(map(mul, col, values)) for col in zip(*rows[:rank])], den)


@lru_cache(maxsize=None)
def fundamental_coweights(model: RootSystemModel) -> tuple[Weight, ...]:
    """Coweights w_i in span(Pi), as weights via the form: (a_j, w_i) = delta_ij;
    the first rank rows of ``span_rows``."""
    rows, den = model.span_rows
    return tuple(Weight.from_ints(row, den) for row in rows[:model.rank])


@lru_cache(maxsize=None)
def span_complement(model: RootSystemModel) -> tuple[Weight, ...]:
    """Basis of the orthogonal complement of span(Pi) in the ambient space
    (the rows of ``span_rows`` after the coweights).

    A vector lies in the rational span of the simple roots iff it pairs to
    zero with every member (empty for models whose roots span the ambient).
    """
    rows, _ = model.span_rows
    return tuple(Weight.from_ints(row) for row in rows[model.rank:])


def levi_mask(model: RootSystemModel, pi0) -> int:
    """Pi_0, a subset of the simple-root indices, as its bit set (bit i for
    a_i).  Every entry point that takes Pi_0 reads it here: ValueError for
    an index that is not an int (a bool is not) or is outside 0..rank-1.
    Pi_0 is a set, so a repeated index is read once: [0, 0] is [0]."""
    rank = model.rank
    mask = 0
    for i in pi0:
        if type(i) is not int or not 0 <= i < rank:
            raise ValueError(f"Pi_0 must be a subset of 0..{rank - 1}")
        mask |= 1 << i
    return mask


def height_simples(vectors: list[tuple[int, ...]]) -> list[int]:
    """Positions of the simple roots among the coefficient tuples of a root
    subsystem's positive roots, listed by weakly increasing height: a root
    is simple unless it minus a simple root found before it is a member."""
    members = set(vectors)
    simple: list[int] = []
    for pos, v in enumerate(vectors):
        if not any(tuple(map(sub, v, vectors[s])) in members for s in simple):
            simple.append(pos)
    return simple


def root_gram(model: RootSystemModel, ks) -> list[list[int]]:
    """(beta_k, beta_j) * gram_den for the positive roots k, j in ``ks``:
    their coefficient vectors times the symmetric ``gram``."""
    coeffs = [model.pos_coefficients[k] for k in ks]
    rows = [[sum(map(mul, c, g)) for g in model.gram] for c in coeffs]
    return [[sum(map(mul, row, c)) for c in coeffs] for row in rows]


def classify_gram(gram) -> tuple[str, ...]:
    """Cartan labels of the components of a simple system given by its
    integer Gram matrix under a positive definite form (any positive scale),
    such as ``root_gram`` of a subsystem's simple roots; as
    ``finite_cartan``, TypeError for an entry that is not an int and
    ValueError for a matrix that is not square, symmetric and positive
    definite.  B/C, F and G components are told apart by relative root
    lengths, and a rank-2 double-bond component is "B2".

    Independent vectors with Cartan entries in {0, -1, -2, -3} form one of
    the diagrams A-G (Humphreys, Introduction to Lie Algebras, 11.4), so a
    component is named from its rank, largest bond, number of short simple
    roots and the leaf count at its branch node.
    """
    cartan = finite_cartan(gram)
    adj = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(cartan)]
    # connected components of the Dynkin graph, each grown while it is read
    seen: set[int] = set()
    labels = []
    for start in range(len(gram)):
        if start not in seen:
            comp = [start]
            seen.add(start)
            for i in comp:
                new = [j for j in adj[i] if j not in seen]
                seen.update(new)
                comp.extend(new)
            labels.append(_component_type(comp, cartan, adj, gram))
    labels.sort(key=lambda label: (-label[1], label[0]))
    return tuple(f"{series}{rank}" for series, rank in labels)


def finite_cartan(gram) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of a simple system given by its integer Gram matrix
    (as for ``classify_gram``); TypeError for an entry that is not an int (a
    bool is not).  ValueError unless the matrix is square and symmetric, the
    vectors are linearly independent, the form is positive definite (which
    a diagonal entry that is not positive, or an indefinite hyperbolic
    diagram, is not) and the off-diagonal Cartan entries are in
    {0, -1, -2, -3}."""
    bad = [x for row in gram for x in row if type(x) is not int]
    if bad:
        raise TypeError(f"a Gram matrix entry must be an int, not {type(bad[0]).__name__}: "
                        f"{bad[0]!r}")
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError(f"Gram matrix is not square: {n} rows of lengths "
                         f"{sorted({len(row) for row in gram})}")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise ValueError("Gram matrix is not symmetric")
    if not linalg.positive_definite(gram):  # else the vectors are independent
        if len(linalg.integer_row_basis(gram)) != n:
            raise ValueError("simple system is not linearly independent")
        raise ValueError("Gram matrix is not positive definite")
    cartan = _cartan_of(gram)
    if any(x not in (0, -1, -2, -3) for i, row in enumerate(cartan)
           for j, x in enumerate(row) if i != j):
        raise ValueError("pairings are not those of a finite-type simple system")
    return cartan


def _component_type(comp: list[int], cartan, adj, gram) -> tuple[str, int]:
    """(series, rank) of one connected component of a finite-type diagram."""
    n = len(comp)
    bond = max((cartan[i][j] * cartan[j][i] for i in comp for j in adj[i]), default=0)
    if bond == 3:
        return "G", 2
    if bond == 2:
        longest = max(gram[i][i] for i in comp)
        short = sum(1 for i in comp if gram[i][i] < longest)
        if short == 1:  # B2 included: one short and one long root
            return "B", n
        return ("C", n) if short == n - 1 else ("F", 4)
    branch = next((i for i in comp if len(adj[i]) == 3), None)
    if branch is None:
        return "A", n
    leaves = sum(1 for j in adj[branch] if len(adj[j]) == 1)
    return ("D", n) if leaves >= 2 else ("E", n)


def _label_sort_key(label: str):
    series, rank = parse_label(label)
    return (-rank, series)


def format_type(labels) -> str:
    """Render a multiset of component labels as "A5+A2+A1"."""
    return "+".join(sorted(labels, key=_label_sort_key)) if labels else "0"
