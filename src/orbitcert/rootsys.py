"""Exact root-system models in epsilon-coordinates.

Every model stores its simple and positive roots as vectors of exact
rationals in an orthonormal ambient basis; the invariant form is the
standard dot product of canonical representatives.  The E-type models live
in the 9-coordinate quotient of R^9 by the diagonal (canonical
representative: coordinate sum zero); E7 and E6 are the sub-root-systems
of E8 generated by {a2..a7, a8} and {a3..a7, a8}.  All other types use the
standard orthonormal epsilon-models and the identity canonicalizer.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg

Rational = Fraction


@dataclass(frozen=True)
class Weight:
    """A vector of exact rationals in a model's ambient coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    @classmethod
    def _raw(cls, coords: tuple[Fraction, ...]) -> "Weight":
        # fast path for internal arithmetic: coords are known-exact already
        w = object.__new__(cls)
        object.__setattr__(w, "coords", coords)
        return w

    def __add__(self, other: "Weight") -> "Weight":
        return Weight._raw(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight._raw(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight._raw(tuple(-a for a in self.coords))

    def __rmul__(self, scalar) -> "Weight":
        s = Fraction(scalar)
        return Weight._raw(tuple(s * a for a in self.coords))

    def dot(self, other: "Weight") -> Fraction:
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.coords)
            object.__setattr__(self, "_hash", h)
        return h

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def to_strings(self) -> list[str]:
        """Serialize as exact "p/q" strings (lowest terms)."""
        return [str(c) for c in self.coords]

    @classmethod
    def from_strings(cls, items) -> "Weight":
        return cls(tuple(Fraction(s) for s in items))


def weight(coords) -> Weight:
    """Coerce a sequence of ints/Fractions/strings into a Weight."""
    return Weight(tuple(Fraction(c) for c in coords))


_VALID_RANKS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (4, None),
                "E": (6, 8), "F": (4, 4), "G": (2, 2)}

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
    """Parse a Cartan label like "E8" or "a5" into (series, rank)."""
    m = re.fullmatch(r"([A-Ga-g])\s*_?\s*(\d+)", label.strip())
    if not m:
        raise ValueError(f"malformed Cartan type {label!r}")
    series, rank = m.group(1).upper(), int(m.group(2))
    lo, hi = _VALID_RANKS[series]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"rank out of range for type {series}{rank}")
    return series, rank


def positive_count(label: str) -> int:
    """Number of positive roots of an irreducible type given by its label."""
    series, rank = parse_label(label)
    return _POS_COUNTS[series](rank)


@dataclass(frozen=True, eq=False)
class RootSystemModel:
    """Immutable enumeration of a simple root system with its invariant form.

    Models are interned by :func:`build` (one instance per Cartan label), so
    identity comparison and hashing are the intended semantics.
    """

    cartan_type: str
    ambient_dim: int
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    sum_zero: bool  # canonicalizer: project onto the sum-zero hyperplane?
    pos_coefficients: tuple[tuple[int, ...], ...] = field(repr=False, default=())

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @property
    def dim(self) -> int:
        """dim g = #roots + rank."""
        return 2 * len(self.positive_roots) + self.rank

    @cached_property
    def roots(self) -> tuple[Weight, ...]:
        return self.positive_roots + tuple(-b for b in self.positive_roots)

    @cached_property
    def _pos_set(self) -> frozenset[Weight]:
        return frozenset(self.positive_roots)

    @cached_property
    def _root_set(self) -> frozenset[Weight]:
        return frozenset(self.roots)

    @cached_property
    def _coeff_map(self) -> dict[Weight, tuple[int, ...]]:
        return dict(zip(self.positive_roots, self.pos_coefficients))

    def inner(self, u: Weight, v: Weight) -> Fraction:
        """The invariant symmetric form: the dot product of canonical reps."""
        return u.dot(v)

    def is_root(self, v: Weight) -> bool:
        return v in self._root_set

    def is_positive_root(self, v: Weight) -> bool:
        return v in self._pos_set

    def coefficients(self, root: Weight) -> tuple[int, ...]:
        """Integer coordinates of a root in the simple-root basis."""
        if root in self._coeff_map:
            return self._coeff_map[root]
        neg = self._coeff_map.get(-root)
        if neg is not None:
            return tuple(-c for c in neg)
        raise ValueError(f"{root} is not a root of {self.cartan_type}")

    def coroot(self, root: Weight) -> Weight:
        """The coroot 2a/(a,a) as a weight vector via the invariant form."""
        if not self.is_root(root):
            raise ValueError(f"{root} is not a root of {self.cartan_type}")
        return (2 / root.dot(root)) * root


def canonicalize(model: RootSystemModel, raw_coords) -> Weight:
    """Canonical representative of a raw coordinate vector.

    For the E-type quotient models this subtracts the coordinate mean
    (orthogonal projection onto the sum-zero hyperplane); for all other
    models it is the identity.  Idempotent either way.
    """
    coords = tuple(Fraction(c) for c in raw_coords)
    if len(coords) != model.ambient_dim:
        raise ValueError(
            f"expected {model.ambient_dim} coordinates, got {len(coords)}")
    if not model.sum_zero:
        return Weight(coords)
    mean = sum(coords) / len(coords)
    return Weight(tuple(c - mean for c in coords))


def pairing(model: RootSystemModel, lam: Weight, root: Weight) -> Fraction:
    """The exact pairing <lam, root^vee> = 2(lam, root)/(root, root)."""
    if not model.is_root(root):
        raise ValueError(f"{root} is not a root of {model.cartan_type}")
    return 2 * lam.dot(root) / root.dot(root)


def _enumerate_positive(simples: list[Weight], limit: int | None = None
                        ) -> tuple[list[Weight], list[tuple[int, ...]]]:
    """All positive roots generated by a simple system, via root strings.

    Walks up by height: beta + alpha_i is a root iff the alpha_i-string
    through beta does not stop, i.e. p - <beta, alpha_i^vee> > 0 where p is
    the number of times alpha_i can be subtracted.  Returns the roots and
    their integer coefficient vectors in the given simple basis.
    """
    n = len(simples)
    coeffs: dict[Weight, tuple[int, ...]] = {
        s: tuple(1 if j == i else 0 for j in range(n)) for i, s in enumerate(simples)
    }
    frontier = list(simples)
    while frontier:
        new: list[Weight] = []
        for beta in frontier:
            for i, alpha in enumerate(simples):
                gamma = beta + alpha
                if gamma in coeffs:
                    continue
                p = 0
                cur = beta - alpha
                while cur in coeffs:
                    p += 1
                    cur = cur - alpha
                if p - 2 * beta.dot(alpha) / alpha.dot(alpha) > 0:
                    coeffs[gamma] = tuple(
                        c + (1 if j == i else 0) for j, c in enumerate(coeffs[beta]))
                    new.append(gamma)
                    if limit is not None and len(coeffs) > limit:
                        raise ValueError("simple system generates too many roots")
        frontier = new
    roots = sorted(coeffs, key=lambda r: (sum(coeffs[r]), coeffs[r]))
    return roots, [coeffs[r] for r in roots]


def _eps(i: int, dim: int) -> Weight:
    return Weight(tuple(Fraction(1) if k == i else Fraction(0) for k in range(dim)))


def _simple_root_data(series: str, rank: int) -> tuple[int, list[Weight], bool]:
    """(ambient_dim, simple roots, sum_zero flag) for one irreducible type."""
    if series == "A":
        dim = rank + 1
        return dim, [_eps(i, dim) - _eps(i + 1, dim) for i in range(rank)], False
    if series == "B":
        simples = [_eps(i, rank) - _eps(i + 1, rank) for i in range(rank - 1)]
        simples.append(_eps(rank - 1, rank))
        return rank, simples, False
    if series == "C":
        simples = [_eps(i, rank) - _eps(i + 1, rank) for i in range(rank - 1)]
        simples.append(2 * _eps(rank - 1, rank))
        return rank, simples, False
    if series == "D":
        simples = [_eps(i, rank) - _eps(i + 1, rank) for i in range(rank - 1)]
        simples.append(_eps(rank - 2, rank) + _eps(rank - 1, rank))
        return rank, simples, False
    if series == "G":
        a1 = _eps(0, 3) - _eps(1, 3)
        a2 = weight((-2, 1, 1))
        return 3, [a1, a2], False
    if series == "F":
        half = Fraction(1, 2)
        return 4, [
            _eps(1, 4) - _eps(2, 4),
            _eps(2, 4) - _eps(3, 4),
            _eps(3, 4),
            weight((half, -half, -half, -half)),
        ], False
    raise AssertionError(series)


def _e8_simples() -> list[Weight]:
    dim = 9
    simples = [_eps(i, dim) - _eps(i + 1, dim) for i in range(7)]
    raw = _eps(5, dim) + _eps(6, dim) + _eps(7, dim)
    mean = sum(raw.coords) / dim
    simples.append(Weight(tuple(c - mean for c in raw.coords)))
    return simples


# E7/E6 are generated by these (0-based) subsets of the E8 simple system
_E_SUBSETS = {7: (1, 2, 3, 4, 5, 6, 7), 6: (2, 3, 4, 5, 6, 7)}


@lru_cache(maxsize=None)
def build(label: str) -> RootSystemModel:
    """Build the exact model for a Cartan type label such as "E8" or "B3"."""
    series, rank = parse_label(label)
    if series == "E":
        e8_simples = _e8_simples()
        simples = (e8_simples if rank == 8
                   else [e8_simples[i] for i in _E_SUBSETS[rank]])
        dim, sum_zero = 9, True
    else:
        dim, simples, sum_zero = _simple_root_data(series, rank)
    positive, coeffs = _enumerate_positive(simples)
    model = RootSystemModel(
        cartan_type=f"{series}{rank}",
        ambient_dim=dim,
        simple_roots=tuple(simples),
        positive_roots=tuple(positive),
        sum_zero=sum_zero,
        pos_coefficients=tuple(coeffs),
    )
    expected = _POS_COUNTS[series](rank)
    if len(positive) != expected:
        raise AssertionError(
            f"{label}: enumerated {len(positive)} positive roots, expected {expected}")
    return model


def rho(model: RootSystemModel) -> Weight:
    """Half-sum of the positive roots; <rho, a_i^vee> = 1 for simple a_i."""
    total = Weight(tuple(Fraction(0) for _ in range(model.ambient_dim)))
    for beta in model.positive_roots:
        total = total + beta
    return Fraction(1, 2) * total


def _dual_basis(model: RootSystemModel, gram_entry) -> tuple[Weight, ...]:
    """Solve for vectors w_i in span(Pi) with gram_entry(w_i, a_j) = delta_ij."""
    simples = model.simple_roots
    n = len(simples)
    matrix = [[gram_entry(simples[k], simples[j]) for k in range(n)] for j in range(n)]
    out = []
    for i in range(n):
        rhs = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        coeff = linalg.solve(matrix, rhs)
        assert coeff is not None
        w = Weight(tuple(
            sum(coeff[k] * simples[k].coords[d] for k in range(n))
            for d in range(model.ambient_dim)))
        out.append(w)
    return tuple(out)


@lru_cache(maxsize=None)
def fundamental_weights(model: RootSystemModel) -> tuple[Weight, ...]:
    """Weights pi_i in span(Pi) with <pi_i, a_j^vee> = delta_ij (exact solve)."""
    return _dual_basis(model, lambda ak, aj: 2 * ak.dot(aj) / aj.dot(aj))


@lru_cache(maxsize=None)
def fundamental_coweights(model: RootSystemModel) -> tuple[Weight, ...]:
    """Coweights w_i in span(Pi), as weights via the form: (a_j, w_i) = delta_ij."""
    return _dual_basis(model, lambda ak, aj: ak.dot(aj))


@lru_cache(maxsize=None)
def span_complement(model: RootSystemModel) -> tuple[Weight, ...]:
    """Basis of the orthogonal complement of span(Pi) in the ambient space.

    A vector lies in the rational span of the simple roots iff it pairs to
    zero with every member (empty for models whose roots span the ambient).
    """
    rows = [list(a.coords) for a in model.simple_roots]
    return tuple(Weight(tuple(v)) for v in linalg.kernel_basis(rows))


def levi_subsystem(model: RootSystemModel, pi0) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
    """Positive roots lying in the span of the simple subset Pi_0.

    Returns (positive roots of the Levi subsystem, the simple system Pi_0
    itself).  Span membership is decided on integer simple-root coordinates.
    """
    indices = _check_indices(model, pi0)
    pos = tuple(
        beta for beta, coeff in zip(model.positive_roots, model.pos_coefficients)
        if all(c == 0 or i in indices for i, c in enumerate(coeff)))
    return pos, tuple(model.simple_roots[i] for i in sorted(indices))


def _check_indices(model: RootSystemModel, pi0) -> frozenset[int]:
    indices = frozenset(pi0)
    if not all(isinstance(i, int) and 0 <= i < model.rank for i in indices):
        raise ValueError(f"Pi_0 must be a subset of 0..{model.rank - 1}")
    return indices


def _indecomposables(pos_vectors: list[Weight]) -> list[Weight]:
    """Elements of a positive system not expressible as a sum of two others."""
    vset = set(pos_vectors)
    return [beta for beta in pos_vectors
            if not any((beta - gamma) in vset for gamma in pos_vectors if gamma != beta)]


def simple_system_of(model: RootSystemModel, roots) -> tuple[Weight, ...]:
    """Simple system of a closed sub-root-system given by its roots.

    Input roots (any mix of signs) must all be roots of the model and form
    a set closed under internal sums; the result is the set of positive
    elements not expressible as sums of two positive elements, ordered like
    the model's positive roots.  A set that is not closed is detected when
    the output fails to regenerate it.
    """
    rset = set(roots)
    for v in rset:
        if not model.is_root(v):
            raise ValueError(f"{v} is not a root of {model.cartan_type}")
    pos = [beta for beta in model.positive_roots if beta in rset or -beta in rset]
    simples = _indecomposables(pos)
    if any(a.dot(b) > 0 for i, a in enumerate(simples) for b in simples[i + 1:]):
        raise ValueError("root set is not closed under the subsystem structure")
    try:
        generated, _ = _enumerate_positive(simples, limit=len(pos))
    except ValueError:
        raise ValueError("root set is not closed under the subsystem structure")
    if set(generated) != set(pos):
        raise ValueError("root set is not closed under the subsystem structure")
    return tuple(simples)


def classify_simple_system(vectors) -> tuple[str, ...]:
    """Cartan labels of the components of an abstract simple system.

    The vectors need not be roots of any particular model; they must be
    linearly independent with pairwise non-positive pairings.  B/C, F and G
    components are told apart by relative root lengths.  Rank-2 double-bond
    components are reported as "B2".
    """
    vecs = list(vectors)
    n = len(vecs)
    if n == 0:
        return ()
    if linalg.rank([list(v.coords) for v in vecs]) != n:
        raise ValueError("simple system is not linearly independent")
    cartan = [[2 * vecs[i].dot(vecs[j]) / vecs[j].dot(vecs[j]) for j in range(n)]
              for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and cartan[i][j] not in (0, -1, -2, -3):
                raise ValueError("pairings are not those of a finite-type simple system")
    # connected components of the Dynkin graph
    seen: set[int] = set()
    labels = []
    for start in range(n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j not in seen and cartan[i][j] != 0:
                    seen.add(j)
                    comp.append(j)
                    queue.append(j)
        labels.append(_classify_component(comp, cartan, vecs))
    return tuple(sorted(labels, key=_label_sort_key))


def _label_sort_key(label: str):
    series, rank = parse_label(label)
    return (-rank, series)


def _classify_component(comp: list[int], cartan, vecs) -> str:
    n = len(comp)
    if n == 1:
        return "A1"
    adj = {i: [j for j in comp if j != i and cartan[i][j] != 0] for i in comp}
    bonds = {}
    for i in comp:
        for j in adj[i]:
            bonds[(i, j)] = int(cartan[i][j] * cartan[j][i])
    maxbond = max(bonds.values())
    if any(len(adj[i]) > 3 for i in comp):
        raise ValueError("Cartan matrix is not of finite type")
    branch = [i for i in comp if len(adj[i]) == 3]
    if maxbond == 3:
        if n != 2:
            raise ValueError("Cartan matrix is not of finite type")
        return "G2"
    if maxbond == 2:
        if branch:
            raise ValueError("Cartan matrix is not of finite type")
        ends = [i for i in comp if len(adj[i]) == 1]
        if len(ends) != 2:
            raise ValueError("Cartan matrix is not of finite type")
        path = _walk_path(ends[0], adj)
        doubles = [k for k in range(n - 1) if bonds[(path[k], path[k + 1])] == 2]
        if len(doubles) != 1:
            raise ValueError("Cartan matrix is not of finite type")
        k = doubles[0]
        if 0 < k < n - 2:
            if n == 4 and k == 1:
                return "F4"
            raise ValueError("Cartan matrix is not of finite type")
        if n == 2:
            return "B2"
        # orient so the double bond is at the far end; the end root's length decides B vs C
        if k == 0:
            path.reverse()
        end, prev = path[-1], path[-2]
        ratio = vecs[end].dot(vecs[end]) / vecs[prev].dot(vecs[prev])
        return f"B{n}" if ratio < 1 else f"C{n}"
    # simply laced
    if not branch:
        return f"A{n}"
    if len(branch) > 1:
        raise ValueError("Cartan matrix is not of finite type")
    b = branch[0]
    arms = sorted(_arm_length(b, first, adj) for first in adj[b])
    if arms[0] == 1 and arms[1] == 1:
        return f"D{n}"
    if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
        return f"E{n}"
    raise ValueError("Cartan matrix is not of finite type")


def _walk_path(end: int, adj) -> list[int]:
    path = [end]
    prev = None
    while True:
        nxt = [j for j in adj[path[-1]] if j != prev]
        if not nxt:
            return path
        prev = path[-1]
        path.append(nxt[0])


def _arm_length(branch: int, first: int, adj) -> int:
    length = 1
    prev, cur = branch, first
    while True:
        nxt = [j for j in adj[cur] if j != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1


def dual_label(label: str) -> str:
    """Label of the dual root system component (B <-> C; others self-dual)."""
    series, rank = parse_label(label)
    if rank == 2 and series in ("B", "C"):
        return "B2"
    if series == "B":
        return f"C{rank}"
    if series == "C":
        return f"B{rank}"
    return f"{series}{rank}"


def format_type(labels) -> str:
    """Render a multiset of component labels as "A5+A2+A1"."""
    return "+".join(sorted(labels, key=_label_sort_key)) if labels else "0"
