"""Reference implementations in epsilon coordinates.

These are the root-system routines as they were written on ``Weight``
vectors and ``Fraction`` dot products, before the engine moved to integer
simple-root coordinates.  The differential tests compare the engine against
them; nothing in ``src/`` imports this module.

``FractionWeight`` is the ``Weight`` the engine had before it moved to
integer numerators over one denominator: a tuple of Fractions with
Fraction arithmetic.  The functions below it (``canonicalize``,
``combine``, ``pairing``, ``in_levi_span_fractions``, ``antidominant_rep``,
``apply_word``) are the replaced epsilon code on that class, so they share
no arithmetic with the engine.  The functions above it run on the engine's
``Weight`` and gate the simple-root kernel.  Linear solves, kernels and
Cartan-type names come from ``matrix_reference`` and ``dynkin_reference``,
so no elimination or type namer is shared with the engine either.

``CertificateInput`` and ``certify`` are the end-to-end reference
certificate: the rules of (A)-(D) and the input checks written out on the
quantities of this module.  Only the report format (``CheckResult``,
``CertificateReport`` and the status names) comes from the engine.
``integral_system`` and ``delta_prime`` return immutable values and are
memoized per (model, weight): the differential tests ask for them again
and again on the same few weights.
"""
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import dynkin_reference
import matrix_reference
from orbitcert import rootsys as rs
from orbitcert.certify import FAIL, PASS, UNDECIDED, CertificateReport, CheckResult
from orbitcert.integral import IntegralSystem
from orbitcert.rootsys import Weight


def enumerate_positive(simples, limit=None):
    """All positive roots generated by a simple system, via root strings."""
    n = len(simples)
    coeffs = {s: tuple(1 if j == i else 0 for j in range(n)) for i, s in enumerate(simples)}
    frontier = list(simples)
    while frontier:
        new = []
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
                if p - Fraction(2 * beta.dot(alpha), alpha.dot(alpha)) > 0:
                    coeffs[gamma] = tuple(
                        c + (1 if j == i else 0) for j, c in enumerate(coeffs[beta]))
                    new.append(gamma)
                    if limit is not None and len(coeffs) > limit:
                        raise ValueError("simple system generates too many roots")
        frontier = new
    roots = sorted(coeffs, key=lambda r: (sum(coeffs[r]), coeffs[r]))
    return roots, [coeffs[r] for r in roots]


def _zero(model):
    return Weight(tuple(Fraction(0) for _ in range(model.ambient_dim)))


def rho(model):
    total = _zero(model)
    for beta in model.positive_roots:
        total = total + beta
    return Fraction(1, 2) * total


@lru_cache(maxsize=None)
def fundamental_coweights(model):
    """Solve (a_j, w_i) = delta_ij for w_i in span(Pi), one column at a time."""
    simples = model.simple_roots
    n = len(simples)
    matrix = [[simples[k].dot(simples[j]) for k in range(n)] for j in range(n)]
    out = []
    for i in range(n):
        coeff = matrix_reference.solve(matrix, [Fraction(int(j == i)) for j in range(n)])
        out.append(Weight(tuple(sum(coeff[k] * simples[k].coords[d] for k in range(n))
                                for d in range(model.ambient_dim))))
    return tuple(out)


def fundamental_weights(model):
    """pi_i = (a_i, a_i)/2 w_i: <pi_i, a_j^vee> = delta_ij."""
    return tuple(Fraction(a.dot(a), 2) * w
                 for a, w in zip(model.simple_roots, fundamental_coweights(model)))


def levi_positive(model, pi0):
    return tuple(beta for beta, coeff in zip(model.positive_roots, model.pos_coefficients)
                 if all(c == 0 or i in pi0 for i, c in enumerate(coeff)))


def theta_for_levi(model, pi0):
    theta = _zero(model)
    for i, w in enumerate(fundamental_coweights(model)):
        if i not in pi0:
            theta = theta + w
    return theta


def _indecomposables(pos_vectors):
    vset = set(pos_vectors)
    return [beta for beta in pos_vectors
            if not any((beta - gamma) in vset for gamma in pos_vectors if gamma != beta)]


@lru_cache(maxsize=None)
def integral_system(model, lambda_prime):
    pos = [beta for beta in model.positive_roots
           if rs.pairing(model, lambda_prime, beta).denominator == 1]
    covecs = [model.coroot(beta) for beta in pos]
    co_simple = set(map(tuple, (cv.coords for cv in _indecomposables(covecs))))
    simple_roots = tuple(beta for beta, cv in zip(pos, covecs)
                         if tuple(cv.coords) in co_simple)
    simple_covecs = [model.coroot(beta) for beta in simple_roots]
    labels = tuple(sorted((rs.dual_label(l)
                           for l in dynkin_reference.classify_simple_system(simple_covecs)),
                          key=dynkin_reference._label_sort_key))
    allroots = tuple(pos) + tuple(-beta for beta in pos)
    pairings = [rs.pairing(model, lambda_prime, beta) for beta in simple_roots]
    # cor68 by the simple-coroot rule: lambda' positive on the simple coroots
    cor68 = (model.dim - len(allroots) - model.rank if all(p > 0 for p in pairings)
             else None)
    return IntegralSystem(lambda_prime, allroots, simple_roots, labels, cor68)


def graded_dims(model, h):
    dims = {0: model.rank}
    for beta in model.positive_roots:
        ev = beta.dot(h)
        if ev.denominator != 1:
            raise ValueError(f"h is not integral on root {beta}: <a,h> = {ev}")
        k = int(ev)
        dims[k] = dims.get(k, 0) + 1
        dims[-k] = dims.get(-k, 0) + 1
    return {k: v for k, v in sorted(dims.items()) if v}


def h_regular(model, pi0):
    acc = [Fraction(0)] * model.ambient_dim
    for beta in levi_positive(model, pi0):
        for i, c in enumerate(model.coroot(beta).coords):
            acc[i] += c
    return Weight(tuple(acc))


def delta(model, pi0, h):
    # h is checked on the positive roots first, as graded_dims checks it
    delta_prime(model, h)
    theta = theta_for_levi(model, pi0)
    acc = [Fraction(0)] * model.ambient_dim
    for beta in model.roots:
        if beta.dot(theta) < 0:
            ev = beta.dot(h)
            if ev == -1:
                for i, c in enumerate(beta.coords):
                    acc[i] += c / 2
            elif ev <= -2:
                for i, c in enumerate(beta.coords):
                    acc[i] += c
    return Weight(tuple(acc))


@lru_cache(maxsize=None)
def delta_prime(model, h):
    total = _zero(model)
    for beta in model.positive_roots:
        ev = beta.dot(h)
        if ev.denominator != 1:
            raise ValueError(f"h is not integral on root {beta}: <a,h> = {ev}")
        if ev in (0, 1):
            total = total + beta
    return Fraction(1, 2) * total


def in_levi_span(model, mu, pi0):
    indices = frozenset(pi0)
    mu = rs.canonicalize(model, mu.coords)
    coweights = fundamental_coweights(model)
    inside = (all(mu.dot(coweights[j]) == 0
                  for j in range(model.rank) if j not in indices)
              and all(mu.dot(v) == 0 for v in rs.span_complement(model)))
    ordered = sorted(indices)
    coeffs = tuple(mu.dot(coweights[i]) for i in ordered)
    if inside:
        return True, coeffs
    recon = _zero(model)
    for c, i in zip(coeffs, ordered):
        recon = recon + c * model.simple_roots[i]
    return False, mu - recon


def centralizer_dim_from_h(model, h):
    """dim g(0) + dim g(1) of the grading by h."""
    dims = graded_dims(model, h)
    return dims.get(0, 0) + dims.get(1, 0)


def orbit_dim_from_h(model, h):
    dim_orbit = model.dim - centralizer_dim_from_h(model, h)
    if dim_orbit % 2:
        raise ValueError(f"orbit dimension {dim_orbit} is odd: h is not the "
                         "characteristic of a nilpotent")
    return dim_orbit


def verdict_A(model, pi0, lambda_prime, principal_in_levi):
    """(A): the first Levi positive root, in model order, on whose coroot
    lambda' is a positive integer fails; undecided unless e is principal."""
    if not principal_in_levi:
        return CheckResult(UNDECIDED, detail="criterion needs e regular in the Levi")
    for beta in levi_positive(model, pi0):
        value = rs.pairing(model, lambda_prime, beta)
        if value > 0 and value.denominator == 1:
            return CheckResult(FAIL, witness=beta,
                               detail=f"<lambda', alpha^vee> = {value} in Z_>0")
    return CheckResult(PASS)


def verdict_B(cor68, dim_orbit):
    """(B): cor68 (None when lambda' is not positive on the simple integral
    coroots) against dim O."""
    if cor68 is None:
        return CheckResult(UNDECIDED, detail="positivity hypothesis fails; supply the cell "
                                             "orbit to prop67_dim for the parametric formula")
    if cor68 == dim_orbit:
        return CheckResult(PASS, detail=f"dim VA = {cor68} = dim O")
    return CheckResult(FAIL, witness=(cor68, dim_orbit),
                       detail=f"dim VA = {cor68} != dim O = {dim_orbit}")


def verdict_C(model, pi0, mu):
    """(C): mu = lambda' - delta' in the rational span of Pi_0."""
    ok, info = in_levi_span(model, mu, pi0)
    if ok:
        return CheckResult(PASS, witness=info)
    return CheckResult(FAIL, witness=info, detail="nonzero residual off the Levi span")


def verdict_D(principal_in_levi):
    if principal_in_levi:
        return CheckResult(PASS, detail="vacuous: e is of principal Levi type")
    return CheckResult(UNDECIDED, detail="cannot decide W-algebra module structure")


@dataclass(frozen=True)
class CertificateInput:
    """The certificate's inputs, checked in the engine's order with its
    error texts: Pi_0, h integral, h in the Levi coroot span, then h equal
    to 2 on the Levi simple roots under the principal flag.  An omitted h
    is ``h_regular`` of the Levi."""

    model: object
    levi: tuple
    h: object
    lambda_prime: Weight
    principal_in_levi: bool = False

    def __post_init__(self):
        model = self.model
        if not all(type(i) is int and 0 <= i < model.rank for i in self.levi):
            raise ValueError(f"Pi_0 must be a subset of 0..{model.rank - 1}")
        levi = tuple(sorted(set(self.levi)))
        h = h_regular(model, levi) if self.h is None else Weight(
            canonicalize(model, self.h.coords).coords)
        object.__setattr__(self, "levi", levi)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "lambda_prime",
                           Weight(canonicalize(model, self.lambda_prime.coords).coords))
        graded_dims(model, h)  # names the first root on which h is not integral
        ok, residual = in_levi_span(model, h, levi)
        if not ok:
            raise ValueError(f"h is not in the Levi coroot span; residual {residual}")
        if self.principal_in_levi and any(model.simple_roots[i].dot(h) != 2 for i in levi):
            raise ValueError("principal_in_levi requires <alpha, h> = 2 "
                             "on every Levi simple root")


def certify(inp):
    """(A)-(D) and the report: dim O from ``graded_dims``, cor68 from
    ``integral_system``, and (C) on lambda' - ``delta_prime``."""
    model, levi, h, lam = inp.model, inp.levi, inp.h, inp.lambda_prime
    dim_orbit = orbit_dim_from_h(model, h)
    cor68 = integral_system(model, lam).cor68
    dprime = delta_prime(model, h)
    return CertificateReport(
        verdict_A=verdict_A(model, levi, lam, inp.principal_in_levi),
        verdict_B=verdict_B(cor68, dim_orbit),
        verdict_C=verdict_C(model, levi, lam - dprime),
        verdict_D=verdict_D(inp.principal_in_levi),
        dim_g=model.dim,
        dim_orbit=dim_orbit,
        cor68=cor68,
        delta_prime=dprime,
    )


@dataclass(frozen=True)
class FractionWeight:
    """A vector of exact rationals, held as a tuple of Fractions."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def __add__(self, other):
        return FractionWeight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return FractionWeight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FractionWeight(tuple(-a for a in self.coords))

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return FractionWeight(tuple(s * a for a in self.coords))

    def dot(self, other):
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def is_zero(self):
        return all(a == 0 for a in self.coords)

    def __len__(self):
        return len(self.coords)

    def to_strings(self):
        return [str(c) for c in self.coords]

    def __str__(self):
        return "[" + ", ".join(self.to_strings()) + "]"


def fraction_weight(w):
    """An engine Weight's coordinates as a FractionWeight."""
    return FractionWeight(w.coords)


def canonicalize(model, raw_coords):
    coords = tuple(Fraction(c) for c in raw_coords)
    if len(coords) != model.ambient_dim:
        raise ValueError(
            f"expected {model.ambient_dim} coordinates, got {len(coords)}")
    if not model.sum_zero:
        return FractionWeight(coords)
    mean = sum(coords) / len(coords)
    return FractionWeight(tuple(c - mean for c in coords))


def _fraction_simples(model):
    return [fraction_weight(a) for a in model.simple_roots]


def combine(model, coeffs, den=1):
    total = FractionWeight((0,) * model.ambient_dim)
    for c, a in zip(coeffs, _fraction_simples(model)):
        total = total + Fraction(c, den) * a
    return total


def pairing(roots, lam, root, label):
    """<lam, root^vee> on FractionWeights; ``roots`` is the model's root set."""
    if root not in roots:
        raise ValueError(f"{root} is not a root of {label}")
    return Fraction(2 * lam.dot(root), root.dot(root))


@lru_cache(maxsize=None)
def _fraction_dual_basis(model):
    """(coweights, complement): the dual basis of the simple roots in their
    span, and a basis of the span's orthogonal complement."""
    simples = _fraction_simples(model)
    n = len(simples)
    gram = [[simples[k].dot(simples[j]) for k in range(n)] for j in range(n)]
    coweights = []
    for i in range(n):
        coeff = matrix_reference.solve(gram, [Fraction(int(j == i)) for j in range(n)])
        coweights.append(sum((c * a for c, a in zip(coeff, simples)),
                             FractionWeight((0,) * model.ambient_dim)))
    complement = [FractionWeight(v) for v in
                  matrix_reference.kernel_basis([list(a.coords) for a in simples])]
    return coweights, complement


def in_levi_span_fractions(model, mu, pi0):
    """``in_levi_span`` by the dual basis of the simple roots, on FractionWeights."""
    simples = _fraction_simples(model)
    n = len(simples)
    coweights, complement = _fraction_dual_basis(model)
    mu = canonicalize(model, mu.coords)
    indices = sorted(set(pi0))
    inside = (all(mu.dot(coweights[j]) == 0 for j in range(n) if j not in indices)
              and all(mu.dot(v) == 0 for v in complement))
    coeffs = tuple(mu.dot(coweights[i]) for i in indices)
    if inside:
        return True, coeffs
    recon = FractionWeight((0,) * model.ambient_dim)
    for c, i in zip(coeffs, indices):
        recon = recon + c * simples[i]
    return False, mu - recon


def antidominant_rep(simple_system, mu):
    """(word, weight, minimal) by greedy reflection descent."""
    simples = list(simple_system)
    sub_pos = enumerate_positive(simples)[0] if simples else []
    regular = all(Fraction(2 * mu.dot(g), g.dot(g)) != 0 for g in sub_pos)
    cur = mu
    word = []
    while True:
        idx = next((i for i, a in enumerate(simples)
                    if Fraction(2 * cur.dot(a), a.dot(a)) > 0), None)
        if idx is None:
            break
        a = simples[idx]
        cur = cur - Fraction(2 * cur.dot(a), a.dot(a)) * a
        word.append(idx)
    return tuple(word), cur, regular


def apply_word(simple_system, word, mu):
    simples = list(simple_system)
    cur = mu
    for idx in word:
        a = simples[idx]
        cur = cur - Fraction(2 * cur.dot(a), a.dot(a)) * a
    return cur
