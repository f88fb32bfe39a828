"""Four-condition highest-weight certificates for one-dimensional W-algebra modules.

Given a Levi subset Pi_0, a characteristic h of a nilpotent inside that
Levi, and a candidate lambda' = lambda + rho, the certificate checks:

  (A) the restriction of lambda to the Levi is antidominant, i.e.
      <lambda', alpha^vee> is not a positive integer on any Levi-positive
      root (decidable when the nilpotent is regular in the Levi);
  (B) the integral-system dimension formula applies and gives exactly the
      orbit dimension computed from h;
  (C) lambda' - delta' lies in the rational span of Pi_0;
  (D) vacuous for principal Levi type, undecided otherwise.

An overall pass certifies lambda as the highest weight of a primitive
ideal carrying a one-dimensional representation of the associated
W-algebra.

The orbit dimensions of a characteristic h live here too, beside delta'
that reads the same values: the ad-h grading (``graded_dims``), dim O
(``orbit_dim_from_h``, whose g(0) + g(1) are the roots with <beta, h> in
{0, +-1}), and the Barbasch-Vogan candidate ``bv_candidate``.

Every entry point reads Pi_0 with ``rootsys.levi_mask`` and a given h with
``rootsys.h_values``, so a bad input gets one error text wherever it enters.

Antidominance convention (normative here): <lambda + rho, alpha^vee> is
not a positive integer, for every positive root alpha of the subsystem.
"""
from __future__ import annotations

import itertools
import numbers
import warnings
from collections import Counter

from . import rootsys
from .integral import cor68_from_values
from .record import Record
from .rootsys import (RootSystemModel, Weight, combine, coweight, h_values, levi_mask,
                      root_values)

PASS, FAIL, UNDECIDED = "pass", "fail", "undecided"


def _coefficient_sum(vectors, rank: int) -> list[int]:
    return [sum(col) for col in zip(*vectors)] if vectors else [0] * rank


def theta_for_levi(model: RootSystemModel, pi0) -> Weight:
    """The dominant coweight cutting out the Levi: sum of omega_i^vee, i not in Pi_0.

    Pairs to 0 with the Levi simple roots and to 1 with the others; a root
    pairs to zero with it exactly when it lies in the Levi span, and its
    pairing with a root is the root's coefficient sum outside Pi_0.
    """
    mask = levi_mask(model, pi0)
    return coweight(model, [0 if mask >> i & 1 else 1 for i in range(model.rank)])


def _regular_values(model: RootSystemModel, mask: int) -> list[int]:
    """<alpha_j, h> for the regular characteristic h = 2 rho_0^vee of the
    Levi: the values of its positive coroots, summed by root support."""
    off = ~mask
    return _coefficient_sum([v for s, v in model.support_values if not s & off], model.rank)


def h_regular(model: RootSystemModel, pi0) -> Weight:
    """Characteristic of the regular nilpotent of the Levi: the sum of its
    positive coroots (= 2 rho_0^vee); pairs to 2 on each Levi simple root."""
    return coweight(model, _regular_values(model, levi_mask(model, pi0)))


def _two_delta(model: RootSystemModel, mask: int, values) -> list[int]:
    """2 delta on the simple roots, from the h-values of the positive roots."""
    off = ~mask
    terms = []
    for coeff, s, v in zip(model.pos_coefficients, model.supports, values):
        # the theta-negative root -beta: <-beta, h> = -1 counts half, <= -2 fully
        if s & off and v >= 1:
            terms.append(coeff)
            if v >= 2:
                terms.append(coeff)
    return [-x for x in _coefficient_sum(terms, model.rank)]


def _two_delta_prime(model: RootSystemModel, values) -> list[int]:
    """2 delta' on the simple roots, from the h-values of the positive roots."""
    return _coefficient_sum([coeff for coeff, v in zip(model.pos_coefficients, values)
                             if v == 0 or v == 1], model.rank)


def delta(model: RootSystemModel, pi0, h: Weight) -> Weight:
    """The shift weight: over theta-negative roots, half-sum of those with
    <alpha, h> = -1 plus the full sum of those with <alpha, h> <= -2."""
    mask = levi_mask(model, pi0)
    values = root_values(model, h_values(model, h))
    return combine(model, _two_delta(model, mask, values), 2)


def delta_prime(model: RootSystemModel, h: Weight) -> Weight:
    """Half-sum of the positive roots alpha with <alpha, h> in {0, 1}."""
    return combine(model, _two_delta_prime(model, root_values(model, h_values(model, h))), 2)


def graded_dims(model: RootSystemModel, h: Weight) -> dict[int, int]:
    """dim g(i) for the grading by ad-h eigenvalues; h must be integral.

    From <beta, h> = k on the positive roots (``rootsys.root_values``): beta
    and -beta add one each to g(k) and g(-k), the Cartan to g(0)."""
    dims: dict[int, int] = {0: model.rank}
    for k, count in Counter(root_values(model, h_values(model, h))).items():
        dims[k] = dims.get(k, 0) + count
        dims[-k] = dims.get(-k, 0) + count
    return {k: v for k, v in sorted(dims.items()) if v}


def orbit_dim_from_h(model: RootSystemModel, h: Weight) -> int:
    """dim O = dim g - dim z_g(e); odd only when h is not a characteristic."""
    return orbit_dim_from_values(model, root_values(model, h_values(model, h)))


def orbit_dim_from_values(model: RootSystemModel, values) -> int:
    """``orbit_dim_from_h`` from <beta, h> on the positive roots (a list):
    dim z_g(e) = dim g(0) + dim g(1) = rank + 2 #{0} + #{1} + #{-1}, since
    +-beta are in g(0) at 0 and one of them is in g(1) at +-1."""
    dim_orb = (model.dim - model.rank - 2 * values.count(0)
               - values.count(1) - values.count(-1))
    if dim_orb % 2:
        raise ValueError(f"orbit dimension {dim_orb} is odd: h is not the "
                         "characteristic of a nilpotent")
    return dim_orb


def bv_candidate(model: RootSystemModel, h_dual: Weight) -> Weight:
    """Candidate highest weight h_dual - rho for the certificate pipeline.

    h_dual is the dominant characteristic of a dual-side sl2-triple; the
    associated variety of the primitive ideal at h_dual - rho is the closure
    of the dual orbit.  Emits a warning when h_dual is not even, since dual
    characteristics of rigid elements are always even.  h_dual is
    canonicalized first, so every representative gives the same candidate.
    """
    h_dual = rootsys.canonicalize(model, h_dual)
    nums, den = rootsys.simple_pairings(model, h_dual)
    for alpha, value in zip(model.simple_roots, nums):
        if value < 0:
            raise ValueError(f"h_dual is not dominant: <{alpha}, h_dual> < 0")
    # even on every positive root exactly when even on the simple roots
    if any(value % (2 * den) for value in nums):
        warnings.warn("h_dual is not even; dual characteristics of rigid "
                      "elements are even", stacklevel=2)
    return h_dual - rootsys.rho(model)


def in_levi_span(model: RootSystemModel, mu: Weight, pi0
                 ) -> tuple[bool, tuple[numbers.Rational, ...] | Weight]:
    """Exact solve of mu = sum c_i alpha_i over Pi_0.

    Returns (True, coefficients) on success or (False, residual) on failure;
    each coefficient is an int when integral, else a Fraction.
    Membership is one walk over mu's integer products with the coweight
    rows and then the complement rows (``rootsys.levi_coords``): a row in
    Pi_0 gives its coefficient, and the first nonzero product on a coweight
    outside Pi_0 or on a complement row ends the walk, so inputs outside
    the root span fail too.  Only then is the residual built: mu less its
    projection onto the root span restricted to Pi_0 (``rootsys.levi_part``).
    """
    mask = levi_mask(model, pi0)
    return _levi_solve(model, rootsys.canonicalize(model, mu), mask)


def _levi_solve(model: RootSystemModel, w: Weight, mask: int
                ) -> tuple[bool, tuple[numbers.Rational, ...] | Weight]:
    """``in_levi_span`` of a canonical w, for Pi_0 given as its bit set
    (coefficients in increasing index); the residual is built only on a
    miss."""
    coeffs = rootsys.levi_coords(model, w, mask)
    if coeffs is not None:
        return True, coeffs
    return False, w - rootsys.levi_part(model, w, mask)


class CheckResult(Record):
    status: str
    witness: object
    detail: str

    def __init__(self, status, witness=None, detail=""):
        self.__dict__.update(status=status, witness=witness, detail=detail)

    def __bool__(self) -> bool:
        return self.status == PASS


_A_UNDECIDED = CheckResult(UNDECIDED, detail="criterion needs e regular in the Levi")


def _verdict_A(model: RootSystemModel, mask: int, values, den: int) -> CheckResult:
    """(A) for e regular in the Levi of ``mask``, from
    <lambda', beta^vee> = values[k] / den (``rootsys.coroot_values``)."""
    off = ~mask
    for k, (s, val) in enumerate(zip(model.supports, values)):
        if not s & off and val > 0 and val % den == 0:
            return CheckResult(FAIL, witness=combine(model, model.pos_coefficients[k]),
                               detail=f"<lambda', alpha^vee> = {val // den} in Z_>0")
    return CheckResult(PASS)


def _verdict_B(va_dim: int | None, orb_dim: int) -> CheckResult:
    if va_dim is None:
        return CheckResult(
            UNDECIDED,
            detail="positivity hypothesis fails; supply the cell orbit to "
                   "prop67_dim for the parametric formula")
    if va_dim == orb_dim:
        return CheckResult(PASS, detail=f"dim VA = {va_dim} = dim O")
    return CheckResult(FAIL, witness=(va_dim, orb_dim),
                       detail=f"dim VA = {va_dim} != dim O = {orb_dim}")


def _verdict_C(model: RootSystemModel, mask: int, mu: Weight) -> CheckResult:
    """(C) for mu = lambda' - delta' (canonical) and Pi_0 as its bit set:
    the Levi-span solve of mu."""
    ok, info = _levi_solve(model, mu, mask)
    if ok:
        return CheckResult(PASS, witness=info)
    return CheckResult(FAIL, witness=info, detail="nonzero residual off the Levi span")


def _verdict_D(principal_in_levi: bool) -> CheckResult:
    """Codimension-1 ideal of the Levi W-algebra: vacuous for principal Levi
    type, undecided otherwise (module structure is out of reach here)."""
    if principal_in_levi:
        return CheckResult(PASS, detail="vacuous: e is of principal Levi type")
    return CheckResult(UNDECIDED, detail="cannot decide W-algebra module structure")


class CertificateInput(Record):
    model: RootSystemModel
    levi: tuple[int, ...]          # indices into the simple system
    # characteristic of e inside the Levi; None is the regular one, h_regular(model, levi)
    h: Weight | None
    lambda_prime: Weight           # lambda + rho
    principal_in_levi: bool
    # <alpha_i, h> on the simple roots, read once here and used by ``certify``;
    # it follows from the fields before it, so it adds nothing to equality
    h_simple: tuple[int, ...]

    def __init__(self, model, levi, h, lambda_prime, principal_in_levi=False):
        # a bool only: a string such as "no" is truthy, and would pass for e principal
        if type(principal_in_levi) is not bool:
            raise TypeError(f"principal_in_levi must be a bool, got {principal_in_levi!r}")
        mask = levi_mask(model, levi)
        levi = tuple(i for i in range(model.rank) if mask >> i & 1)
        h = None if h is None else rootsys.canonicalize(model, h)
        lambda_prime = rootsys.canonicalize(model, lambda_prime)
        if h is None:
            # 2 rho_0^vee is integral and a sum of Levi coroots, so in their span
            values = _regular_values(model, mask)
        else:
            values = h_values(model, h)
            ok, residual = _levi_solve(model, h, mask)
            if not ok:
                raise ValueError(f"h is not in the Levi coroot span; residual {residual}")
        if principal_in_levi and any(values[i] != 2 for i in levi):
            raise ValueError("principal_in_levi requires <alpha, h> = 2 "
                             "on every Levi simple root")
        self.__dict__.update(model=model, levi=levi, h=h, lambda_prime=lambda_prime,
                             principal_in_levi=principal_in_levi, h_simple=tuple(values))


class CertificateReport(Record):
    verdict_A: CheckResult
    verdict_B: CheckResult
    verdict_C: CheckResult
    verdict_D: CheckResult
    dim_g: int
    dim_orbit: int
    cor68: int | None
    delta_prime: Weight
    unverified: tuple[str, ...]

    def __init__(self, verdict_A, verdict_B, verdict_C, verdict_D, dim_g, dim_orbit, cor68,
                 delta_prime, unverified=(
                     "the normalizer of the centralizer torus acts on it without nonzero "
                     "fixed points (side condition, not machine-checkable here)",)):
        self.__dict__.update(verdict_A=verdict_A, verdict_B=verdict_B, verdict_C=verdict_C,
                             verdict_D=verdict_D, dim_g=dim_g, dim_orbit=dim_orbit, cor68=cor68,
                             delta_prime=delta_prime, unverified=unverified)

    @property
    def overall(self) -> str:
        statuses = [self.verdict_A.status, self.verdict_B.status,
                    self.verdict_C.status, self.verdict_D.status]
        if all(s == PASS for s in statuses):
            return PASS
        if FAIL in statuses:
            return FAIL
        return UNDECIDED

    def to_json_dict(self) -> dict:
        def enc(res: CheckResult):
            out = {"status": res.status}
            if res.detail:
                out["detail"] = res.detail
            # a witness is a Weight or a tuple of ints or Fractions
            if isinstance(res.witness, Weight):
                out["witness"] = res.witness.to_strings()
            elif res.witness is not None:
                out["witness"] = [str(x) for x in res.witness]
            return out
        return {
            "overall": self.overall,
            "A": enc(self.verdict_A),
            "B": enc(self.verdict_B),
            "C": enc(self.verdict_C),
            "D": enc(self.verdict_D),
            "dim_g": self.dim_g,
            "dim_orbit": self.dim_orbit,
            "cor68": None if self.cor68 is None else str(self.cor68),
            "delta_prime": self.delta_prime.to_strings(),
            "unverified": list(self.unverified),
        }


def certify(inp: CertificateInput) -> CertificateReport:
    """Run all four checks and aggregate; deterministic and side-effect free.

    One pass per side: the values of lambda' on the positive coroots
    (``rootsys.coroot_values``) feed (A) and cor68, which counts the
    integral roots and checks the sign of their values (no simple system is
    found or checked), and the values of h on the positive roots
    (``rootsys.root_values`` of the simple values the input read) feed dim O
    and delta'.  (C) is the Levi-span solve of lambda' - delta'.  cor68,
    dim O and delta' are computed once and feed verdicts and report.
    """
    model = inp.model
    mask = levi_mask(model, inp.levi)
    values, den = rootsys.coroot_values(model, inp.lambda_prime)
    verdict_A = (_verdict_A(model, mask, values, den)
                 if inp.principal_in_levi else _A_UNDECIDED)
    cor68 = cor68_from_values(model, values, den)
    h_roots = root_values(model, inp.h_simple)
    dim_orbit = orbit_dim_from_values(model, h_roots)
    dp = combine(model, _two_delta_prime(model, h_roots), 2)
    return CertificateReport(
        verdict_A=verdict_A,
        verdict_B=_verdict_B(cor68, dim_orbit),
        verdict_C=_verdict_C(model, mask, inp.lambda_prime - dp),
        verdict_D=_verdict_D(inp.principal_in_levi),
        dim_g=model.dim,
        dim_orbit=dim_orbit,
        cor68=cor68,
        delta_prime=dp,
    )


def congruence_sweep(model: RootSystemModel):
    """Yield (pi0, key, ok) for the shift congruences on every Levi subset.

    With h the regular characteristic of Pi_0, key None is the congruence
    delta' - delta - rho in Q.Pi_0, and key (k, l), l > 0, is the sl2
    weight-sum identity S(k, l) - S(k, -l) in Q.Pi_0, where S(k, l) sums the
    roots beta with <beta, theta> = k and <beta, h> = l.  Everything is in
    integer simple-root coordinates: <beta, theta> is beta's coefficient sum
    outside Pi_0, and a sum of roots lies in Q.Pi_0 exactly when its
    coefficients outside Pi_0 vanish.
    """
    rank = model.rank
    two_rho = _coefficient_sum(model.pos_coefficients, rank)
    for size in range(rank + 1):
        for pi0 in itertools.combinations(range(rank), size):
            mask = levi_mask(model, pi0)
            outside = [i for i in range(rank) if not mask >> i & 1]
            values = root_values(model, _regular_values(model, mask))
            resid = [a - b - c for a, b, c in zip(_two_delta_prime(model, values),
                                                  _two_delta(model, mask, values), two_rho)]
            yield pi0, None, all(resid[i] == 0 for i in outside)
            sums: dict[tuple[int, int], list[int]] = {}
            for sign in (1, -1):
                for coeff, v in zip(model.pos_coefficients, values):
                    key = (sign * sum(coeff[i] for i in outside), sign * v)
                    acc = sums.setdefault(key, [0] * rank)
                    for i in outside:
                        acc[i] += sign * coeff[i]
            for (k, l), s in sums.items():
                if l > 0:
                    # sl2 symmetry: g(k, l) and g(k, -l) have equal dimension
                    diff = sums[(k, -l)]
                    yield pi0, (k, l), all(s[i] == diff[i] for i in outside)
