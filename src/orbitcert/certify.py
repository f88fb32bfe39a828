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

Every entry point reads Pi_0 with ``rootsys.levi_mask`` and a given h with
``rootsys.h_values``, so a bad input gets one error text wherever it enters.

Antidominance convention (normative here): <lambda + rho, alpha^vee> is
not a positive integer, for every positive root alpha of the subsystem.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

from . import rootsys
from .integral import cor68_dim, cor68_from_values
from .orbits import orbit_dim_from_h, orbit_dim_from_values
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


def in_levi_span(model: RootSystemModel, mu: Weight, pi0
                 ) -> tuple[bool, tuple[numbers.Rational, ...] | Weight]:
    """Exact solve of mu = sum c_i alpha_i over Pi_0.

    Returns (True, coefficients) on success or (False, residual) on failure;
    each coefficient is an int when integral, else a Fraction.
    mu's coordinates on the simple roots (those of its projection onto the
    root span) and whether mu lies in the root span come from one product
    (``rootsys.span_coords``); membership is the support check that the
    coordinates outside Pi_0 vanish, plus mu lying in the root span, so
    inputs outside the root span fail with the honest residual.
    """
    mask = levi_mask(model, pi0)
    mu = rootsys.canonicalize(model, mu)
    return _levi_solve(model, mu, *rootsys.span_coords(model, mu), mask)


def _levi_solve(model: RootSystemModel, w: Weight, nums, den: int, inside: bool, mask: int,
                base=None) -> tuple[bool, tuple[numbers.Rational, ...] | Weight]:
    """``in_levi_span`` of mu = w - sum_i (base[i] / den) a_i (base 0 by
    default), whose simple-root coordinates are nums / den, for Pi_0 given
    as its bit set (coefficients in increasing index); ``inside`` says
    whether w, and so mu, lies in the root span."""
    if inside:
        coeffs = []
        for i, x in enumerate(nums):
            if mask >> i & 1:
                coeffs.append(rootsys.rational(x, den))
            elif x:
                break
        else:
            return True, tuple(coeffs)
    base = base or itertools.repeat(0)
    return False, w - combine(model, [b + x if mask >> i & 1 else b
                                      for i, (x, b) in enumerate(zip(nums, base))], den)


@dataclass(frozen=True)
class CheckResult:
    status: str
    witness: object = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == PASS


_A_UNDECIDED = CheckResult(UNDECIDED, detail="criterion needs e regular in the Levi")


def check_A(model: RootSystemModel, pi0, lambda_prime: Weight,
            principal_in_levi: bool = True) -> CheckResult:
    """Levi-antidominance of lambda (undecided unless e is regular in the Levi);
    the flag, Pi_0 and the length of lambda' are checked either way."""
    _check_principal(principal_in_levi)
    mask = levi_mask(model, pi0)
    rootsys._check_length(model, lambda_prime)
    if not principal_in_levi:
        return _A_UNDECIDED
    return _verdict_A(model, mask, *rootsys.coroot_values(model, lambda_prime))


def _verdict_A(model: RootSystemModel, mask: int, values, den: int) -> CheckResult:
    """``check_A`` for e regular in the Levi of ``mask``, from
    <lambda', beta^vee> = values[k] / den (``rootsys.coroot_values``)."""
    off = ~mask
    for beta, s, val in zip(model.positive_roots, model.supports, values):
        if not s & off and val > 0 and val % den == 0:
            return CheckResult(FAIL, witness=beta,
                               detail=f"<lambda', alpha^vee> = {val // den} in Z_>0")
    return CheckResult(PASS)


def check_B(model: RootSystemModel, lambda_prime: Weight, h: Weight) -> CheckResult:
    """Associated-variety dimension equals the orbit dimension, via the
    integral-system formula; undecided when its positivity hypothesis fails."""
    return _verdict_B(cor68_dim(model, lambda_prime), orbit_dim_from_h(model, h))


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


def check_C(model: RootSystemModel, pi0, h: Weight, lambda_prime: Weight) -> CheckResult:
    """lambda' - delta' lies in the rational span of Pi_0."""
    two_dp = _two_delta_prime(model, root_values(model, h_values(model, h)))
    lambda_prime = rootsys.canonicalize(model, lambda_prime)
    return _verdict_C(model, levi_mask(model, pi0), lambda_prime, two_dp)


def _verdict_C(model: RootSystemModel, mask: int, lambda_prime: Weight,
               two_dp) -> CheckResult:
    """``check_C`` for a canonical lambda', 2 delta' on the simple roots and
    Pi_0 as its bit set."""
    nums, den, inside = rootsys.span_coords(model, lambda_prime)
    # lambda' - delta' on the simple roots, over 2 den
    mu = [2 * x - den * y for x, y in zip(nums, two_dp)]
    ok, info = _levi_solve(model, lambda_prime, mu, 2 * den, inside, mask,
                           [den * y for y in two_dp])
    if ok:
        return CheckResult(PASS, witness=info)
    return CheckResult(FAIL, witness=info, detail="nonzero residual off the Levi span")


def _check_principal(flag) -> None:
    """TypeError unless the principal-in-Levi flag is a bool: a string such
    as "no" is truthy, and would pass for e principal."""
    if type(flag) is not bool:
        raise TypeError(f"principal_in_levi must be a bool, got {flag!r}")


def check_D(principal_in_levi: bool) -> CheckResult:
    """Codimension-1 ideal of the Levi W-algebra: vacuous for principal Levi
    type, undecided otherwise (module structure is out of reach here)."""
    _check_principal(principal_in_levi)
    if principal_in_levi:
        return CheckResult(PASS, detail="vacuous: e is of principal Levi type")
    return CheckResult(UNDECIDED, detail="cannot decide W-algebra module structure")


@dataclass(frozen=True)
class CertificateInput:
    model: RootSystemModel
    levi: tuple[int, ...]          # indices into the simple system
    # characteristic of e inside the Levi; None is the regular one, h_regular(model, levi)
    h: Weight | None
    lambda_prime: Weight           # lambda + rho
    principal_in_levi: bool = False
    # <alpha_i, h> on the simple roots, read once here and used by ``certify``
    h_simple: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_principal(self.principal_in_levi)
        model = self.model
        mask = levi_mask(model, self.levi)
        levi = tuple(i for i in range(model.rank) if mask >> i & 1)
        object.__setattr__(self, "levi", levi)
        h = None if self.h is None else rootsys.canonicalize(model, self.h)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "lambda_prime", rootsys.canonicalize(model, self.lambda_prime))
        if h is None:
            # 2 rho_0^vee is integral and a sum of Levi coroots, so in their span
            values = _regular_values(model, mask)
        else:
            values = h_values(model, h)
            ok, residual = _levi_solve(model, h, *rootsys.span_coords(model, h), mask)
            if not ok:
                raise ValueError(f"h is not in the Levi coroot span; residual {residual}")
        object.__setattr__(self, "h_simple", tuple(values))
        if self.principal_in_levi and any(values[i] != 2 for i in levi):
            raise ValueError("principal_in_levi requires <alpha, h> = 2 "
                             "on every Levi simple root")


@dataclass(frozen=True)
class CertificateReport:
    verdict_A: CheckResult
    verdict_B: CheckResult
    verdict_C: CheckResult
    verdict_D: CheckResult
    dim_g: int
    dim_orbit: int
    cor68: int | None
    delta_prime: Weight
    unverified: tuple[str, ...] = field(default=(
        "the normalizer of the centralizer torus acts on it without nonzero "
        "fixed points (side condition, not machine-checkable here)",))

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
    and 2 delta', which (C) takes to the kernel that ``check_C`` runs.
    cor68, dim O and delta' are computed once and feed verdicts and report.
    """
    model = inp.model
    mask = levi_mask(model, inp.levi)
    values, den = rootsys.coroot_values(model, inp.lambda_prime)
    verdict_A = (_verdict_A(model, mask, values, den)
                 if inp.principal_in_levi else _A_UNDECIDED)
    cor68 = cor68_from_values(model, values, den)
    h_roots = root_values(model, inp.h_simple)
    dim_orbit = orbit_dim_from_values(model, h_roots)
    two_dp = _two_delta_prime(model, h_roots)
    return CertificateReport(
        verdict_A=verdict_A,
        verdict_B=_verdict_B(cor68, dim_orbit),
        verdict_C=_verdict_C(model, mask, inp.lambda_prime, two_dp),
        verdict_D=check_D(inp.principal_in_levi),
        dim_g=model.dim,
        dim_orbit=dim_orbit,
        cor68=cor68,
        delta_prime=combine(model, two_dp, 2),
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
