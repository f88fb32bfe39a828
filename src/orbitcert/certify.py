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

Antidominance convention (normative here): <lambda + rho, alpha^vee> is
not a positive integer, for every positive root alpha of the subsystem.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import rootsys
from .integral import cor68_dim
from .orbits import orbit_dim_from_h
from .rootsys import (RootSystemModel, Weight, fundamental_coweights,
                      levi_subsystem, pairing)

PASS, FAIL, UNDECIDED = "pass", "fail", "undecided"


def _zero(model: RootSystemModel) -> Weight:
    return Weight(tuple(Fraction(0) for _ in range(model.ambient_dim)))


def theta_for_levi(model: RootSystemModel, pi0) -> Weight:
    """The dominant coweight cutting out the Levi: sum of omega_i^vee, i not in Pi_0.

    Pairs to 0 with the Levi simple roots and to 1 with the others; a root
    pairs to zero with it exactly when it lies in the Levi span.
    """
    indices = rootsys._check_indices(model, pi0)
    theta = _zero(model)
    for i, w in enumerate(fundamental_coweights(model)):
        if i not in indices:
            theta = theta + w
    return theta


def h_regular(model: RootSystemModel, pi0) -> Weight:
    """Characteristic of the regular nilpotent of the Levi: the sum of its
    positive coroots (= 2 rho_0^vee); pairs to 2 on each Levi simple root."""
    pos, _ = levi_subsystem(model, pi0)
    acc = [Fraction(0)] * model.ambient_dim
    for beta in pos:
        for i, c in enumerate(model.coroot(beta).coords):
            acc[i] += c
    return Weight._raw(tuple(acc))


def delta(model: RootSystemModel, pi0, h: Weight) -> Weight:
    """The shift weight: over theta-negative roots, half-sum of those with
    <alpha, h> = -1 plus the full sum of those with <alpha, h> <= -2."""
    theta = theta_for_levi(model, pi0)
    acc = [Fraction(0)] * model.ambient_dim
    for beta in model.roots:
        if beta.dot(theta) < 0:
            ev = beta.dot(h)
            if ev.denominator != 1:
                raise ValueError(f"h is not integral on root {beta}")
            if ev == -1:
                for i, c in enumerate(beta.coords):
                    acc[i] += c / 2
            elif ev <= -2:
                for i, c in enumerate(beta.coords):
                    acc[i] += c
    return Weight._raw(tuple(acc))


def delta_prime(model: RootSystemModel, h: Weight) -> Weight:
    """Half-sum of the positive roots alpha with <alpha, h> in {0, 1}."""
    acc = [Fraction(0)] * model.ambient_dim
    for beta in model.positive_roots:
        ev = beta.dot(h)
        if ev.denominator != 1:
            raise ValueError(f"h is not integral on root {beta}")
        if ev in (0, 1):
            for i, c in enumerate(beta.coords):
                acc[i] += c / 2
    return Weight._raw(tuple(acc))


def in_levi_span(model: RootSystemModel, mu: Weight, pi0
                 ) -> tuple[bool, tuple[Fraction, ...] | Weight]:
    """Exact solve of mu = sum c_i alpha_i over Pi_0.

    Returns (True, coefficients) on success or (False, residual) on failure.
    Coefficients are read off against the dual basis of coweights (exact
    rationals); membership additionally requires the coefficients outside
    Pi_0 and the root-span complement components to vanish, so inputs
    outside the root span fail with the honest residual.
    """
    indices = rootsys._check_indices(model, pi0)
    mu = rootsys.canonicalize(model, mu.coords)
    coweights = fundamental_coweights(model)
    inside = (all(mu.dot(coweights[j]) == 0
                  for j in range(model.rank) if j not in indices)
              and all(mu.dot(v) == 0 for v in rootsys.span_complement(model)))
    ordered = sorted(indices)
    coeffs = tuple(mu.dot(coweights[i]) for i in ordered)
    if inside:
        return True, coeffs
    recon = _zero(model)
    for c, i in zip(coeffs, ordered):
        recon = recon + c * model.simple_roots[i]
    return False, mu - recon


@dataclass(frozen=True)
class CheckResult:
    status: str
    witness: object = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == PASS


def check_A(model: RootSystemModel, pi0, lambda_prime: Weight,
            principal_in_levi: bool = True) -> CheckResult:
    """Levi-antidominance of lambda (undecided unless e is regular in the Levi)."""
    if not principal_in_levi:
        return CheckResult(UNDECIDED, detail="criterion needs e regular in the Levi")
    pos, _ = levi_subsystem(model, pi0)
    for beta in pos:
        val = pairing(model, lambda_prime, beta)
        if val.denominator == 1 and val > 0:
            return CheckResult(FAIL, witness=beta,
                               detail=f"<lambda', alpha^vee> = {val} in Z_>0")
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
    return _verdict_C(model, pi0, lambda_prime - delta_prime(model, h))


def _verdict_C(model: RootSystemModel, pi0, mu: Weight) -> CheckResult:
    ok, info = in_levi_span(model, mu, pi0)
    if ok:
        return CheckResult(PASS, witness=info)
    return CheckResult(FAIL, witness=info, detail="nonzero residual off the Levi span")


def check_D(principal_in_levi: bool) -> CheckResult:
    """Codimension-1 ideal of the Levi W-algebra: vacuous for principal Levi
    type, undecided otherwise (module structure is out of reach here)."""
    if principal_in_levi:
        return CheckResult(PASS, detail="vacuous: e is of principal Levi type")
    return CheckResult(UNDECIDED, detail="cannot decide W-algebra module structure")


@dataclass(frozen=True)
class CertificateInput:
    model: RootSystemModel
    levi: tuple[int, ...]          # indices into the simple system
    h: Weight                      # characteristic of e inside the Levi
    lambda_prime: Weight           # lambda + rho
    principal_in_levi: bool = False

    def __post_init__(self):
        indices = sorted(rootsys._check_indices(self.model, self.levi))
        object.__setattr__(self, "levi", tuple(indices))
        object.__setattr__(self, "h", rootsys.canonicalize(self.model, self.h.coords))
        object.__setattr__(
            self, "lambda_prime",
            rootsys.canonicalize(self.model, self.lambda_prime.coords))
        for beta in self.model.positive_roots:
            if beta.dot(self.h).denominator != 1:
                raise ValueError(f"h is not integral on root {beta}")
        ok, residual = in_levi_span(self.model, self.h, indices)
        if not ok:
            raise ValueError(f"h is not in the Levi coroot span; residual {residual}")
        if self.principal_in_levi:
            for i in indices:
                if self.model.simple_roots[i].dot(self.h) != 2:
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
            if isinstance(res.witness, Weight):
                out["witness"] = res.witness.to_strings()
            elif isinstance(res.witness, tuple) and res.witness and all(
                    isinstance(x, (int, Fraction)) for x in res.witness):
                out["witness"] = [str(x) for x in res.witness]
            elif res.witness is not None:
                out["witness"] = str(res.witness)
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
    cor68, dim O and delta' are computed once and feed verdicts and report."""
    model = inp.model
    verdict_A = check_A(model, inp.levi, inp.lambda_prime, inp.principal_in_levi)
    cor68 = cor68_dim(model, inp.lambda_prime)
    dim_orbit = orbit_dim_from_h(model, inp.h)
    dprime = delta_prime(model, inp.h)
    return CertificateReport(
        verdict_A=verdict_A,
        verdict_B=_verdict_B(cor68, dim_orbit),
        verdict_C=_verdict_C(model, inp.levi, inp.lambda_prime - dprime),
        verdict_D=check_D(inp.principal_in_levi),
        dim_g=model.dim,
        dim_orbit=dim_orbit,
        cor68=cor68,
        delta_prime=dprime,
    )


def congruence_sweep(model: RootSystemModel):
    """Yield (pi0, key, ok) for the shift congruences on every Levi subset.

    With h the regular characteristic of Pi_0, key None is the congruence
    delta' - delta - rho in Q.Pi_0, and key (k, l), l > 0, is the sl2
    weight-sum identity S(k, l) - S(k, -l) in Q.Pi_0, where S(k, l) sums the
    roots beta with <beta, theta> = k and <beta, h> = l.
    """
    r0 = rootsys.rho(model)
    zero = _zero(model)
    for size in range(model.rank + 1):
        for pi0 in itertools.combinations(range(model.rank), size):
            h = h_regular(model, pi0)
            theta = theta_for_levi(model, pi0)
            resid = delta_prime(model, h) - delta(model, pi0, h) - r0
            yield pi0, None, in_levi_span(model, resid, pi0)[0]
            sums = {}
            for beta in model.roots:
                key = (beta.dot(theta), beta.dot(h))
                sums[key] = sums[key] + beta if key in sums else beta
            for (k, l), s in sums.items():
                if l > 0:
                    diff = s - sums.get((k, -l), zero)
                    yield pi0, (k, l), in_levi_span(model, diff, pi0)[0]
