"""Reference certificate path: ``certify`` as it was before it shared one
pass per side across (A)-(D).

Each function below is the engine's code as it was, verbatim: ``certify``
and ``CertificateInput`` (which called ``check_A``, ``cor68_dim`` through
``integral_system``, ``orbit_dim_from_h`` through ``graded_dims``, and
``delta_prime``, each reading Dynkin labels or h's simple values again),
``in_levi_span`` with ``root_coords`` (two products per vector), and
``integral_system`` and ``simple_system_of`` with ``indecomposables`` (the
O(N^2) pair scan that the walk by height, ``rootsys.height_simples``,
replaced), and ``cor68_from_system``, the rule that reads the sign of
lambda' on the simple system of the integral system (the engine counts the
integral roots and reads the sign of every integral value instead).  What
did not change (``h_values``, ``dynkin_labels``, ``simple_pairings``,
``combine``, ``classify_gram``, ``pack``, the verdict helpers and the report
class) comes from the engine.  ``_levi`` is this module's own copy of the
Pi_0 validator, as (sorted indices, bit set).  The edits are in
``integral_system``: it calls this module's ``indecomposables``, which was
``rootsys.indecomposables``, and fills ``IntegralSystem.cor68`` by
``cor68_from_system`` from lambda''s values on its simple coroots, so
``cor68_dim`` reads that field.  The differential tests in
``test_certify_differential.py`` compare the engine against these; nothing
in ``src/`` imports this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from orbitcert import rootsys
from orbitcert.certify import (CertificateReport, CheckResult, FAIL, PASS, UNDECIDED,
                               _coefficient_sum, _verdict_B, check_D)
from orbitcert.integral import IntegralSystem
from orbitcert.rootsys import (RootSystemModel, Weight, _enumerate_positive, combine,
                               h_values, pack, simple_pairings)


# rootsys ---------------------------------------------------------------------

def _levi(model: RootSystemModel, pi0) -> tuple[list[int], int]:
    """Validated Pi_0 as (sorted indices, bit set)."""
    indices = frozenset(pi0)
    if not all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < model.rank
               for i in indices):
        raise ValueError(f"Pi_0 must be a subset of 0..{model.rank - 1}")
    ordered = sorted(indices)
    return ordered, sum(1 << i for i in ordered)


def root_coords(model: RootSystemModel, w: Weight) -> tuple[list[int], int]:
    """(nums, den): w's orthogonal projection onto the span of the simple
    roots is sum_i (nums[i] / den) a_i."""
    nums, den = simple_pairings(model, w)
    rows, rows_den = model.coweight_rows
    return [sum(map(mul, row, nums)) for row in rows], den * rows_den


def indecomposables(codes: list[int]) -> list[bool]:
    """For a set of packed positive vectors: which are not a sum of two members."""
    members = set(codes)
    return [not any(code - other in members for other in codes) for code in codes]


def simple_system_of(model: RootSystemModel, roots) -> tuple[Weight, ...]:
    """Simple system of a closed sub-root-system given by its roots.

    Input roots (any mix of signs) must all be roots of the model and form
    a set closed under internal sums; the result is the set of positive
    elements not expressible as sums of two positive elements, ordered like
    the model's positive roots.  A set that is not closed is detected when
    the output fails to regenerate it.
    """
    roots = list(roots)
    index, npos = model._root_index, len(model.positive_roots)
    for v in roots:
        if v not in index:
            raise ValueError(f"{v} is not a root of {model.cartan_type}")
    chosen = sorted({index[v] % npos for v in roots})
    codes = pack(model.pos_coefficients[k] for k in chosen)
    simples = [model.positive_roots[k] for k, simple in zip(chosen, indecomposables(codes))
               if simple]
    if any(a.dot(b) > 0 for i, a in enumerate(simples) for b in simples[i + 1:]):
        raise ValueError("root set is not closed under the subsystem structure")
    try:
        generated, _ = _enumerate_positive(simples, limit=len(chosen))
    except ValueError:
        raise ValueError("root set is not closed under the subsystem structure")
    if set(generated) != {model.positive_roots[k] for k in chosen}:
        raise ValueError("root set is not closed under the subsystem structure")
    return tuple(simples)


# orbits ----------------------------------------------------------------------

def graded_dims(model: RootSystemModel, h: Weight) -> dict[int, int]:
    """dim g(i) for the grading by ad-h eigenvalues; h must be integral."""
    values = h_values(model, h)
    dims: dict[int, int] = {0: model.rank}
    for coeff in model.pos_coefficients:
        k = sum(map(mul, coeff, values))
        dims[k] = dims.get(k, 0) + 1
        dims[-k] = dims.get(-k, 0) + 1
    return {k: v for k, v in sorted(dims.items()) if v}


def centralizer_dim_from_h(model: RootSystemModel, h: Weight) -> int:
    """dim z_g(e) = dim g(0) + dim g(1) for a characteristic h of e."""
    dims = graded_dims(model, h)
    return dims.get(0, 0) + dims.get(1, 0)


def orbit_dim_from_h(model: RootSystemModel, h: Weight) -> int:
    """dim O = dim g - dim z_g(e); odd only when h is not a characteristic."""
    dim_orb = model.dim - centralizer_dim_from_h(model, h)
    if dim_orb % 2:
        raise ValueError(f"orbit dimension {dim_orb} is odd: h is not the "
                         "characteristic of a nilpotent")
    return dim_orb


# integral --------------------------------------------------------------------

def integral_system(model: RootSystemModel, lambda_prime: Weight) -> IntegralSystem:
    """Roots alpha with <lambda', alpha^vee> integral, with simple system and type.

    rho is integral (checked when the model is built), so integrality
    against lambda' = lambda + rho and against lambda agree.
    """
    labels, den = rootsys.dynkin_labels(model, lambda_prime)
    coroots = model.coroot_coefficients
    values = [sum(map(mul, cv, labels)) for cv in coroots]
    chosen = [k for k, v in enumerate(values) if v % den == 0]
    codes = [model.coroot_codes[k] for k in chosen]
    simple = [k for k, ind in zip(chosen, indecomposables(codes)) if ind]
    rows = [model.pos_coefficients[k] for k in simple]
    images = [[sum(map(mul, form_row, row)) for form_row in model.gram] for row in rows]
    cartan_type = rootsys.classify_gram([[sum(map(mul, row, image)) for row in rows]
                                         for image in images])
    npos = len(model.positive_roots)
    allroots = (tuple(model.positive_roots[k] for k in chosen)
                + tuple(model.roots[npos + k] for k in chosen))
    return IntegralSystem(lambda_prime, allroots,
                          tuple(model.positive_roots[k] for k in simple), cartan_type,
                          cor68_from_system(model, [values[k] // den for k in simple],
                                            len(allroots)))


def cor68_from_system(model: RootSystemModel, simple_pairings, size: int) -> int | None:
    """``cor68_dim`` from lambda''s values on the simple coroots of its
    integral system and the system's size #Delta(lambda)."""
    if not all(v > 0 for v in simple_pairings):
        return None
    dim_g_lambda = size + model.rank
    return model.dim - dim_g_lambda


def cor68_dim(model: RootSystemModel, lambda_prime: Weight) -> int | None:
    """dim VA(U/J(lambda)) = dim g - dim g(lambda) when lambda' is positive
    on every simple coroot of the integral system; None when the positivity
    hypothesis fails (the parametric formula then needs the cell orbit).

    dim g(lambda) carries the full Cartan: #Delta(lambda) + rank g.
    """
    return integral_system(model, lambda_prime).cor68


# certify ---------------------------------------------------------------------

def _root_values(model: RootSystemModel, values) -> list[int]:
    """<beta, h> on each positive root, from h's values on the simple roots."""
    return [sum(map(mul, coeff, values)) for coeff in model.pos_coefficients]


def _two_delta_prime(model: RootSystemModel, values) -> list[int]:
    """2 delta' on the simple roots, from the h-values of the positive roots."""
    return _coefficient_sum([coeff for coeff, v in zip(model.pos_coefficients, values)
                             if v == 0 or v == 1], model.rank)


def delta_prime(model: RootSystemModel, h: Weight) -> Weight:
    """Half-sum of the positive roots alpha with <alpha, h> in {0, 1}."""
    values = _root_values(model, h_values(model, h))
    return combine(model, _two_delta_prime(model, values), 2)


def in_levi_span(model: RootSystemModel, mu: Weight, pi0
                 ) -> tuple[bool, tuple[Fraction, ...] | Weight]:
    """Exact solve of mu = sum c_i alpha_i over Pi_0.

    Returns (True, coefficients) on success or (False, residual) on failure.
    mu's coordinates on the simple roots are read once (those of its
    projection onto the root span); membership is the support check that
    the coefficients outside Pi_0 vanish, plus mu lying in the root span,
    so inputs outside the root span fail with the honest residual.
    """
    ordered, mask = _levi(model, pi0)
    mu = rootsys.canonicalize(model, mu)
    nums, den = rootsys.root_coords(model, mu)
    coeffs = tuple(Fraction(nums[i], den) for i in ordered)
    if (all(x == 0 for i, x in enumerate(nums) if not mask >> i & 1)
            and rootsys.in_root_span(model, mu)):
        return True, coeffs
    return False, mu - combine(model, [x if mask >> i & 1 else 0
                                       for i, x in enumerate(nums)], den)


def check_A(model: RootSystemModel, pi0, lambda_prime: Weight,
            principal_in_levi: bool = True) -> CheckResult:
    """Levi-antidominance of lambda (undecided unless e is regular in the Levi)."""
    if not principal_in_levi:
        return CheckResult(UNDECIDED, detail="criterion needs e regular in the Levi")
    _, mask = _levi(model, pi0)
    labels, den = rootsys.dynkin_labels(model, lambda_prime)
    for beta, cv, s in zip(model.positive_roots, model.coroot_coefficients, model.supports):
        if s & ~mask:
            continue
        val = sum(map(mul, cv, labels))
        if val > 0 and val % den == 0:
            return CheckResult(FAIL, witness=beta,
                               detail=f"<lambda', alpha^vee> = {val // den} in Z_>0")
    return CheckResult(PASS)


def _verdict_C(model: RootSystemModel, pi0, mu: Weight) -> CheckResult:
    ok, info = in_levi_span(model, mu, pi0)
    if ok:
        return CheckResult(PASS, witness=info)
    return CheckResult(FAIL, witness=info, detail="nonzero residual off the Levi span")


@dataclass(frozen=True)
class CertificateInput:
    model: RootSystemModel
    levi: tuple[int, ...]          # indices into the simple system
    h: Weight                      # characteristic of e inside the Levi
    lambda_prime: Weight           # lambda + rho
    principal_in_levi: bool = False

    def __post_init__(self):
        indices, _ = _levi(self.model, self.levi)
        object.__setattr__(self, "levi", tuple(indices))
        object.__setattr__(self, "h", rootsys.canonicalize(self.model, self.h))
        object.__setattr__(self, "lambda_prime",
                           rootsys.canonicalize(self.model, self.lambda_prime))
        values = h_values(self.model, self.h)
        ok, residual = in_levi_span(self.model, self.h, indices)
        if not ok:
            raise ValueError(f"h is not in the Levi coroot span; residual {residual}")
        if self.principal_in_levi:
            for i in indices:
                if values[i] != 2:
                    raise ValueError("principal_in_levi requires <alpha, h> = 2 "
                                     "on every Levi simple root")


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
