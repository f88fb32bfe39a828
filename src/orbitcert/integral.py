"""Integral root subsystems and associated-variety dimension formulas.

The integral system of a weight consists of the roots whose coroots pair
integrally with lambda + rho.  The coroot set is always closed inside the
dual root system, so the simple system is extracted on the coroot side:
the roots whose coroots are not sums of two integral positive coroots,
found by walking the integral coroots by coroot height
(``rootsys.height_simples``).  The Cartan type is read from the Gram matrix
of those simple roots, so it is that of the integral root system itself (B
and C are not swapped).
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import rootsys
from .rootsys import RootSystemModel, Weight


@dataclass(frozen=True)
class IntegralSystem:
    """The integral subsystem of lambda' = lambda + rho."""

    lambda_prime: Weight
    coroots: tuple[Weight, ...]       # roots with integral coroot pairing, +/- closed
    simple_system: tuple[Weight, ...]  # roots dual to the simple coroots, positive in Delta
    cartan_type: tuple[str, ...]       # component labels of Delta(lambda), dual-adjusted
    simple_pairings: tuple[int, ...]   # <lambda', beta^vee> on the simple system

    @property
    def size(self) -> int:
        """#Delta(lambda)."""
        return len(self.coroots)


def integral_system(model: RootSystemModel, lambda_prime: Weight) -> IntegralSystem:
    """Roots alpha with <lambda', alpha^vee> integral, with simple system and type.

    rho is integral (checked when the model is built), so integrality
    against lambda' = lambda + rho and against lambda agree.
    """
    return integral_from_values(model, lambda_prime,
                                *rootsys.coroot_values(model, lambda_prime))


def integral_from_values(model: RootSystemModel, lambda_prime: Weight,
                         values: list[int], den: int) -> IntegralSystem:
    """``integral_system`` from <lambda', beta^vee> = values[k] / den on the
    positive roots (``rootsys.coroot_values``)."""
    by_height = [k for k, _, _ in model.coroot_steps if values[k] % den == 0]
    codes = model.coroot_codes
    simple = sorted(by_height[pos]
                    for pos in rootsys.height_simples([codes[k] for k in by_height]))
    chosen = sorted(by_height)
    rows = [model.pos_coefficients[k] for k in simple]
    form_rows = model.form_rows
    cartan_type = rootsys.classify_gram([[sum(map(mul, form_rows[k], row)) for row in rows]
                                         for k in simple])
    npos = len(model.positive_roots)
    allroots = (tuple(model.positive_roots[k] for k in chosen)
                + tuple(model.roots[npos + k] for k in chosen))
    return IntegralSystem(lambda_prime, allroots,
                          tuple(model.positive_roots[k] for k in simple), cartan_type,
                          tuple(values[k] // den for k in simple))


@dataclass(frozen=True)
class AntidominantResult:
    word: tuple[int, ...]   # indices into the simple system, in application order
    weight: Weight
    minimal: bool           # certified minimal (mu regular on the subsystem)


def antidominant_rep(model: RootSystemModel, simple_system, mu: Weight
                     ) -> AntidominantResult:
    """Greedy reflection descent to the antidominant representative.

    Repeatedly reflects at any simple root of the subsystem pairing
    positively with the current weight; terminates with nu = w(mu) and
    <nu, alpha^vee> <= 0 on the whole simple system.  The word is minimal
    when mu is regular on the subsystem (length = inversion count); for
    singular mu it is a valid but possibly non-minimal representative,
    flagged via ``minimal=False``.  W permutes the roots, so mu is regular
    exactly when the antidominant nu is strictly negative on every simple
    root (Humphreys, Introduction to Lie Algebras, 10.3).
    """
    simples = list(simple_system)
    cur = mu
    word: list[int] = []
    while True:
        # <cur, a^vee> has the sign of the integer (cur, a) * den(cur) * den(a)
        idx = next((i for i, a in enumerate(simples)
                    if sum(map(mul, cur.nums, a.nums)) > 0), None)
        if idx is None:
            break
        cur = rootsys.reflect(cur, simples[idx])
        word.append(idx)
    regular = all(sum(map(mul, cur.nums, a.nums)) < 0 for a in simples)
    return AntidominantResult(tuple(word), cur, regular)


def apply_word(simple_system, word, mu: Weight) -> Weight:
    """Replay a reflection word (application order) on a weight."""
    simples = list(simple_system)
    cur = mu
    for idx in word:
        cur = rootsys.reflect(cur, simples[idx])
    return cur


def cor68_dim(model: RootSystemModel, lambda_prime: Weight) -> int | None:
    """dim VA(U/J(lambda)) = dim g - dim g(lambda) when lambda' is positive
    on every simple coroot of the integral system; None when the positivity
    hypothesis fails (the parametric formula then needs the cell orbit).

    dim g(lambda) carries the full Cartan: #Delta(lambda) + rank g.
    """
    return cor68_from_system(model, integral_system(model, lambda_prime))


def cor68_from_system(model: RootSystemModel, isys: IntegralSystem) -> int | None:
    """``cor68_dim`` for an integral system that is already built."""
    if not all(v > 0 for v in isys.simple_pairings):
        return None
    dim_g_lambda = isys.size + model.rank
    return model.dim - dim_g_lambda


def prop67_dim(dim_g: int, dim_g_lambda: int, dim_orbit_w: int) -> int:
    """dim VA(U/J(lambda)) = dim g - dim g(lambda) + dim O_w (caller supplies O_w)."""
    if dim_g < 0 or dim_g_lambda < 0 or dim_orbit_w < 0 or dim_g < dim_g_lambda:
        raise ValueError("need 0 <= dim g(lambda) <= dim g and dim O_w >= 0")
    result = dim_g - dim_g_lambda + dim_orbit_w
    if result < 0:
        raise ValueError("negative associated-variety dimension")
    return result
