"""Integral root subsystems and associated-variety dimension formulas.

The integral system of a weight consists of the roots whose coroots pair
integrally with lambda + rho.  The coroot set is always closed inside the
dual root system, so simple systems and Cartan types are extracted on the
coroot side and the component labels dualized (B <-> C) to report the
integral root system itself; for simply-laced ambients this is a no-op.
"""
from __future__ import annotations

from dataclasses import dataclass
from . import rootsys
from .rootsys import (RootSystemModel, Weight, classify_simple_system, dual_label,
                      pairing, rho, _indecomposables)


@dataclass(frozen=True)
class IntegralSystem:
    """The integral subsystem of lambda' = lambda + rho."""

    lambda_prime: Weight
    coroots: tuple[Weight, ...]       # roots with integral coroot pairing, +/- closed
    simple_system: tuple[Weight, ...]  # roots dual to the simple coroots, positive in Delta
    cartan_type: tuple[str, ...]       # component labels of Delta(lambda), dual-adjusted

    @property
    def size(self) -> int:
        """#Delta(lambda)."""
        return len(self.coroots)


def integral_system(model: RootSystemModel, lambda_prime: Weight) -> IntegralSystem:
    """Roots alpha with <lambda', alpha^vee> integral, with simple system and type."""
    r = rho(model)
    pos: list[Weight] = []
    for beta in model.positive_roots:
        val = pairing(model, lambda_prime, beta)
        if val.denominator == 1:
            # integrality against lambda and lambda + rho agree since rho is integral
            assert (val - pairing(model, r, beta)).denominator == 1
            pos.append(beta)
    covecs = [model.coroot(beta) for beta in pos]
    co_simple = set(map(tuple, (cv.coords for cv in _indecomposables(covecs))))
    simple_roots = tuple(beta for beta, cv in zip(pos, covecs)
                         if tuple(cv.coords) in co_simple)
    simple_covecs = [model.coroot(beta) for beta in simple_roots]
    labels = tuple(sorted((dual_label(l) for l in classify_simple_system(simple_covecs)),
                          key=rootsys._label_sort_key))
    allroots = tuple(pos) + tuple(-beta for beta in pos)
    return IntegralSystem(lambda_prime, allroots, simple_roots, labels)


@dataclass(frozen=True)
class AntidominantResult:
    word: tuple[int, ...]   # indices into the simple system, in application order
    weight: Weight
    minimal: bool           # certified minimal (mu regular on the subsystem)


def _subsystem_positive(simple_system) -> list[Weight]:
    roots, _ = rootsys._enumerate_positive(list(simple_system))
    return roots


def antidominant_rep(model: RootSystemModel, simple_system, mu: Weight
                     ) -> AntidominantResult:
    """Greedy reflection descent to the antidominant representative.

    Repeatedly reflects at any simple root of the subsystem pairing
    positively with the current weight; terminates with nu = w(mu) and
    <nu, alpha^vee> <= 0 on the whole simple system.  The word is minimal
    when mu is regular on the subsystem (length = inversion count); for
    singular mu it is a valid but possibly non-minimal representative,
    flagged via ``minimal=False``.
    """
    simples = list(simple_system)
    sub_pos = _subsystem_positive(simples) if simples else []
    regular = all(2 * mu.dot(g) / g.dot(g) != 0 for g in sub_pos)
    cur = mu
    word: list[int] = []
    while True:
        idx = next((i for i, a in enumerate(simples)
                    if 2 * cur.dot(a) / a.dot(a) > 0), None)
        if idx is None:
            break
        a = simples[idx]
        cur = cur - (2 * cur.dot(a) / a.dot(a)) * a
        word.append(idx)
    return AntidominantResult(tuple(word), cur, regular)


def apply_word(simple_system, word, mu: Weight) -> Weight:
    """Replay a reflection word (application order) on a weight."""
    simples = list(simple_system)
    cur = mu
    for idx in word:
        a = simples[idx]
        cur = cur - (2 * cur.dot(a) / a.dot(a)) * a
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
    if not all(pairing(model, isys.lambda_prime, beta) > 0 for beta in isys.simple_system):
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
