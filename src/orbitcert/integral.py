"""Integral root subsystems and associated-variety dimension formulas.

The integral system of a weight consists of the roots whose coroots pair
integrally with lambda + rho.  The coroot set is always closed inside the
dual root system, so ``integral_system`` extracts the simple system on the
coroot side: the roots whose coroots are not sums of two integral positive
coroots, found by walking the integral coroots by coroot height
(``rootsys.height_simples``).  The Cartan type is read from the Gram matrix
of those simple roots, so it is that of the integral root system itself (B
and C are not swapped).

``cor68_dim`` needs no simple system: every positive integral coroot is a
nonnegative integer combination of the simple ones (Humphreys, Introduction
to Lie Algebras, 10.1), so lambda' is positive on the simple integral
coroots exactly when it is positive on every positive integral coroot, and
the formula is a count of integral roots and a sign test.
``integral_system`` reads lambda' once for its simple system, type and cor68.
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
    cartan_type: tuple[str, ...]       # labels of Delta(lambda) itself: B and C not swapped
    cor68: int | None                  # cor68_dim of lambda', from the same coroot values

    @property
    def size(self) -> int:
        """#Delta(lambda)."""
        return len(self.coroots)


def integral_system(model: RootSystemModel, lambda_prime: Weight) -> IntegralSystem:
    """Roots alpha with <lambda', alpha^vee> integral, with simple system and type.

    rho is integral (checked when the model is built), so integrality
    against lambda' = lambda + rho and against lambda agree.
    """
    values, den = rootsys.coroot_values(model, lambda_prime)
    # the integral positive roots by coroot height, and the sorted ones among
    # them whose coroots are simple in the integral coroot system
    integral = [k for k, _, _ in model.coroot_steps if values[k] % den == 0]
    codes = model.coroot_codes
    simple = sorted(integral[pos] for pos in
                    rootsys.height_simples([codes[k] for k in integral]))
    rows = [model.pos_coefficients[k] for k in simple]
    form_rows = model.form_rows
    cartan_type = rootsys.classify_gram([[sum(map(mul, form_rows[k], row)) for row in rows]
                                         for k in simple])
    chosen = sorted(integral)
    npos = len(model.positive_roots)
    allroots = (tuple(model.positive_roots[k] for k in chosen)
                + tuple(model.roots[npos + k] for k in chosen))
    return IntegralSystem(lambda_prime, allroots,
                          tuple(model.positive_roots[k] for k in simple), cartan_type,
                          cor68_from_values(model, values, den))


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
    root (Humphreys, Introduction to Lie Algebras, 10.3).  mu must have
    the model's number of coordinates, and ``simple_system`` must be roots
    of the model forming a simple system: independent, with the Cartan
    entries of a finite type (ValueError otherwise, checked once here).
    """
    rootsys._check_length(model, mu)
    simples = list(simple_system)
    for a in simples:
        if not model.is_root(a):
            raise ValueError(f"{a} is not a root of {model.cartan_type}")
    rootsys.finite_cartan(rootsys._gram(*rootsys._common_rows(simples))[0])
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
    """Replay a reflection word (application order) on a weight; ValueError
    for an index outside 0..len(simple_system)-1."""
    simples = list(simple_system)
    cur = mu
    for idx in word:
        if type(idx) is not int or not 0 <= idx < len(simples):
            raise ValueError(f"word index {idx!r} is outside 0..{len(simples) - 1}")
        cur = rootsys.reflect(cur, simples[idx])
    return cur


def cor68_dim(model: RootSystemModel, lambda_prime: Weight) -> int | None:
    """dim VA(U/J(lambda)) = dim g - dim g(lambda) when lambda' is positive
    on every simple coroot of the integral system; None when the positivity
    hypothesis fails (the parametric formula then needs the cell orbit).

    dim g(lambda) carries the full Cartan: #Delta(lambda) + rank g.  No
    simple system is built (``cor68_from_values``).
    """
    return cor68_from_values(model, *rootsys.coroot_values(model, lambda_prime))


def cor68_from_values(model: RootSystemModel, values, den: int) -> int | None:
    """``cor68_dim`` from <lambda', beta^vee> = values[k] / den on the
    positive roots (``rootsys.coroot_values``): None unless every integral
    value is positive, else dim g - 2 #(integral positive roots) - rank g.

    lambda' is positive on the simple integral coroots exactly when it is
    positive on every positive integral coroot, a nonnegative integer
    combination of them (Humphreys, Introduction to Lie Algebras, 10.1).
    """
    integral = [v for v in values if v % den == 0]
    if min(integral, default=1) <= 0:
        return None
    return model.dim - 2 * len(integral) - model.rank


def prop67_dim(dim_g: int, dim_g_lambda: int, dim_orbit_w: int) -> int:
    """dim VA(U/J(lambda)) = dim g - dim g(lambda) + dim O_w (caller supplies O_w);
    TypeError unless each argument is an int (a bool is not)."""
    for value in (dim_g, dim_g_lambda, dim_orbit_w):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"prop67_dim takes integer dimensions, not {value!r}")
    if dim_g < 0 or dim_g_lambda < 0 or dim_orbit_w < 0 or dim_g < dim_g_lambda:
        raise ValueError("need 0 <= dim g(lambda) <= dim g and dim O_w >= 0")
    return dim_g - dim_g_lambda + dim_orbit_w
