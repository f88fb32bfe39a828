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

from . import rootsys
from .record import Record
from .rootsys import RootSystemModel, Weight


class IntegralSystem(Record):
    """The integral subsystem of lambda' = lambda + rho."""

    lambda_prime: Weight
    coroots: tuple[Weight, ...]       # roots with integral coroot pairing, +/- closed
    simple_system: tuple[Weight, ...]  # roots dual to the simple coroots, positive in Delta
    cartan_type: tuple[str, ...]       # labels of Delta(lambda) itself: B and C not swapped
    cor68: int | None                  # cor68_dim of lambda', from the same coroot values

    def __init__(self, lambda_prime, coroots, simple_system, cartan_type, cor68):
        self.__dict__.update(lambda_prime=lambda_prime, coroots=coroots,
                             simple_system=simple_system, cartan_type=cartan_type, cor68=cor68)

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
    coeffs = model.coroot_coefficients
    simple = sorted(integral[pos] for pos in
                    rootsys.height_simples([coeffs[k] for k in integral]))
    cartan_type = rootsys.classify_gram(rootsys.root_gram(model, simple))
    chosen = sorted(integral)
    npos = len(model.positive_roots)
    allroots = (tuple(model.positive_roots[k] for k in chosen)
                + tuple(model.roots[npos + k] for k in chosen))
    return IntegralSystem(lambda_prime, allroots,
                          tuple(model.positive_roots[k] for k in simple), cartan_type,
                          cor68_from_values(model, values, den))


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
