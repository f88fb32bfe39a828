"""orbitcert: exact-arithmetic certificates for one-dimensional W-algebra
highest weights, nilpotent-orbit dimensions, and Lusztig-Spaltenstein
induction for classical types.

The submodules rootsys/orbits/lsinduce/integral/certify stay importable as
such; the certificate aggregator itself lives at ``orbitcert.certify.certify``,
and ``orbitcert.certify`` is the submodule.

Importing the package loads no submodule.  A public name is imported from
its home module on first access (PEP 562) and then kept in this module's
globals, so later lookups are plain attribute reads.
"""
import importlib

# home submodule -> the public names it gives the package
_EXPORTS = {
    "certify": ("CertificateInput", "CertificateReport", "CheckResult", "bv_candidate", "delta",
                "delta_prime", "graded_dims", "h_regular", "in_levi_span", "orbit_dim_from_h",
                "theta_for_levi"),
    "integral": ("IntegralSystem", "cor68_dim", "integral_system", "prop67_dim"),
    "lsinduce": ("GLBlock", "LeviDescriptor", "Tail", "centralizer_oracle", "collapse",
                 "induce", "is_rigid", "is_very_even", "jordan_oracle"),
    "orbits": ("DualityRecord", "OrbitRecord", "Partition", "dim_z_partition", "duality_table",
               "parity_valid", "rigid_table"),
    "rootsys": ("RootSystemModel", "Weight", "build", "canonicalize", "fundamental_coweights",
                "pairing", "rho"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the engine submodules, read as attributes of the package ("certify" among them)
_SUBMODULES = frozenset(_EXPORTS) | {"linalg"}

__all__ = sorted([*_HOME, "certify"])  # "certify" is the submodule


def __getattr__(name: str):
    """A public name or engine submodule, imported on first access and
    cached; called only while ``name`` is not yet a global."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # which binds the global
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
