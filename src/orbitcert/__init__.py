"""orbitcert: exact-arithmetic certificates for one-dimensional W-algebra
highest weights, nilpotent-orbit dimensions, and Lusztig-Spaltenstein
induction for classical types.

The submodules rootsys/orbits/lsinduce/integral/certify stay importable as
such; the certificate aggregator itself lives at ``orbitcert.certify.certify``,
and ``orbitcert.certify`` is the submodule.
"""

from .certify import (CertificateInput, CertificateReport, CheckResult,
                      check_A, check_B, check_C, check_D, delta, delta_prime,
                      h_regular, in_levi_span, theta_for_levi)
from .integral import (AntidominantResult, IntegralSystem, antidominant_rep,
                       apply_word, cor68_dim, integral_system, prop67_dim)
from .lsinduce import (GLBlock, LeviDescriptor, Tail, centralizer_oracle, collapse,
                       induce, is_rigid, is_very_even, jordan_oracle, jordan_type)
from .orbits import (DualityRecord, OrbitRecord, Partition, bv_candidate,
                     centralizer_dim_from_h, dim_z_partition, duality_table,
                     graded_dims, orbit_dim_from_h, parity_valid, rigid_table,
                     transpose)
from .rootsys import (RootSystemModel, Weight, build, canonicalize,
                      classify_simple_system, fundamental_coweights,
                      fundamental_weights, levi_subsystem, pairing, rho,
                      simple_system_of, weight)

__all__ = [
    "AntidominantResult", "CertificateInput", "CertificateReport", "CheckResult",
    "DualityRecord", "GLBlock", "IntegralSystem", "LeviDescriptor", "OrbitRecord",
    "Partition", "RootSystemModel", "Tail", "Weight", "antidominant_rep",
    "apply_word", "build", "bv_candidate", "canonicalize", "centralizer_dim_from_h",
    "centralizer_oracle", "certify", "check_A", "check_B", "check_C", "check_D",
    "classify_simple_system", "collapse", "cor68_dim", "delta", "delta_prime",
    "dim_z_partition", "duality_table", "fundamental_coweights",
    "fundamental_weights", "graded_dims", "h_regular", "in_levi_span", "induce",
    "integral_system", "is_rigid", "is_very_even", "jordan_oracle", "jordan_type",
    "levi_subsystem",
    "orbit_dim_from_h", "pairing", "parity_valid", "prop67_dim", "rho",
    "rigid_table", "simple_system_of", "theta_for_levi", "transpose", "weight",
]
