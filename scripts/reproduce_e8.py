#!/usr/bin/env python3
"""Reproduce the E8 A5+A1 certificate end to end and print every ingredient."""
from fractions import Fraction as Fr

from orbitcert import certify as ct
from orbitcert import integral as ig
from orbitcert import orbits as ob
from orbitcert import rootsys as rs


def fmt(w):
    return "(" + ", ".join(str(c) for c in w.coords) + ")"


def main():
    e8 = rs.build("E8")
    levi = (0, 1, 2, 3, 4, 6)  # a1..a5, a7: type A5+A1
    print(f"model: E8, dim {e8.dim}, {len(e8.positive_roots)} positive roots")

    h = ct.h_regular(e8, levi)
    print(f"h_regular(A5+A1) = {fmt(h)}")

    dims = ct.graded_dims(e8, h)
    print(f"dim g(0) + dim g(1) = {dims[0]} + {dims[1]} = {dims[0] + dims[1]}")
    print(f"orbit dimension     = {e8.dim} - {dims[0] + dims[1]} = "
          f"{ct.orbit_dim_from_h(e8, h)}")
    row = ob.rigid_table("E8", "A5+A1")
    print(f"table row           = dim_z {row.dim_z}, q = {row.q_type}")

    dp = ct.delta_prime(e8, h)
    print(f"delta'              = {fmt(dp)}")

    lam_p = rs.canonicalize(e8, (1, Fr(7, 6), Fr(1, 3), Fr(1, 2), Fr(2, 3),
                                 Fr(5, 6), Fr(1, 6), Fr(-1, 6), Fr(-9, 2)))
    print(f"lambda'             = {fmt(lam_p)}")

    isys = ig.integral_system(e8, lam_p)
    print(f"integral system     = {rs.format_type(isys.cartan_type)}, "
          f"#roots {isys.size}")
    for beta in isys.simple_system:
        print(f"  simple root {fmt(beta)}  pairing "
              f"{rs.pairing(e8, lam_p, beta)}")
    print(f"cor68 dimension     = {ig.cor68_dim(e8, lam_p)}")

    report = ct.certify(ct.CertificateInput(e8, levi, h, lam_p,
                                            principal_in_levi=True))
    for name, res in (("A", report.verdict_A), ("B", report.verdict_B),
                      ("C", report.verdict_C), ("D", report.verdict_D)):
        print(f"condition ({name}): {res.status}" +
              (f"  [{res.detail}]" if res.detail else ""))
    print(f"overall: {report.overall}")


if __name__ == "__main__":
    main()
