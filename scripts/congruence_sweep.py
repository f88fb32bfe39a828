#!/usr/bin/env python3
"""Sweep every Levi subset of the exceptional types and verify the shift
congruence delta' - delta - rho in Q.Pi_0 plus the sl2 weight-sum identity."""
import time

from orbitcert import rootsys as rs
from orbitcert.certify import congruence_sweep


def sweep(label):
    subsets = pairs = 0
    start = time.monotonic()
    for pi0, key, ok in congruence_sweep(rs.build(label)):
        assert ok, (label, pi0, key)
        if key is None:
            subsets += 1
        else:
            pairs += 1
    print(f"{label}: {subsets} subsets, {pairs} (k,l) pairs, "
          f"{time.monotonic() - start:.1f}s")


if __name__ == "__main__":
    for label in ("G2", "F4", "E6", "E7", "E8"):
        sweep(label)
    print("all congruences hold")
