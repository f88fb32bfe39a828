#!/usr/bin/env python3
"""Audit the induction rule against both oracles on randomized descriptors.

Usage: python scripts/oracle_audit.py [count] [seed]
"""
import random
import sys
import time

from orbitcert import lsinduce as ls
from orbitcert.orbits import dim_z_partition


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)
    start = time.monotonic()
    for kind in ("gl", "so", "sp"):
        for i in range(count):
            levi = ls.random_descriptor(rng, kind, max_ambient=10)
            combinatorial = ls.induce(levi)
            matrix = ls.jordan_oracle(levi, seed=seed + i, trials=4)
            if combinatorial != matrix:
                raise SystemExit(f"{levi.to_json_dict()}: induce gives {combinatorial.parts}, "
                                 f"the Jordan oracle {matrix.parts}")
            if dim_z_partition(combinatorial) != ls.induced_dim_z(levi):
                raise SystemExit(f"{levi.to_json_dict()}: dim z of {combinatorial.parts} "
                                 f"is not the induced dimension {ls.induced_dim_z(levi)}")
        print(f"{kind}: {count} descriptors agree with both oracles")
    print(f"done in {time.monotonic() - start:.1f}s")


if __name__ == "__main__":
    main()
