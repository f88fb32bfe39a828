"""Shared fixtures: the E8 worked-example data in epsilon coordinates."""
from fractions import Fraction as Fr

import pytest

from orbitcert import rootsys as rs

# the default types of the seeded and differential sweeps
TYPES = ("A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8")

# the A5+A1 Levi: simple roots a1..a5, a7 (0-based indices)
LEVI_A5A1 = (0, 1, 2, 3, 4, 6)

H_COORDS = (5, 3, 1, -1, -3, -5, 1, -1, 0)
DELTA_PRIME_COORDS = (Fr(3, 2), 1, 2, 1, Fr(3, 2), Fr(1, 2), 1, 0, -4)
LAMBDA_PRIME_COORDS = (1, Fr(7, 6), Fr(1, 3), Fr(1, 2), Fr(2, 3), Fr(5, 6),
                       Fr(1, 6), Fr(-1, 6), Fr(-9, 2))
RHO_COORDS = (7, 6, 5, 4, 3, 2, 1, 0, -22)

# the eight simple roots of the integral system of lambda'
INTEGRAL_SIMPLES = (
    (0, 0, 1, 1, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 0, -1, 0, 0),
    (1, 0, 0, 0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 0, 1, 0, -1, 0),
    (0, 0, 0, 1, 1, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 1, 0, 1, 0),
    (0, 1, 0, 0, 1, 0, 1, 0, 0),
    (1, 0, 1, 0, 1, 0, 0, 0, 0),
)


def rational(rng, nonzero=False):
    """A seeded rational a / b, |a| <= 6 and 1 <= b <= 6, redrawn until
    nonzero when asked."""
    while True:
        q = Fr(rng.randint(-6, 6), rng.randint(1, 6))
        if q or not nonzero:
            return q


@pytest.fixture(scope="session")
def e8():
    return rs.build("E8")


@pytest.fixture(scope="session")
def flagship_h(e8):
    return rs.canonicalize(e8, H_COORDS)


@pytest.fixture(scope="session")
def flagship_delta_prime(e8):
    return rs.canonicalize(e8, DELTA_PRIME_COORDS)


@pytest.fixture(scope="session")
def flagship_lambda_prime(e8):
    return rs.canonicalize(e8, LAMBDA_PRIME_COORDS)


@pytest.fixture(scope="session")
def flagship_integral_simples(e8):
    return frozenset(rs.canonicalize(e8, v) for v in INTEGRAL_SIMPLES)
