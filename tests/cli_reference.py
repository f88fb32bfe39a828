"""Reference argv parser: ``cli._parse_rational`` and ``cli._parse_weight``
as they were before weights were read straight to integers.

Both functions are the engine's code as it was, verbatim: every token went
through ``Fraction`` and the list of Fractions through ``rs.combine`` or
``rs.canonicalize``.  ``test_parse_differential.py`` compares the integer
parser against them; nothing in ``src/`` imports this module.
"""
from __future__ import annotations

from fractions import Fraction

from orbitcert import rootsys as rs


def _parse_rational(token: str) -> Fraction:
    token = token.strip()
    if "e" in token or "E" in token:  # Fraction would compute 10**exponent first
        raise ValueError(f"exponent notation is not accepted: {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def _parse_weight(model: rs.RootSystemModel, text: str, root_coords: bool) -> rs.Weight:
    entries = [_parse_rational(part) for part in text.split(",")]
    if root_coords:
        return rs.combine(model, entries)
    return rs.canonicalize(model, entries)
