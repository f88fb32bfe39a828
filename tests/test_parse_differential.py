"""Differential test: the argv weight parser ``rootsys.read_weight``,
which reads tokens of the form [+-]p[/q] straight to integers, against the
Fraction parser it replaced (tests/cli_reference.py).

On a corpus of tokens (signed integers and fractions, padded tokens,
unreduced and zero denominators, a signed denominator, inner spaces,
decimals, underscores, the empty token, exponents, non-ASCII digits and
integers beyond the interpreter's digit limit) each token is placed in
every position of an epsilon vector and of a simple-root vector, for
models with and without the sum-zero canonicalizer.  Both parsers give the
same Weight (equal numerators and denominator) or raise the same exception
type with the same text, except on the tokens past ``read_weight``'s digit
limits, where the reference raises the interpreter's digit-limit error and
``read_weight`` a ValueError naming its own limit (``LONG``).
"""
import itertools
import random
import re

import pytest

import cli_reference as ref
from orbitcert import rootsys as rs

TOKENS = (
    # the documented form: ints and p/q with either sign, padded
    "0", "7", "-3", "+4", "1/2", "-5/6", "+1/2", "-0", "007", "00/03",
    " 1/3", "2/3 ", "\t-7/9\n", " 5/4 ",
    "1" * 40 + "/" + "3" * 30, "-" + "9" * 60,
    # unreduced, zero and signed denominators, inner spaces
    "2/4", "-6/4", "12/8", "1/0", "0/0", "-3/00", "1/-2", "1/+2", "1 /2", "1/ 2", "- 1",
    # other forms Fraction reads or rejects
    "0.5", ".5", "1.", "-1.25", "+.75", "1_000", "1_0/2_0", "_1", "1__0",
    "", " ", "1e3", "1E-2", "2.5e1", "--1", "+-1", "1//2", "1/2/3", "/2", "1/",
    "abc", "0x10", "nan", "inf", "1,5",
    # non-ASCII digits
    "١", "١/٢", "-٣", "１", "1/٣", "²", "१०",
)
# beyond the digit limit of int(str), numerator then denominator -> read_weight's error
LONG = {
    "9" * 5000: "a numerator has 5000 digits, more than the limit of 2000",
    "-" + "9" * 5000: "a numerator has 5000 digits, more than the limit of 2000",
    "1/" + "7" * 5000: "a denominator has 5000 digits, more than the limit of 2000",
    "1/0" + "0" * 5000: "a denominator has 5001 digits, more than the limit of 2000",
}
TOKENS += tuple(LONG)
LABELS = ("A2", "G2", "B3", "F4", "E8")


def _outcome(parse, model, text, root_coords):
    try:
        w = parse(model, text, root_coords)
    except Exception as exc:  # the same exception type and text is the contract
        return "error", type(exc).__name__, str(exc)
    return "ok", w.nums, w.den


@pytest.mark.parametrize("label", LABELS)
def test_every_token_in_every_position(label):
    model = rs.build(label)
    for root_coords in (False, True):
        size = model.rank if root_coords else model.ambient_dim
        for token, pos in itertools.product(TOKENS, range(size)):
            entries = ["1/3"] * size
            entries[pos] = token
            text = ",".join(entries)
            got = _outcome(rs.read_weight, model, text, root_coords)
            want = _outcome(ref._parse_weight, model, text, root_coords)
            if token in LONG:
                assert want[2].startswith("Exceeds the limit (4300 digits)"), want
                want = "error", "ValueError", LONG[token]
            assert got == want, (text, got)


@pytest.mark.parametrize("label", LABELS)
def test_seeded_token_mixes(label):
    """Random vectors of corpus tokens, at the right length and one off it:
    the first bad token wins over a later one and over the length check."""
    model = rs.build(label)
    rng = random.Random(f"parse-{label}")
    for _ in range(300):
        root_coords = rng.random() < 0.5
        size = (model.rank if root_coords else model.ambient_dim) + rng.choice((0, 0, 0, 1, -1))
        text = ",".join(rng.choice(TOKENS[:48]) for _ in range(size))
        got = _outcome(rs.read_weight, model, text, root_coords)
        assert got == _outcome(ref._parse_weight, model, text, root_coords), (text, got)


def test_corpus_reaches_both_paths_and_every_error():
    """The corpus exercises the integer path, the Fraction path and each
    error the parsers raise."""
    model = rs.build("A2")
    seen = set()
    for token in TOKENS:
        got = _outcome(ref._parse_weight, model, ",".join([token, "0", "0"]), False)
        if got[0] == "ok":
            seen.add("integer" if re.fullmatch(rs._INTEGER_TOKEN, token.strip())
                     else "fraction")
        else:
            seen.add(got[2].split(":")[0].split(" in ")[0])
    assert seen == {"integer", "fraction", "zero denominator", "Invalid literal for Fraction",
                    "exponent notation is not accepted", "expected 3 coordinates, got 4",
                    "Exceeds the limit (4300 digits) for integer string conversion"}
