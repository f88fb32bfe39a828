import argparse
import contextlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_certify_differential as certify_differential
from orbitcert import certify as ct
from orbitcert import cli
from orbitcert import lsinduce as ls
from orbitcert import rootsys as rs

LAMBDA_PRIME = "1,7/6,1/3,1/2,2/3,5/6,1/6,-1/6,-9/2"
H = "5,3,1,-1,-3,-5,1,-1,0"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_e8(capsys):
    code, out, _ = run(capsys, "info", "--type", "E8")
    assert code == 0
    assert json.loads(out) == {"dim": 248, "positive_roots": 120, "rank": 8}


def test_info_json_round_trips(capsys):
    _, out, _ = run(capsys, "info", "--type", "G2")
    assert json.dumps(json.loads(out), sort_keys=True) == out.strip()


def test_pairing(capsys):
    code, out, _ = run(capsys, "pairing", "--type", "E8",
                       "--lambda", LAMBDA_PRIME, "--root", "0,0,0,0,0,1,1,1,0")
    assert code == 0
    assert json.loads(out) == {"pairing": "5/6"}


def test_info_rank_bound(capsys):
    code, out, err = run(capsys, "info", "--type", f"A{rs.MAX_RANK + 1}")
    assert code == 2 and out == "" and "rank out of range" in err


@pytest.mark.parametrize("target, name, error", [
    (rs, "build", KeyError("missing")),
    (ct, "certify", RuntimeError("invariant broken")),
])
def test_engine_crash_exits_internal(capsys, target, name, error):
    """A bug in the engine is exit 4, never a usage error or a verdict."""
    with mock.patch.object(target, name, side_effect=error):
        code, out, err = run(capsys, "certify", "--type", "E8",
                             "--levi", "a1,a2,a3,a4,a5,a7", "--lambda-prime", LAMBDA_PRIME)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err.splitlines()[-1] == f"internal error: {type(error).__name__}: {error}"


def test_pairing_rejects_non_root(capsys):
    code, _, err = run(capsys, "pairing", "--type", "E8",
                       "--lambda", LAMBDA_PRIME, "--root", "2,0,0,0,0,0,0,0,0")
    assert code == 2 and "error" in err


def test_delta_prime(capsys):
    code, out, _ = run(capsys, "delta-prime", "--type", "E8", "--h", H)
    assert code == 0
    assert json.loads(out) == {"delta_prime": ["1", "1/2", "3/2", "1/2", "1",
                                               "0", "1/2", "-1/2", "-9/2"]}


def test_certify_flagship_passes(capsys):
    code, out, _ = run(capsys, "certify", "--type", "E8",
                       "--levi", "a1,a2,a3,a4,a5,a7", "--h", H,
                       "--lambda-prime", LAMBDA_PRIME, "--principal")
    assert code == 0
    data = json.loads(out)
    assert data["overall"] == "pass"
    assert [data[k]["status"] for k in "ABCD"] == ["pass"] * 4
    assert data["dim_orbit"] == 202 and data["cor68"] == "202"


def test_certify_default_h_is_regular(capsys):
    code, out, _ = run(capsys, "certify", "--type", "E8",
                       "--levi", "a1,a2,a3,a4,a5,a7",
                       "--lambda-prime", LAMBDA_PRIME, "--principal")
    assert code == 0 and json.loads(out)["overall"] == "pass"


def test_certify_fail_exit_code(capsys):
    rho = "19/3,16/3,13/3,10/3,7/3,4/3,1/3,-2/3,-68/3"
    code, out, _ = run(capsys, "certify", "--type", "E8",
                       "--levi", "a1,a2,a3,a4,a5,a7", "--h", H,
                       "--lambda-prime", rho, "--principal")
    assert code == 1
    assert json.loads(out)["overall"] == "fail"


def test_certify_undecided_exit_code(capsys):
    code, out, _ = run(capsys, "certify", "--type", "E8",
                       "--levi", "a1,a2,a3,a4,a5,a7", "--h", H,
                       "--lambda-prime", LAMBDA_PRIME)
    assert code == 3
    assert json.loads(out)["overall"] == "undecided"


def test_certify_odd_orbit_is_usage_error(capsys):
    """h integral and in the Levi span but with an odd orbit dimension is not
    a characteristic: exit 2 with the reason, no report."""
    code, out, err = run(capsys, "certify", "--type", "A1", "--levi", "a1", "--h=1/2,-1/2",
                         "--lambda-prime=0,0")
    assert (code, out, err) == (2, "", "error: orbit dimension 1 is odd: h is not the "
                                       "characteristic of a nilpotent\n")


@pytest.mark.parametrize("levi, type_, message", [
    ("a1,b2", "E8", "malformed simple root name 'b2'"),
    ("a9", "E8", "simple root index 9 out of 1..8"),
])
def test_certify_rejects_bad_levi_names(capsys, levi, type_, message):
    code, out, err = run(capsys, "certify", "--type", type_, "--levi", levi,
                         "--lambda-prime", LAMBDA_PRIME)
    assert code == 2 and out == "" and message in err


def test_certify_text_output_nests(capsys):
    code, out, _ = run(capsys, "--output", "text", "certify", "--type", "E8",
                       "--levi", "a1,a2,a3,a4,a5,a7", "--h", H,
                       "--lambda-prime", LAMBDA_PRIME, "--principal")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "overall: pass"
    c = lines.index("C:")
    assert lines[c + 1:c + 4] == ["  status: pass", "  witness:", "    0"]
    d = lines.index("delta_prime:")
    assert lines[d + 1:d + 10] == ["  1", "  1/2", "  3/2", "  1/2", "  1",
                                   "  0", "  1/2", "  -1/2", "  -9/2"]


def test_text_output_delimits_nested_lists_and_prints_null(capsys):
    code, out, _ = run(capsys, "--output", "text", "integral", "--type", "G2",
                       "--lambda-prime", "1/2,0,-1/2")
    assert code == 0
    assert out.splitlines() == ["integral_type: A1+A1", "simple_roots:",
                                "  -", "    -1", "    0", "    1",
                                "  -", "    1", "    -2", "    1",
                                "count: 4", "cor68: null"]
    code, out, _ = run(capsys, "--output", "text", "rigid", "--type", "sp", "--partition", "4,2")
    assert out.splitlines()[:7] == ["rigid: false", "witness:", "  type: sp", "  ambient: 6",
                                    "  gl_blocks:", "    -", "      k: 1"]


def test_text_output_prints_booleans_as_json_does(capsys):
    argv = ["rigid", "--type", "sp", "--partition", "2,1,1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == '{"rigid": true, "witness": null}\n'
    code, out, _ = run(capsys, "--output", "text", *argv)
    assert code == 0 and out.splitlines() == ["rigid: true", "witness: null"]


def test_empty_tuple_witness_encodes_as_empty_list(capsys):
    argv = ["certify", "--type", "G2", "--levi", "", "--h", "0,0,0", "--lambda-prime=-1,-2,3"]
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert json.loads(out)["C"] == {"status": "pass", "witness": []}
    code, out, _ = run(capsys, "--output", "text", *argv)
    lines = out.splitlines()
    c = lines.index("C:")
    assert lines[c + 1:c + 4] == ["  status: pass", "  witness:", "D:"]


def test_certify_levi_numeric_names(capsys):
    code, out, _ = run(capsys, "certify", "--type", "E8",
                       "--levi", "1,2,3,4,5,7", "--h", H,
                       "--lambda-prime", LAMBDA_PRIME, "--principal")
    assert code == 0 and json.loads(out)["overall"] == "pass"


def test_integral(capsys):
    code, out, _ = run(capsys, "integral", "--type", "E8",
                       "--lambda-prime", LAMBDA_PRIME)
    assert code == 0
    data = json.loads(out)
    assert data["integral_type"] == "A5+A2+A1"
    assert data["cor68"] == "202"
    assert data["count"] == 38
    assert len(data["simple_roots"]) == 8


def test_induce(capsys):
    code, out, _ = run(capsys, "induce", "--type", "sp", "--ambient", "4",
                       "--levi", '{"gl_blocks":[{"k":2,"d":[1,1]}]}')
    assert code == 0
    assert json.loads(out) == [2, 2]


def test_induce_text_output(capsys):
    code, out, _ = run(capsys, "--output", "text", "induce", "--type", "sp",
                       "--ambient", "6", "--levi", '{"gl_blocks":[{"k":3,"d":[2,1]}]}')
    assert code == 0 and out == "4\n2\n"


def test_induce_very_even_note(capsys):
    code, out, err = run(capsys, "induce", "--type", "so", "--ambient", "8",
                         "--levi", '{"gl_blocks":[{"k":4,"d":[1,1,1,1]}]}')
    assert code == 0
    assert json.loads(out) == [2, 2, 2, 2]
    assert "very even" in err


def test_rigid(capsys):
    code, out, _ = run(capsys, "rigid", "--type", "sp", "--partition", "2,1,1")
    assert code == 0
    assert json.loads(out) == {"rigid": True, "witness": None}
    code, out, _ = run(capsys, "rigid", "--type", "sp", "--partition", "4")
    data = json.loads(out)
    assert data["rigid"] is False and data["witness"]["type"] == "sp"


def test_rigid_bound_ignores_oracle_variable(capsys):
    """rigid has no size bound: the zero orbit of gl_15 is answered."""
    code, out, _ = run(capsys, "rigid", "--type", "gl", "--partition", ",".join("1" * 15))
    assert code == 0 and json.loads(out) == {"rigid": True, "witness": None}


def test_rigid_on_huge_parts(capsys):
    p = 10**12
    code, out, _ = run(capsys, "rigid", "--type", "sp", "--partition", f"{p},{p}")
    data = json.loads(out)
    assert code == 0 and data["rigid"] is False
    witness = ls.LeviDescriptor.from_json_dict(data["witness"])
    assert witness.tail.c.parts == (p - 1, p - 1)
    assert ls.induce(witness).parts == (p, p)


def test_rigid_witness_that_does_not_induce_is_internal_error(capsys):
    """A witness is re-induced before it is printed: a rule that names a wrong
    Levi is exit 4 with nothing on stdout, never a verdict."""
    wrong = ls.Partition((1, 1, 1, 1), "sp")
    with mock.patch.object(ls, "induce", return_value=wrong):
        code, out, err = run(capsys, "rigid", "--type", "sp", "--partition", "4")
    assert code == 4 and out == ""
    assert "internal error: RuntimeError: rigidity witness" in err


@pytest.mark.parametrize("command", ["induce", "oracle"])
@pytest.mark.parametrize("flags, levi, message", [
    (["--type", "gl"], '{"type":"so","ambient":4,"gl_blocks":[{"k":2,"d":[2]}]}',
     "descriptor type 'so' disagrees with 'gl'"),
    (["--type", "sp", "--ambient", "6"], '{"ambient":4,"gl_blocks":[{"k":2,"d":[1,1]}]}',
     "descriptor ambient 4 disagrees with 6"),
], ids=["type", "ambient"])
def test_descriptor_conflicting_with_flags_is_usage_error(capsys, command, flags, levi, message):
    code, out, err = run(capsys, command, *flags, "--levi", levi)
    assert code == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["induce", "oracle"])
def test_descriptor_agreeing_with_flags_is_accepted(capsys, command):
    code, out, _ = run(capsys, command, "--type", "sp", "--ambient", "4",
                       "--levi", '{"type":"sp","ambient":4,"gl_blocks":[{"k":2,"d":[1,1]}]}')
    assert code == 0 and json.loads(out) == [2, 2]


def test_rigid_rejects_ambient_mismatch(capsys):
    code, out, err = run(capsys, "rigid", "--type", "sp", "--partition", "2,1", "--ambient", "4")
    assert code == 2 and out == "" and "partition sums to 3, not 4" in err


def test_parser_built_once():
    assert cli._parsers() is cli._parsers()


# argv dispatch: one argparse pass against the full parse -------------------------

def parse_outcome(parse, argv):
    """The Namespace that parsing argv gives, or its SystemExit code, with
    what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def assert_parses_as_full_parse(argv):
    assert (parse_outcome(cli.parse_argv, argv)
            == parse_outcome(cli._parsers()[0].parse_args, argv)), argv


CERTIFY = ["certify", "--type", "E8", "--levi", "a1,a2,a3,a4,a5,a7",
           "--lambda-prime", LAMBDA_PRIME]


@pytest.mark.parametrize("argv", [
    ["--output", "text", *CERTIFY], ["--output=text", *CERTIFY], ["--out", "text", *CERTIFY],
    [*CERTIFY, "--output", "text"], ["info", "--type", "E8", "--output=json"],
    ["--output", "xml", *CERTIFY], ["--output"],
    ["-h"], ["--help"], ["--he"], ["certify", "-h"], ["certify", "--help"], ["-h", "certify"],
    ["info", "--type", "E8", "-h"], ["--output", "text", "-h"],
    [], ["nope"], ["nope", "--type", "E8"], ["Certify", "--type", "E8"], ["cert"],
    ["certify", "--type", "E8", "--lev=", "--lambda-prime", "0"],
    ["certify", "--type", "E8", "--l", "a1"], ["certify", "--type=E8", "--lev", "a1,a2",
                                               "--lam", LAMBDA_PRIME, "--pr"],
    ["--=x"], ["certify", "--=x"], ["info", "--type", "E8", "--=x"], [*CERTIFY, "--=", "1"],
    ["certify", "--", "--=x"], ["info", "--", "--=x"], [*CERTIFY, "--", "--=x"],
    ["info", "--", "--type", "E8"], ["info", "--type", "E8", "--", "x", "y"],
    ["--", "info", "--type", "E8"], ["info", "--type", "--", "E8"], [*CERTIFY, "--"],
    ["--help=3"], ["info", "--help=3"], ["info", "--type", "E8", "--he=1"],
    ["certify", "--type", "A2", "--levi", "a1", "--lambda-prime", "-1,2"],
    ["certify", "--type", "A2", "--levi", "a1", "--lambda-prime=-1,2"],
    ["certify", "--type", "A2", "--levi", "a1", "--lambda-prime", "-1"],
    [*CERTIFY, "--principal", "--principal", "extra", "--nope"], ["info", "--type"],
    ["oracle", "--type", "sp", "--levi", "{}", "--seed", "x"], ["tables", "--table", "other"],
    ["tables", "--table", "rigid", "-"], ["info", "--type", "E8", "---"],
])
def test_parse_argv_matches_full_parse(argv):
    """Top-level options before and after the command, help at both levels,
    no command, unknown or abbreviated commands, abbreviated and ambiguous
    options, tokens starting with "--=" before and after "--", and values
    that look like options: the same Namespace, or the same exit code and
    printed bytes."""
    assert_parses_as_full_parse(argv)


@pytest.mark.parametrize("label", certify_differential.TYPES)
def test_parse_argv_matches_full_parse_on_certify_cases(label):
    for argv, _, _, _ in certify_differential.cases(label):
        for fmt in (["--output", "text"], []):
            assert_parses_as_full_parse(fmt + argv)


def test_command_argv_takes_one_argparse_pass(monkeypatch):
    """argv starting with a command word is parsed by that command's parser
    alone; a top-level option first takes the full parse, top level and
    command."""
    parsers = []
    original = argparse.ArgumentParser.parse_known_args

    def counted(parser, *args, **kwargs):
        parsers.append(parser.prog)
        return original(parser, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    args = cli.parse_argv(CERTIFY)
    assert parsers == ["orbitcert certify"]
    assert (args.command, args.output, args.h) == ("certify", "json", None)
    parsers.clear()
    cli.parse_argv(["--output", "text", *CERTIFY])
    assert parsers == ["orbitcert", "orbitcert certify"]


def test_dimz(capsys):
    code, out, _ = run(capsys, "dimz", "--type", "sp", "--partition", "2,2")
    assert code == 0 and json.loads(out) == {"dim_z": 4}
    code, _, err = run(capsys, "dimz", "--type", "sp", "--partition", "3,1")
    assert code == 2 and "error" in err


def test_dimz_huge_part(capsys):
    code, out, _ = run(capsys, "dimz", "--type", "gl", "--partition", str(10**9))
    assert code == 0 and json.loads(out) == {"dim_z": 10**9}
    code, out, _ = run(capsys, "dimz", "--type", "sp", "--partition", f"{10**9},{10**9},3,3")
    # transpose (4, 4, 4, 2, ..., 2): squares 3 * 16 + (10**9 - 3) * 4, plus two odd parts
    assert code == 0 and json.loads(out) == {"dim_z": (4 * 10**9 + 36 + 2) // 2}


def test_tables_single_row(capsys):
    code, out, _ = run(capsys, "tables", "--table", "rigid",
                       "--algebra", "E8", "--label", "A5+A1")
    assert code == 0
    assert json.loads(out) == {"dim_z": 46, "q": "2A1"}


def test_tables_not_found_is_null(capsys):
    code, out, _ = run(capsys, "tables", "--table", "rigid",
                       "--algebra", "E8", "--label", "Z99")
    assert code == 0 and json.loads(out) is None


@pytest.mark.parametrize("table", ["rigid", "duality"])
def test_tables_uncovered_algebra_is_usage_error(capsys, table):
    """A one-row lookup and a listing both refuse an algebra the tables do
    not cover, with the library lookup's message, rather than answering
    null, an empty list or a bare CSV header."""
    for output in ("json", "text"):
        for label in (("--label", "A1"), ()):
            code, out, err = run(capsys, "--output", output, "tables", "--table", table,
                                 "--algebra", "Q", *label)
            assert code == 2 and out == "", (output, label)
            assert err == "error: the tables cover G2, F4, E6, E7, E8, not 'Q'\n"


def test_tables_full_dump(capsys):
    code, out, _ = run(capsys, "tables", "--table", "rigid")
    rows = json.loads(out)
    assert code == 0 and len(rows) == 34
    code, out, _ = run(capsys, "tables", "--table", "duality")
    assert len(json.loads(out)) == 8


def test_tables_csv(capsys):
    code, out, _ = run(capsys, "--output", "text", "tables", "--table", "rigid")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "algebra,label,q_type,dim_z"
    assert len(lines) == 35
    assert "E8,A5+A1,2A1,46" in lines
    assert "F4,~A1,A3,30" in lines


def test_tables_csv_filters_rows(capsys):
    code, out, _ = run(capsys, "--output", "text", "tables", "--table", "rigid",
                       "--algebra", "G2")
    assert code == 0
    assert out.splitlines() == ["algebra,label,q_type,dim_z",
                                "G2,A1,A1,8", "G2,~A1,A1,6"]
    code, out, _ = run(capsys, "--output", "text", "tables", "--table", "duality",
                       "--label", "2A1")
    assert out.splitlines() == ["algebra,label,dual",
                                "E7,2A1,E7(a2)", "E8,2A1,E8(a2)"]


def test_tables_duality_lookup(capsys):
    code, out, _ = run(capsys, "tables", "--table", "duality",
                       "--algebra", "E7", "--label", "2A1")
    assert code == 0 and json.loads(out) == {"dual": "E7(a2)"}


def test_oracle_seed_reproducible(capsys):
    args = ("oracle", "--type", "sp", "--ambient", "8",
            "--levi", '{"gl_blocks":[{"k":2,"d":[2]}],"tail":{"m":4,"c":[1,1,1,1]}}',
            "--seed", "5", "--trials", "4")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    assert json.loads(out1) == [4, 2, 1, 1]


def test_oracle_exhausted_budget_is_undecided(capsys):
    """Two draws under this seed both land below the induced orbit (see
    test_lsinduce): the run is undecided, exit 3 with JSON, not a usage error."""
    levi = '{"gl_blocks":[{"k":3,"d":[2,1]}]}'
    code, out, err = run(capsys, "oracle", "--type", "sp", "--ambient", "6", "--levi", levi,
                         "--seed", "850592468", "--trials", "2")
    assert code == cli.EXIT_UNDECIDED == 3 and err == ""
    assert json.loads(out) == {"undecided": "trial budget exhausted: none of 2 draws in "
                                            "sp_6 reached the induced orbit's dimension"}
    with pytest.raises(ls.TrialBudgetExhausted):
        ls.jordan_oracle(ls.LeviDescriptor.from_json_dict(json.loads(levi), "sp", 6),
                         seed=850592468, trials=2)
    assert issubclass(ls.TrialBudgetExhausted, ValueError)
    code, out, _ = run(capsys, "oracle", "--type", "sp", "--ambient", "6", "--levi", levi,
                       "--seed", "850592468", "--trials", "3")
    assert code == 0 and json.loads(out) == [4, 2]


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "info", "--type", "Z9")
    assert code == 2 and "error" in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["info", "--nope"])
    assert exc.value.code == 2


def test_root_coords_input(capsys):
    # lambda' = rho expressed on the simple-root basis of A2: rho = a1 + a2
    code, out, _ = run(capsys, "pairing", "--type", "A2", "--root-coords",
                       "--lambda", "1,1", "--root", "1,0")
    assert code == 0 and json.loads(out) == {"pairing": "1"}


def test_text_output_smoke(capsys):
    code, out, _ = run(capsys, "--output", "text", "info", "--type", "E8")
    assert code == 0 and "dim: 248" in out


def test_zero_denominator_is_usage_error(capsys):
    code, out, err = run(capsys, "pairing", "--type", "A2",
                         "--lambda", "1/0,0,0", "--root", "1,-1,0")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("token", ["1e3", "1E3", "1e3000000", "2.5e-1"])
def test_exponent_notation_is_usage_error(capsys, token):
    code, out, err = run(capsys, "pairing", "--type", "A2",
                         "--lambda", f"{token},0,0", "--root", "1,-1,0")
    assert code == 2 and out == ""
    assert err == f"error: exponent notation is not accepted: {token!r}\n"


def _digit_limit_weights(extra: int) -> str:
    """Nine E8 entries: numerators of MAX_TOKEN_DIGITS + extra digits over
    two coprime denominators whose lcm has MAX_LCM_DIGITS + extra digits."""
    half = rs.MAX_LCM_DIGITS // 2
    a, b = 10 ** half, 10 ** (rs.MAX_LCM_DIGITS - half - 1 + extra) + 1
    assert len(str(math.lcm(a, b))) == rs.MAX_LCM_DIGITS + extra
    digits = "9" * (rs.MAX_TOKEN_DIGITS + extra)
    return f"{digits}/{a},-{digits}/{b},{digits},1,2,3,4,5,6"


@pytest.mark.parametrize("argv", [
    ["certify", "--type", "E8", "--levi", "1,2,3", "--lambda-prime"],
    ["certify", "--type", "E8", "--levi", "1,2,3", "--principal", "--lambda-prime"],
    ["certify", "--type", "E8", "--levi", "1", "--h", f"{'9' * rs.MAX_TOKEN_DIGITS},"
     f"-{'9' * rs.MAX_TOKEN_DIGITS},0,0,0,0,0,0,0", "--lambda-prime"],
    ["pairing", "--type", "E8", "--root", "1,-1,0,0,0,0,0,0,0", "--lambda"],
    ["integral", "--type", "E8", "--lambda-prime"],
])
def test_input_at_the_digit_limits_prints_its_report(capsys, argv):
    """Every integer a command prints from inputs at the limits stays under
    the interpreter's 4300 digits for int-to-str conversion; (C)'s witness
    for such a lambda' has a numerator of about 4000 digits."""
    code, out, err = run(capsys, *argv, _digit_limit_weights(0))
    assert code in (0, 1, 3) and err == ""
    assert json.loads(out)


@pytest.mark.parametrize("weight, message", [
    (_digit_limit_weights(1), "a numerator has 2001 digits, more than the limit of 2000"),
    (f"1/{'7' * 2001},0,0,0,0,0,0,0,0",
     "a denominator has 2001 digits, more than the limit of 2000"),
    ("9" * 5000 + ",0,0,0,0,0,0,0,0", "a numerator has 5000 digits, more than the limit of 2000"),
    (_digit_limit_weights(1).replace("9" * 2001, "1"),
     "the lcm of the denominators has more than the limit of 2000 digits"),
    ("." + "0" * 1999 + "1,0,0,0,0,0,0,0,0",  # 1 / 10**2000
     "the lcm of the denominators has more than the limit of 2000 digits"),
], ids=["numerator", "denominator", "long-numerator", "lcm", "decimal-lcm"])
def test_input_past_a_digit_limit_exits_2_before_computing(capsys, weight, message):
    """One digit past a limit is a usage error naming the limit, raised while
    the input is read: the certificate is never started.  Two 3000-digit
    denominators, each under the interpreter's limit, used to get a computed
    certificate that then failed to print (C)'s witness, and exit 2 for it."""
    assert (rs.MAX_TOKEN_DIGITS, rs.MAX_LCM_DIGITS) == (2000, 2000)  # as the messages say
    with mock.patch.object(ct, "CertificateInput", side_effect=AssertionError("computed")):
        for lam in (weight, f"1/{'7' * 3000},1/{'1' * 2999}3,0,0,0,0,0,0,0"):
            code, out, err = run(capsys, "certify", "--type", "E8", "--levi", "1,2,3",
                                 "--lambda-prime", lam)
            assert (code, out) == (2, "") and err.startswith("error: ")
            assert "limit" in err and "Exceeds" not in err
    assert err.startswith("error: a denominator has 3000 digits")
    code, out, err = run(capsys, "certify", "--type", "E8", "--levi", "1,2,3",
                         "--lambda-prime", weight)
    assert (code, out, err) == (2, "", f"error: {message}\n")


LONG_DIGITS = "1" * 5000  # past int's 4300-digit limit for string conversion


@pytest.mark.parametrize("argv, message", [
    (["info", "--type", "E" + LONG_DIGITS], f"rank out of range for type E{LONG_DIGITS}"),
    (["certify", "--type", "E8", "--levi", LONG_DIGITS, "--lambda-prime", "0,0,0,0,0,0,0,0,0"],
     f"simple root index {LONG_DIGITS} out of 1..8"),
    (["dimz", "--type", "gl", "--partition", LONG_DIGITS],
     "a part has 5000 digits, more than the limit of 2000"),
    (["rigid", "--type", "gl", "--partition", LONG_DIGITS],
     "a part has 5000 digits, more than the limit of 2000"),
], ids=["rank", "levi-index", "dimz-part", "rigid-part"])
def test_integer_past_its_bound_exits_2_with_its_limit(capsys, argv, message):
    """A rank, a simple root index or a partition's part written with more
    digits than ``int`` reads is a usage error that states the bound, not
    the interpreter's digit-limit message."""
    assert cli.MAX_PART_DIGITS == 2000  # as the message says
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_indices_keep_their_leading_zeros_meaning(capsys):
    argv = ["certify", "--type", "E8", "--lambda-prime", "0,0,0,0,0,0,0,0,0", "--levi"]
    expected = run(capsys, *argv, "1,2,7")
    assert expected[0] in (0, 1, 3)
    assert run(capsys, *argv, "a01,alpha002," + "0" * 5000 + "7") == expected
    assert run(capsys, *argv[:2], "E" + "0" * 5000 + "8", *argv[3:], "1,2,7") == expected
    # an index out of range is printed as int prints it
    for index, shown in (("09", "9"), ("a\u0669\u0669", "99"), ("0" * 5000 + "10", "10")):
        assert run(capsys, *argv, index) == (2, "", f"error: simple root index {shown} out of 1..8\n")


@pytest.mark.parametrize("command", ["dimz", "rigid"])
@pytest.mark.parametrize("kind", ["gl", "so", "sp"])
def test_parts_at_the_digit_limit_print_their_report(capsys, command, kind):
    """Parts of MAX_PART_DIGITS digits, one padded with a blank that ``int``
    skips: every integer printed stays under the interpreter's 4300 digits
    for int-to-str conversion."""
    big = " " + "9" * cli.MAX_PART_DIGITS
    parts = {"gl": f"{big},1", "so": f"{big},{big},3,1", "sp": f"{big},{big},2,2"}[kind]
    code, out, err = run(capsys, command, "--type", kind, "--partition", parts)
    assert (code, err) == (0, "")
    assert json.loads(out)
    code, out, err = run(capsys, command, "--type", kind, "--partition", "9" + parts.strip())
    assert (code, out) == (2, "")
    assert err == "error: a part has 2001 digits, more than the limit of 2000\n"


def test_errors_print_weights_as_rationals(capsys):
    code, out, err = run(capsys, "certify", "--type", "A2", "--levi", "a1",
                         "--h", "1,0,-1", "--lambda-prime", "1,0,0")
    assert code == 2 and out == ""
    assert err == "error: h is not in the Levi coroot span; residual [0, 1, -1]\n"
    code, _, err = run(capsys, "pairing", "--type", "A2",
                       "--lambda", "1,0,0", "--root", "1/2,-1/2,0")
    assert code == 2 and err == "error: [1/2, -1/2, 0] is not a root of A2\n"


HASH_SEED_ARGVS = [
    ["certify", "--type", "E8", "--levi", "a1,a2,a3,a4,a5,a7", "--h", H,
     "--lambda-prime", LAMBDA_PRIME, "--principal"],
    ["delta-prime", "--type", "E8", "--h", H],
    ["integral", "--type", "E8", "--lambda-prime", LAMBDA_PRIME],
    ["certify", "--type", "A2", "--levi", "a1", "--h", "1,0,-1", "--lambda-prime", "1,0,0"],
]


def test_outputs_do_not_depend_on_the_hash_seed(capsys):
    """Fresh interpreters under two PYTHONHASHSEED values print the same bytes,
    and the exit code and stdout of ``main`` called in process: the
    subprocess reads its argv from ``sys.argv``, the in-process call is given it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    for argv in HASH_SEED_ARGVS:
        runs = []
        for seed in ("0", "1234567"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            proc = subprocess.run([sys.executable, "-m", "orbitcert.cli", *argv],
                                  capture_output=True, env=env, timeout=60)
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert runs[0] == runs[1], argv
        assert runs[0][1 if runs[0][0] == 0 else 2]
        code, out, _ = run(capsys, *argv)
        assert (runs[0][0], runs[0][1].decode()) == (code, out), argv


@pytest.mark.parametrize("levi", ['{"gl_blocks":5}', '[1]', '{"gl_blocks":[3]}',
                                  '{"gl_blocks":[{"k":5,"d":null}]}',
                                  '{"gl_blocks":[{"k":2.5,"d":[2]}]}',
                                  '{"gl_blocks":[],"tail":{"m":5,"c":5}}'])
def test_malformed_descriptor_is_usage_error(capsys, levi):
    code, out, err = run(capsys, "induce", "--type", "gl", "--ambient", "5", "--levi", levi)
    assert code == 2 and out == "" and err.startswith("error:")


def test_oracle_defaults_are_jordan_oracles():
    """The command's --seed and --trials defaults are the library's."""
    parameters = inspect.signature(ls.jordan_oracle).parameters
    oracle = cli._parsers()[1]["oracle"]
    assert (oracle.get_default("seed"), oracle.get_default("trials")) \
        == (parameters["seed"].default, parameters["trials"].default)


def test_oracle_trials_bounded(capsys):
    code, out, err = run(capsys, "oracle", "--type", "gl", "--ambient", "4",
                         "--levi", '{"gl_blocks":[{"k":4,"d":[2,2]}]}',
                         "--trials", "100000000")
    assert code == 2 and out == "" and "trials must be in 1..1000" in err


# argv fuzz ---------------------------------------------------------------------

NUMBERS = ["0", "1", "-1", "2", "1/2", "-7/6", "3/3", " 4 ", "1.5", "1/0", "0/0",
           "", "x", "nan", "inf", "--1", "1//2", "1e3000000", "2E-9999999"]
WEIGHTS = st.one_of(
    st.sampled_from([LAMBDA_PRIME, H, "0,0,0,0,0,1,1,1,0", "1,-1,0", "1,0,-1", "2,1,0",
                     "1,1", "1,0", "0,1", "1,2", "1/0,0,0"]),
    st.lists(st.sampled_from(NUMBERS), max_size=10).map(",".join),
    st.text(alphabet="0123456789/-,. xeE", max_size=12))
TYPES = st.sampled_from(["A2", "B3", "C3", "D4", "G2", "F4", "E6", "E8", "a2", "A 2",
                         "A0", "E9", "D3", "Z9", "", "gl", "so", "sp"])
PARTITIONS = st.one_of(st.lists(st.integers(-2, 9) | st.integers(10**6, 10**12),
                                max_size=6).map(
    lambda parts: ",".join(map(str, parts))), st.sampled_from(["", "x", "3,,1", "2.0", ","]))
SMALL_INTS = st.one_of(st.integers(-3, 8).map(str), st.sampled_from(["x", "", "1.5"]))
SIZES = st.one_of(SMALL_INTS, st.integers(10**6, 10**12).map(str))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.sampled_from(["", "gl", "so", "sp"]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["type", "ambient", "gl_blocks", "tail", "k", "d", "m", "c"]),
        children, max_size=4),
    max_leaves=10)


@st.composite
def large_descriptors(draw):
    """A descriptor with up to 300 distinct parts per orbit, each up to 10**12,
    whose sizes are consistent or off by a drawn amount."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["gl", "so", "sp"]))

    def parts():
        top = rng.choice([9, 10**6, 10**12])
        return sorted(rng.sample(range(1, top + 1), rng.randint(1, min(top, 300))),
                      reverse=True)

    blocks = [{"k": sum(d), "d": d} for d in (parts() for _ in range(rng.randint(1, 2)))]
    out = {"type": kind, "gl_blocks": blocks}
    k = sum(b["k"] for b in blocks)
    if kind == "gl":
        out["ambient"] = k
    else:
        c = parts()
        if kind == "sp" and sum(c) % 2:
            c.append(1)
        c = list(ls.collapse(c, kind).parts)
        out["tail"] = {"m": sum(c), "c": c}
        out["ambient"] = 2 * k + sum(c)
    out["ambient"] += draw(st.sampled_from([0, 0, 0, 1, -2]))
    return out


@st.composite
def descriptors(draw):
    """Descriptor JSON: valid random Levis, known malformed shapes and noise."""
    choice = draw(st.integers(0, 3))
    if choice == 0:
        rng = random.Random(draw(st.integers(0, 2**16)))
        levi = ls.random_descriptor(rng, draw(st.sampled_from(["gl", "so", "sp"])), 8)
        return json.dumps(levi.to_json_dict())
    if choice == 3:
        return json.dumps(draw(large_descriptors()))
    if choice == 1:
        return draw(st.sampled_from(['{"gl_blocks":5}', "[1]", "{", "", "null",
                                     '{"gl_blocks":[{"k":2}]}', '{"tail":{"m":2,"c":"x"}}']))
    return json.dumps(draw(JSON_VALUES))


WELL_FORMED = {
    "info": [["--type", "E8"], ["--type", "g2"]],
    "pairing": [["--type", "E8", "--lambda", LAMBDA_PRIME, "--root", "0,0,0,0,0,1,1,1,0"],
                ["--type", "A2", "--lambda", "1,0,-1", "--root", "1,-1,0"],
                ["--type", "A2", "--root-coords", "--lambda", "1,1", "--root", "1,0"]],
    "delta-prime": [["--type", "E8", "--h", H], ["--type", "A2", "--h", "1,0,-1"]],
    "induce": [["--type", "so", "--ambient", "8",
                "--levi", '{"gl_blocks":[{"k":4,"d":[1,1,1,1]}]}']],
    "dimz": [["--type", "sp", "--partition", "2,2"], ["--type", "gl", "--partition", "3,1"]],
    "tables": [["--table", "rigid", "--algebra", "E8", "--label", "A5+A1"],
               ["--table", "duality"]],
    "rigid": [["--type", "sp", "--partition", "4,4,2,2"], ["--type", "so", "--partition", "3,3,1"],
              ["--type", "gl", "--partition", "3,2,2", "--ambient", "7"],
              ["--type", "so", "--partition", f"{10**12 + 1},{10**12 - 1},1"]],
    "oracle": [["--type", "sp", "--ambient", "8", "--levi",
                '{"gl_blocks":[{"k":2,"d":[2]}],"tail":{"m":4,"c":[1,1,1,1]}}',
                "--seed", "5", "--trials", "4"]],
}


@st.composite
def argvs(draw):
    """One cheap subcommand, well-formed or with drawn values; each required
    flag is sometimes left out."""
    def flag(name, values, required=True):
        keep = draw(st.integers(0, 9)) if required else draw(st.booleans())
        return [name, draw(values)] if keep else []

    kinds = st.sampled_from(["gl", "so", "sp", "E8"])
    command = draw(st.sampled_from(["info", "pairing", "delta-prime", "induce", "rigid",
                                    "dimz", "tables", "oracle"]))
    if draw(st.booleans()):
        args = list(draw(st.sampled_from(WELL_FORMED[command])))
    elif command == "info":
        args = flag("--type", TYPES)
    elif command == "pairing":
        args = flag("--type", TYPES) + flag("--lambda", WEIGHTS) + flag("--root", WEIGHTS)
    elif command == "delta-prime":
        args = flag("--type", TYPES) + flag("--h", WEIGHTS)
    elif command in ("induce", "oracle"):
        args = (flag("--type", kinds) + flag("--ambient", SIZES, required=False)
                + flag("--levi", descriptors()))
    elif command == "rigid":
        args = (flag("--type", kinds) + flag("--partition", PARTITIONS)
                + flag("--ambient", SIZES, required=False))
    elif command == "dimz":
        args = flag("--type", kinds) + flag("--partition", PARTITIONS)
    elif command == "tables":
        args = (flag("--table", st.sampled_from(["rigid", "duality", "other"]))
                + flag("--algebra", st.sampled_from(["E8", "G2", "F4", "Q"]), required=False)
                + flag("--label", st.sampled_from(["A5+A1", "2A1", "A1", "Z99"]),
                       required=False))
    if command == "oracle":
        args = (args + flag("--seed", SMALL_INTS, required=False)
                + flag("--trials", SMALL_INTS, required=False))
    if command in ("pairing", "delta-prime") and draw(st.booleans()):
        args = args + ["--root-coords"]
    prefix = draw(st.sampled_from([[], ["--output", "json"], ["--output", "xml"]]))
    suffix = draw(st.sampled_from([[]] * 8 + [["--nope"], ["extra"]]))
    return prefix + [command] + args + suffix


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_argv_fuzz_exit_codes_and_streams(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:  # any other exception escapes and fails the test: it would be a traceback
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert_parses_as_full_parse(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert any("error: " in line for line in err.getvalue().splitlines())
    else:
        json.loads(out.getvalue())
