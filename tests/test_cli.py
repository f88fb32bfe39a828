import json

import pytest

from orbitcert import cli

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


def test_dimz(capsys):
    code, out, _ = run(capsys, "dimz", "--type", "sp", "--partition", "2,2")
    assert code == 0 and json.loads(out) == {"dim_z": 4}
    code, _, err = run(capsys, "dimz", "--type", "sp", "--partition", "3,1")
    assert code == 2 and "error" in err


def test_tables_single_row(capsys):
    code, out, _ = run(capsys, "tables", "--table", "rigid",
                       "--algebra", "E8", "--label", "A5+A1")
    assert code == 0
    assert json.loads(out) == {"dim_z": 46, "q": "2A1"}


def test_tables_not_found_is_null(capsys):
    code, out, _ = run(capsys, "tables", "--table", "rigid",
                       "--algebra", "E8", "--label", "Z99")
    assert code == 0 and json.loads(out) is None


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
