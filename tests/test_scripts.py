"""Smoke tests: each experiment script runs and prints its conclusion; the
mutation probe is checked without running the suite."""
import ast
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from orbitcert import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_reproduce_e8(capsys):
    runpy.run_path(str(SCRIPTS / "reproduce_e8.py"), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    assert "cor68 dimension     = 202" in out
    assert out[-1] == "overall: pass"


def test_oracle_audit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["oracle_audit.py", "2", "0"])
    runpy.run_path(str(SCRIPTS / "oracle_audit.py"), run_name="__main__")
    assert capsys.readouterr().out.splitlines()[:3] == [
        f"{kind}: 2 descriptors agree with both oracles" for kind in ("gl", "so", "sp")]


def test_congruence_sweep_g2(capsys):
    runpy.run_path(str(SCRIPTS / "congruence_sweep.py"))["sweep"]("G2")
    assert capsys.readouterr().out.startswith("G2: 4 subsets, ")


def _nodes(tree):
    """Each node of a tree as its type and its non-node fields, positions aside."""
    skip = {"lineno", "col_offset", "end_lineno", "end_col_offset"}
    return [(type(node).__name__,
             [(name, value) for name, value in ast.iter_fields(node)
              if name not in skip and not isinstance(value, (ast.AST, list))])
            for node in ast.walk(tree)]


def test_mutation_probe_mutants_and_copy(capsys):
    """The probe's draw for a module is the same on every call; each mutant
    parses and differs from the source in exactly one node; and a probe run,
    with a stand-in for the suite, writes each mutant only into its copy of
    the checkout, leaving the working tree's file byte-identical."""
    probe = runpy.run_path(str(SCRIPTS / "mutation_probe.py"))
    path = SCRIPTS.parent / "src" / "orbitcert" / "integral.py"
    before = path.read_bytes()
    source = before.decode()
    chosen = probe["sample"]("integral", source)
    assert chosen == probe["sample"]("integral", source)
    assert len(chosen) == probe["SAMPLE"] and set(chosen) <= set(probe["mutants"](source))
    original = _nodes(ast.parse(source))
    for m in chosen:
        mutated = _nodes(ast.parse(m.apply(source)))
        assert len(mutated) == len(original)
        assert sum(a != b for a, b in zip(original, mutated)) == 1, m
    seen = []

    def run(copy, timeout=None, tests=None):
        assert copy != SCRIPTS.parent
        if not tests:  # the full runs: the unmutated suite, then each survivor's
            seen.append((copy / "src" / "orbitcert" / "integral.py").read_text())
        return "survived", "", 0.0

    assert probe["probe"](["integral"], run) == 0
    assert seen == [source] + [m.apply(source) for m in chosen]
    assert path.read_bytes() == before
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"integral: 0 killed, {len(chosen)} survived of {len(chosen)}"


def test_mutation_probe_changed_lines(capsys):
    """``--changed REV`` reads the new-side lines of each hunk of
    ``src/orbitcert`` from ``git diff -U0`` and probes every mutant on them;
    checked on a written diff and a stand-in suite, so no git and no suite run."""
    probe = runpy.run_path(str(SCRIPTS / "mutation_probe.py"))
    diff = "\n".join([
        "diff --git a/src/orbitcert/integral.py b/src/orbitcert/integral.py",
        "--- a/src/orbitcert/integral.py", "+++ b/src/orbitcert/integral.py",
        "@@ -40,2 +40,3 @@ def prop67_dim(dim_g, rank, n_int):",
        "+    a", "+    b", "+    c", "-    d", "-    e",
        "@@ -90 +91 @@", "+    f", "-    g",
        "@@ -120,4 +120,0 @@", "-    h",  # a hunk that only deletes
        "diff --git a/src/orbitcert/orbits.py b/src/orbitcert/orbits.py",
        "--- a/src/orbitcert/orbits.py", "+++ b/src/orbitcert/orbits.py",
        "@@ -7,2 +6,0 @@", "-    i",
        "--- a/src/orbitcert/gone.py", "+++ /dev/null", "@@ -1,5 +0,0 @@",
        "--- a/scripts/bench.py", "+++ b/scripts/bench.py", "@@ -1 +1 @@",
        "--- a/src/orbitcert/sub/x.py", "+++ b/src/orbitcert/sub/x.py", "@@ -1 +1 @@",
    ])
    assert probe["changed_lines"](diff) == {"integral": {40, 41, 42, 91}}
    path = SCRIPTS.parent / "src" / "orbitcert" / "integral.py"
    source = path.read_text()
    every = probe["mutants"](source)
    lines = {m.line for m in every[::3]}
    chosen = probe["on_lines"](source, lines)
    assert chosen == [m for m in every if m.line in lines] and chosen
    assert probe["on_lines"](source, set()) == []
    seen = []

    def run(copy, timeout=None, tests=None):
        seen.append((copy / "src" / "orbitcert" / "integral.py").read_text())
        return ("survived", "", 0.0) if len(seen) <= 2 else ("killed", "test_x", 0.0)

    assert probe["probe"](["integral"], run, lambda name, src: probe["on_lines"](src, lines),
                          "every mutant on the lines changed since REV") == 0
    assert seen == [source, source] + [m.apply(source) for m in chosen]
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("; every mutant on the lines changed since REV")
    assert out[-1] == f"integral: {len(chosen)} killed, 0 survived of {len(chosen)}"
    assert probe["main"](["--changed"]) == 2  # REV is required


def test_mutation_probe_runs_the_importing_tests_first(tmp_path, capsys):
    """A mutant runs first over the test files that import its module, with
    a timeout scaled from their own unmutated run, and over the whole suite
    only when they pass.  Checked on written test files and a stand-in suite."""
    probe = runpy.run_path(str(SCRIPTS / "mutation_probe.py"))
    tests = tmp_path / "tests"
    tests.mkdir()
    for name, text in {"test_a.py": "from orbitcert import integral as ig\n",
                       "test_b.py": "import orbitcert.integral\n",
                       "test_c.py": "def f():\n    from orbitcert.integral import cor68_dim\n",
                       "test_d.py": "from orbitcert import rootsys, Weight\nimport integral\n",
                       "test_e.py": "import orbitcert\nfrom . import integral\n",
                       "helper.py": "from orbitcert import integral\n"}.items():
        (tests / name).write_text(text)
    select = probe["importing_tests"]
    assert select(tmp_path, "integral") == ["tests/test_a.py", "tests/test_b.py",
                                            "tests/test_c.py"]
    assert select(tmp_path, "rootsys") == ["tests/test_d.py"]
    assert select(tmp_path, "__init__") == [f"tests/test_{c}.py" for c in "abcde"]
    assert select(tmp_path, "linalg") == []
    assert "tests/test_integral.py" in select(SCRIPTS.parent, "integral")
    assert "tests/test_lsinduce.py" not in select(SCRIPTS.parent, "integral")

    source = (SCRIPTS.parent / "src" / "orbitcert" / "integral.py").read_text()
    chosen = probe["mutants"](source)[:3]
    calls = []

    def run(copy, timeout=None, tests=None):
        mutated = (copy / "src" / "orbitcert" / "integral.py").read_text() != source
        calls.append((mutated, timeout, tuple(tests or ())))
        killed = mutated and tests and len(calls) != 4  # the second mutant passes them
        return ("killed", "test_x", 1.0) if killed else ("survived", "", 2.0 if tests else 10.0)

    assert probe["probe"](["integral"], run, lambda name, src: chosen) == 0
    first = tuple(select(SCRIPTS.parent, "integral"))
    factor = probe["TIMEOUT_FACTOR"]
    assert calls == [(False, None, ()), (False, None, first),
                     (True, factor * 2.0, first),
                     (True, factor * 2.0, first), (True, factor * 10.0, ()),
                     (True, factor * 2.0, first)]
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"integral: {len(first)} test files import it, 2.0 s unmutated"
    assert out[-1] == "integral: 2 killed, 1 survived of 3"
    assert "survived (12.0 s)" in out[3]


def test_paired_bench_verdict():
    """The paired rule, without running the benchmark: at least nine wins in
    ten, ties counting for neither side, and a median gap in the better
    direction larger than the parent's interquartile range."""
    verdict = runpy.run_path(str(SCRIPTS / "paired_bench.py"))["verdict"]
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    faster = [p + 10 for p in parent]
    shown = verdict(parent, faster, True)
    assert shown["shown"] and shown["wins"] == 10 and shown["gap"] == 10
    assert shown["parent_iqr"] == 101.0 - 99.25
    # the same numbers read as times: every pair lost
    assert verdict(parent, faster, False) == {**shown, "wins": 0, "gap": -10, "shown": False}
    # nine wins of ten still count, a tie counts for neither side
    nine = faster[:9] + [parent[9]]
    assert verdict(parent, nine, True)["wins"] == 9 and verdict(parent, nine, True)["shown"]
    eight = faster[:8] + parent[8:]
    assert verdict(parent, eight, True)["wins"] == 8 and not verdict(parent, eight, True)["shown"]
    # ten wins by a gap inside the parent's spread
    small = [p + 1 for p in parent]
    assert verdict(parent, small, True)["wins"] == 10
    assert not verdict(parent, small, True)["shown"]
    for bad in ((parent, parent[:9]), ([1.0], [2.0])):
        with pytest.raises(ValueError):
            verdict(*bad, True)


def test_paired_bench_claims_the_named_metric(capsys):
    """``--metric`` names the claimed metric, and its better direction comes
    from BENCHMARK.json: a cold start that falls is a gain, one that rises
    is not; an unknown name is a usage error.  ``run_once`` is a stand-in,
    so no benchmark runs."""
    main = runpy.run_path(str(SCRIPTS / "paired_bench.py"))["main"]
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    assert {m["name"]: m["better"] for m in spec["end_to_end"]}["cli_cold_s"] == "lower"
    calls = []

    def fake_run_once(checkout, workload, seconds, seed):
        side = "change" if checkout.name == "change" else "parent"
        pair = sum(c == side for c in calls)
        calls.append(side)
        cold = (0.080 if side == "parent" else rise) + 0.001 * (pair % 3)
        metrics = {name: {"value": 1.0} for name in names} | {"cli_cold_s": {"value": cold}}
        return {"attempted": 10, "failed": 0, "metrics": metrics}, "sha"

    main.__globals__["run_once"] = fake_run_once
    root = SCRIPTS.parent
    argv = ["--parent", str(root), "--change", str(root / "change"), "--workload", "w",
            "--seed", "1", "--pairs", "10"]
    for rise, shown in ((0.070, "shown"), (0.090, "not shown")):
        calls.clear()
        assert main(argv + ["--metric", "cli_cold_s"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"verdict: gain {shown}"
        assert out[-2].startswith(f"cli_cold_s: change won {10 if shown == 'shown' else 0} "
                                  f"of 10 pairs")
        assert calls == ["parent", "change", "change", "parent"] * 5
    calls.clear()
    assert main(argv) == 0  # ops_per_s by default: every pair a tie
    assert capsys.readouterr().out.splitlines()[-2].startswith("ops_per_s: change won 0")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--metric", "nope"])
    assert exc.value.code == 2 and "--metric must be one of setup_s," in capsys.readouterr().err


def test_cross_python_is_stable_and_covers_every_command(capsys, monkeypatch):
    """Two children on this interpreter print one sha256 and the script exits
    0; the corpus runs every command and reaches every exit code; two
    different sha256 values, or a child that fails, make it exit 1."""
    script = SCRIPTS / "cross_python.py"
    run = subprocess.run([sys.executable, str(script), sys.executable, sys.executable],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    sha, exits = lines[0].split("  ")[:2]
    assert len(sha) == 64 and exits.startswith("exits 0x")
    assert {part.split("x")[0] for part in exits.split()[1:]} == {"0", "1", "2", "3"}
    script_globals = runpy.run_path(str(script))
    commands = {next(token for token in argv if token in cli._COMMANDS)
                for argv in script_globals["corpus"]()}
    assert commands == set(cli._COMMANDS)
    main = script_globals["main"]
    children = iter([(0, '{"sha256": "a", "exits": {"0": 1}, "python": "3"}'),
                     (0, '{"sha256": "b", "exits": {"0": 1}, "python": "3"}'),
                     (5, "")])
    monkeypatch.setattr(subprocess, "run", lambda argv, **kwargs: subprocess.CompletedProcess(
        argv, *next(children), "child error"))
    assert main(["p", "q"]) == 1
    assert capsys.readouterr().out == "a  exits 0x1  Python 3  p\nb  exits 0x1  Python 3  q\n"
    assert main(["r"]) == 1
    assert capsys.readouterr().out == "failed  r: exit 5\nchild error\n"
