#!/usr/bin/env python3
"""Run one fixed argv corpus under several Python interpreters and compare.

Usage: python scripts/cross_python.py PYTHON [PYTHON ...]

pyproject.toml claims Python 3.10 and later; this checks the claim on the
interpreters given.  Each PYTHON runs the whole corpus in one child process,
through ``orbitcert.cli.main`` in-process, with ``PYTHONHASHSEED=0`` and the
checkout's ``src`` on its path.  One line per interpreter gives the sha256
over every argv with its exit code, stdout and stderr, then the count of
each exit code and the interpreter's version and path.  The exit code is 1
when the sha256 values differ or a child fails, and 0 otherwise.

The corpus (``corpus``) uses the standard library and the program only.  It
is the seed-0 pools of perfbench's three workloads written as argvs
(certify-mix as it is, with ``integral`` on each lambda'; levi-sweep as
``delta-prime`` of each Levi's regular h; induction-audit as ``induce`` and
``oracle`` of each descriptor, and ``dimz`` and ``rigid`` of each
partition), ``info`` and both ``tables`` for every type those pools use,
and every argv that tests/test_cli.py writes out as literal strings in a
``run(capsys, ...)`` or ``cli.main([...])`` call, its error argvs among
them.
"""
from __future__ import annotations

import argparse
import ast
import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import runpy
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
SEED = 0
CHILD_TIMEOUT_S = 600


def _test_cli_argvs() -> list[list[str]]:
    """The argvs tests/test_cli.py writes out as literal strings: the
    arguments after ``capsys`` of a ``run`` call, or the list literal a
    ``cli.main`` call is given."""
    tree = ast.parse((CHECKOUT / "tests" / "test_cli.py").read_text())
    argvs = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        name = ast.unparse(node.func)
        if name == "run":
            args = node.args[1:]
        elif name == "cli.main" and isinstance(node.args[0], ast.List):
            args = node.args[0].elts
        else:
            continue
        if args and all(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in args):
            argvs.append([a.value for a in args])
    return argvs


def corpus() -> list[list[str]]:
    """The fixed argv corpus, in a fixed order."""
    from orbitcert import certify as ct
    from orbitcert import rootsys as rs

    wl = runpy.run_path(str(CHECKOUT / "perfbench" / "workloads.py"))
    argvs = []
    for op in wl["certify_mix_pool"](SEED):
        argv = op["argv"]
        argvs.append(argv)
        lam = next(token for token in argv if token.startswith("--lambda-prime="))
        argvs.append(["integral", "--type", argv[argv.index("--type") + 1], lam])
    for op in wl["levi_sweep_pool"](SEED):
        h = ct.h_regular(rs.build(op["type"]), op["levi"])
        argvs.append(["delta-prime", "--type", op["type"], "--h=" + ",".join(h.to_strings())])
    for op in wl["induction_audit_pool"](SEED):
        if op["kind"] == "induce":
            levi = op["levi"]
            base = ["--type", levi["type"], "--levi", json.dumps(levi)]
            argvs.append(["induce"] + base)
            argvs.append(["oracle"] + base + ["--seed", str(op["oracle_seed"])])
        else:
            command = "dimz" if op["kind"] == "centralizer" else "rigid"
            argvs.append([command, "--type", op["type"],
                          "--partition", ",".join(map(str, op["parts"]))])
    for label in dict.fromkeys(wl["CERTIFY_TYPES"] + wl["SWEEP_TYPES"]):
        argvs.append(["info", "--type", label])
        for table in ("rigid", "duality"):
            argvs.append(["--output", "text", "tables", "--table", table, "--algebra", label])
    return argvs + _test_cli_argvs()


def run_corpus() -> dict:
    """The sha256 over the corpus's (argv, exit code, stdout, stderr) and the
    count of each exit code, in this interpreter."""
    from orbitcert import cli

    digest, exits = hashlib.sha256(), collections.Counter()
    for argv in corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        exits[code] += 1
        record = [argv, code, out.getvalue(), err.getvalue()]
        digest.update(json.dumps(record).encode() + b"\n")
    return {"sha256": digest.hexdigest(), "exits": dict(sorted(exits.items())),
            "python": platform.python_version()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="*", help="interpreter paths")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_corpus()))
        return 0
    if not args.pythons:
        parser.error("name at least one interpreter")
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(CHECKOUT / "src")}
    shas = set()
    for python in args.pythons:
        child = subprocess.run([python, __file__, "--child"], capture_output=True,
                               text=True, env=env, timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            print(f"failed  {python}: exit {child.returncode}\n{child.stderr[-2000:]}")
            return 1
        result = json.loads(child.stdout)
        shas.add(result["sha256"])
        exits = " ".join(f"{code}x{count}" for code, count in result["exits"].items())
        print(f"{result['sha256']}  exits {exits}  Python {result['python']}  {python}")
    return 0 if len(shas) == 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
