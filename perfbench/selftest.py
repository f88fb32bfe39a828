#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a source checkout.

    python3 perfbench/selftest.py

It checks that
  * a short run of every workload, untraced and traced, exits 0, reports no
    failure and emits exactly the metrics BENCHMARK.json names, with their units;
  * a corrupted expected flagship report makes the flagship op count as failed;
  * without the program's sources the benchmark exits non-zero and prints no
    result.
Exits 0 when every check holds.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def check_metrics(problems: list[str]) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}\n"
                                f"{proc.stderr[-1000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload} trace {trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {result['failed']} of "
                                f"{result['attempted']} ops failed\n{proc.stderr[-1000:]}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                diff = sorted(set(want.items()) ^ set(got.items()))
                problems.append(f"{workload} trace {trace}: metric names or units differ: {diff}")
            print(f"{workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops", flush=True)


def check_corrupted_flagship(problems: list[str]) -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    from worker import Runner
    corrupted = dict(workloads.EXPECTED_FLAGSHIP, cor68="203")
    honest = workloads.WORKLOADS["certify-mix"]
    tampered = dataclasses.replace(
        honest, check=functools.partial(workloads.check_certify,
                                        expected_flagship=corrupted))
    flagship = workloads.certify_mix_pool(7)[0]
    for workload, failures in ((honest, 0), (tampered, 1)):
        runner = Runner(workload)
        runner.run(flagship)
        if (runner.attempted, runner.failed) != (1, failures):
            problems.append(f"flagship against {'corrupted' if failures else 'true'} "
                            f"expectation: {runner.failed} of {runner.attempted} failed")
    print("corrupted flagship expectation counted as a failure", flush=True)


def check_bare_directory(problems: list[str]) -> None:
    bare = os.path.join(HERE, "results", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    try:
        proc = _run(bare, "certify-mix", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("without sources: exit", proc.returncode, flush=True)


def main() -> int:
    problems: list[str] = []
    check_corrupted_flagship(problems)
    check_bare_directory(problems)
    check_metrics(problems)
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
