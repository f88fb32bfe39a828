#!/usr/bin/env python3
"""Run the benchmark over every workload and write BENCH_<pr>.json.

Usage: python scripts/bench.py --pr N [--checkout DIR]

Each of five rounds runs ``perfbench/run.py`` once per workload named in
BENCHMARK.json, for its ``run_seconds`` at seed ``SEED``, in the checkout (by
default the one holding this script), with tracing off.  The file records,
per workload, the median and quartiles of every end-to-end metric over the
rounds, the output sha256 (which must agree across rounds), and the ops
attempted and failed; and for the run as a whole the git revision, nproc,
the Python version, the line counts of the checkout's ``src/`` and
``tests/`` files that git does not ignore, the wall time and pass count of
one run of the Tier-1 suite (``TIER1``) in the checkout, and the wall time
of each acceptance criterion in ``CRITERIA``, from one pytest run of just
those tests, with its margin against the time budget its test enforces;
and whether the cold runs could read cached bytecode (``bytecode_cache``,
false when ``PYTHONDONTWRITEBYTECODE`` is set and the checkout has no
``src/orbitcert/__pycache__``, so every cold start compiles the sources:
``cli_cold_s`` and ``setup_s`` compare across hosts only with it equal).
Both pytest runs must pass, or no file is written.  The workload times are
perfbench's reference times; the Tier-1 and criterion times are raw wall
time.  The file goes to the root of the
repository holding this script, so a clone of another commit can be
measured with ``--checkout``.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_CHECKOUT = Path(__file__).resolve().parents[1]

RUNS = 5  # rounds per workload: enough for quartiles
SEED = 0  # one seed for every file, so their output sha256 values compare
RUN_TIMEOUT_S = 600
# the Tier-1 command of ROADMAP.md, run with src/ first on PYTHONPATH
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# acceptance criterion -> (its test in tests/test_acceptance.py, the time budget
# in seconds that the test enforces, or None where it enforces none)
CRITERIA = {3: ("test_criterion_3_delta_congruence_sweep", 30.0),
            9: ("test_criterion_9_integral_properties_random", None)}


def run_once(checkout: Path, workload: str, seconds: float, seed: int = SEED
             ) -> tuple[dict, str]:
    """One perfbench run in a checkout, tracing off: its result line and its
    output sha256."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} in {checkout}: perfbench exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    sha = next(line.split()[1] for line in lines if line.startswith("output_sha256 "))
    return json.loads(lines[-1]), sha


def run_tests(checkout: Path, extra=()) -> subprocess.CompletedProcess:
    """The Tier-1 command in the checkout, with ``extra`` arguments."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(TIER1 + list(extra), cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, env={**os.environ, "PYTHONPATH": path})


def tier1(checkout: Path) -> dict:
    """Wall time and pass count of one Tier-1 run in the checkout, which
    must pass."""
    start = time.perf_counter()
    proc = run_tests(checkout)
    seconds = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    passed = re.search(r"(\d+) passed", summary)
    if proc.returncode != 0 or passed is None:
        raise SystemExit(f"Tier-1 failed (exit {proc.returncode}): {summary!r}\n"
                         f"{proc.stdout[-2000:]}")
    return {"seconds": round(seconds, 2), "passed": int(passed.group(1))}


def criteria(checkout: Path) -> dict:
    """Per criterion of CRITERIA: the call time pytest reports for its test,
    and with a budget, the budget and the margin left under it."""
    proc = run_tests(checkout, ["--durations=0", "--durations-min=0"]
                     + [f"tests/test_acceptance.py::{test}" for test, _ in CRITERIA.values()])
    if proc.returncode != 0:
        raise SystemExit(f"acceptance criteria failed (exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}")
    out = {}
    for number, (test, budget) in CRITERIA.items():
        found = re.search(rf"^([0-9.]+)s call +\S+::{test}$", proc.stdout, re.MULTILINE)
        if found is None:
            raise SystemExit(f"no call duration for {test} in the pytest output")
        entry = {"seconds": float(found.group(1))}
        if budget is not None:
            entry.update(budget=budget, margin=round(budget - entry["seconds"], 2))
        out[str(number)] = entry
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of at least two values, by the inclusive method."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def git_revision(checkout: Path) -> str:
    """The commit, with a "-dirty" suffix when tracked files differ from it."""
    return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True, check=True,
                          timeout=30).stdout.strip()


def bytecode_cache(checkout: Path) -> bool:
    """Whether a fresh interpreter in the checkout can skip compiling the
    package: it may write its bytecode, or finds it already written."""
    return (not os.environ.get("PYTHONDONTWRITEBYTECODE")
            or (checkout / "src" / "orbitcert" / "__pycache__").is_dir())


def line_counts(checkout: Path) -> dict:
    counts = {}
    for top in ("src", "tests"):
        files = subprocess.run(["git", "ls-files", "--cached", "--others", "--exclude-standard",
                                top], cwd=checkout, capture_output=True, text=True, check=True,
                               timeout=30).stdout.split()
        counts[top] = sum(len((checkout / name).read_bytes().splitlines()) for name in files)
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--checkout", type=Path, default=DEFAULT_CHECKOUT)
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    cached = bytecode_cache(checkout)  # before any run can write bytecode

    samples = {name: {"sha": set(), "attempted": 0, "failed": 0,
                      "metrics": {metric: [] for metric in units}} for name in names}
    for round_no in range(RUNS):
        for name in names:
            result, sha = run_once(checkout, name, seconds)
            entry = samples[name]
            entry["sha"].add(sha)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for metric, values in entry["metrics"].items():
                values.append(result["metrics"][metric]["value"])
            print(f"round {round_no + 1}/{RUNS} {name}: "
                  f"ops_per_s {result['metrics']['ops_per_s']['value']:.1f}", file=sys.stderr)

    workloads = {}
    for name, entry in samples.items():
        if len(entry["sha"]) != 1:
            raise SystemExit(f"{name}: output sha256 differs between rounds: {entry['sha']}")
        workloads[name] = {
            "output_sha256": entry["sha"].pop(),
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {metric: {"unit": units[metric], **summarize(values)}
                        for metric, values in entry["metrics"].items()},
        }
    record = {
        "pr": args.pr,
        "git_revision": git_revision(checkout),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": SEED,
        "seconds": seconds,
        "runs": RUNS,
        "bytecode_cache": cached,
        "lines": line_counts(checkout),
        "tier1": tier1(checkout),
        "criteria": criteria(checkout),
        "workloads": workloads,
    }
    out = DEFAULT_CHECKOUT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
