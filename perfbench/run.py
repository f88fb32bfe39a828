#!/usr/bin/env python3
"""The orbitcert benchmark.

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the program is pure Python and is
run from ``src/``).  The workloads are defined in workloads.py and described,
with the layer-to-metric predictions, in perfbench/README.md.

One fresh interpreter runs the op loop: one closed-loop client replays the
workload's op pool in whole passes for ``--seconds``.  With ``--trace 0``,
after every pass and while the loop waits, the run also takes set-up samples
(fresh interpreters timed from spawn until they have imported the program,
built the workload's models, filled their lazy caches and run op 0) and
cold-start samples (``python -m orbitcert.cli`` running the workload's
command), so every metric samples the whole run.  With ``--trace 1`` the loop
alternates untraced and traced passes and the run reports the per-layer
metrics and the tracing overhead.

Every timed interval is bracketed by speed probes and reported in reference
time (speed.py), which the speed swings of a shared host do not move.  Every
op is checked; a failed check, an exception, an undocumented exit code or a
traceback counts as a failed op.  The last stdout line is the JSON
result; a results file with provenance goes to perfbench/results/.  Only the
benchmark's own process and its children are measured.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_PER_GAP = 2        # set-up samples after each pass of the op loop
COLD_PER_GAP = 4         # cold starts after each pass
CHILD_TIMEOUT_S = 60
LOOP_TIMEOUT_S = 150
DOCUMENTED_EXITS = (0, 1, 2, 3)
MEASUREMENT_NOTE = ("only the benchmark's own process and its children are measured; "
                    "other load on the machine is not")


def _child_env() -> dict:
    """The caller's environment, with the program's own settings at their defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ORBITCERT_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Tally:
    """Ops attempted and failed across every process of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def merge(self, summary: dict) -> None:
        self.attempted += summary["attempted"]
        self.failed += summary["failed"]
        self.errors += summary["errors"]


def _worker_argv(workload: str, *args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), workload, *args]


def _setup_child(workload: str, pool_json: str,
                 env: dict) -> tuple[subprocess.CompletedProcess, float]:
    """A fresh interpreter through set-up and op 0; its wall time from spawn."""
    start = time.perf_counter()
    proc = subprocess.run(_worker_argv(workload, "setup"), input=pool_json + "\n",
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - start


def _op_loop(workload: str, pool_json: str, env: dict, seconds: float, trace: int,
             stem: str, between_passes) -> dict | None:
    """Drive the op-loop interpreter pass by pass for ``seconds``; return its summary.

    ``between_passes`` runs after every pass while the loop interpreter waits,
    so that every kind of sample is spread over the whole run.
    """
    with open(stem + "-stderr.txt", "w+") as err:
        proc = subprocess.Popen(_worker_argv(workload, "loop", str(trace), stem + "-spans.json"),
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                text=True, env=env, cwd=ROOT)
        watchdog = threading.Timer(LOOP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            proc.stdin.write(pool_json + "\n")
            proc.stdin.flush()
            ready = proc.stdout.readline().strip() == "ready"
            start = time.perf_counter()
            passes = 0
            while ready and (passes < 2 or time.perf_counter() - start < seconds):
                proc.stdin.write("pass\n")
                proc.stdin.flush()
                ready = proc.stdout.readline().strip() == "done"
                passes += 1
                if ready and between_passes is not None:
                    between_passes()
            if ready:
                proc.stdin.write("end\n")
                proc.stdin.flush()
            out = proc.stdout.read()
        finally:
            proc.stdin.close()
            proc.wait()
            watchdog.cancel()
        err.seek(0)
        stderr = err.read()
    if not stderr:
        os.remove(stem + "-stderr.txt")
    if not ready or proc.returncode != 0:
        print(f"error: the op loop exited {proc.returncode}:\n{stderr[-2000:]}",
              file=sys.stderr)
        return None
    return _last_json_line(out)


def _cold_cli(argv: list[str], env: dict) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "orbitcert.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - start


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "orbitcert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          cwd=ROOT, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so probes and timed work share it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(nproc: int, cpu: int | None) -> dict:
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "note": MEASUREMENT_NOTE,
    }


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "orbitcert", "cli.py")):
        print(f"error: no orbitcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from speed import median_reference_time, op_costs, ops_per_s, probes_around
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    cpu = _pin_to_one_cpu()
    pool = workload.pool(args.seed)
    pool_json = json.dumps(pool)
    env = _child_env()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    tally = Tally()
    setup_s: list[tuple[float, list[int]]] = []   # (wall s, probe ns)
    cold_s: list[tuple[float, list[int]]] = []

    def gap_samples() -> None:
        """Set-up and cold-start samples, taken between passes of the op loop."""
        for i in range(COLD_PER_GAP):
            if i < SETUP_PER_GAP:
                setup, wall = _setup_child(args.workload, pool_json, env)
                ok = setup.returncode == 0
                tally.add(ok, f"setup: exit {setup.returncode}: {setup.stderr[-500:]}")
                if ok:
                    setup_s.append((wall, _last_json_line(setup.stdout)["probes"]))
            before = probes_around()
            cold, wall = _cold_cli(workload.cold_argv, env)
            cold_s.append((wall, before + probes_around()))
            ok, message = workloads.check_cold(args.workload, cold.returncode, cold.stdout)
            if cold.returncode not in DOCUMENTED_EXITS or "Traceback" in cold.stderr:
                ok, message = False, f"exit {cold.returncode}: {cold.stderr[-500:]}"
            tally.add(ok, f"cold {workload.cold_argv[0]}: {message}")

    loop = _op_loop(args.workload, pool_json, env, args.seconds, args.trace,
                    stem, None if args.trace else gap_samples)
    if loop is None:
        return 1
    tally.merge(loop)
    attempted, failed, errors = tally.attempted, tally.failed, tally.errors

    if args.trace:
        layers = loop["layers"]
        setup_layers = loop["setup_layers"]
        layers["rootsys.build_s"] = (setup_layers["build_s"], "s")
        layers["rootsys.lazy_setup_s"] = (setup_layers["lazy_setup_s"], "s")
        layers["cli.import_s"] = (setup_layers["import_s"], "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    else:
        op_ms = [ns / 1e6 for ns in op_costs(loop["op_ns"])]
        metrics = {
            "setup_s": {"value": median_reference_time(setup_s, subtract_probes=True), "unit": "s"},
            "ops_per_s": {"value": ops_per_s(loop["op_ns"]), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(op_ms, n=10)[8], "unit": "ms"},
            "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": loop["peak_rss_mb"], "unit": "MB"},
            "cli_cold_s": {"value": median_reference_time(cold_s), "unit": "s"},
        }

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(nproc, cpu), "result": result,
        "fail_ratio": failed / attempted, "errors": errors,
        "output_sha256": loop["digest"], "pool_size": len(pool),
        "cells": collections.Counter(op["cell"] for op in pool), "cli_cold_argv": workload.cold_argv,
        "raw_samples": {"fields": "set-up and cold start: (wall s, [probe ns]); "
                                  "ops: (wall ns, probe ns before, probe ns after)",
                        "setup_s": setup_s, "cli_cold_s": cold_s,
                        "op_ns_per_untraced_pass": loop["op_ns"]},
    }
    if args.trace:
        record["spans_file"] = os.path.relpath(stem + "-spans.json", ROOT)
        record["span_count"] = loop["spans"]
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for error in errors:
        print(f"failed: {error}", file=sys.stderr)
    print(f"output_sha256 {loop['digest']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
