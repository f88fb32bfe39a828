"""One fresh interpreter of the benchmark: set up a workload, then run its ops.

Started by run.py, with the op pool as one JSON line on stdin:

    python perfbench/worker.py <workload> setup
    python perfbench/worker.py <workload> loop <trace 0|1> <spans path>

``setup`` imports the program, builds the workload's models, fills their lazy
caches and runs op 0, with speed probes (speed.py) in between, prints the
probe times and exits 0 if op 0 passed its check.  ``loop`` does the same,
prints ``ready``, and then runs one whole pass over the pool, one op at a
time (one closed-loop client), for each ``pass`` line it reads, answering
``done``; any other line ends it.  A speed probe runs between consecutive
ops.  With trace 1 it alternates untraced and traced passes, so
both see the same ops, and writes the spans to ``spans path``.  Its last
stdout line is a JSON summary.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback

from speed import ops_per_s, probe_ns


def _setup(name: str, probes: list[int]) -> dict:
    """Import, build models, fill lazy caches; return per-layer set-up times.

    A speed probe runs after each step, so that the set-up time can be
    corrected for the host's speed while it ran.
    """
    start = time.perf_counter()
    import orbitcert.cli  # noqa: F401  (the import being timed)
    import_s = time.perf_counter() - start
    probes.append(probe_ns())
    from orbitcert import rootsys as rs

    import workloads
    build_s = lazy_s = 0.0
    for label in workloads.WORKLOADS[name].types:
        t0 = time.perf_counter()
        model = rs.build(label)
        t1 = time.perf_counter()
        rs.fundamental_coweights(model)
        rs.span_complement(model)
        build_s += t1 - t0
        lazy_s += time.perf_counter() - t1
        probes.append(probe_ns())
    return {"import_s": import_s, "build_s": build_s, "lazy_setup_s": lazy_s}


class Runner:
    """Runs ops, checks them and keeps the counts a run reports."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.oracle_tests = self.oracle_agree = self.rigid_tests = self.rigid = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def run(self, op: dict) -> tuple[int, str | None]:
        """Run and check one op; return its duration and canonical output."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            result = self.workload.op(op)
        except Exception:
            elapsed = time.perf_counter_ns() - start
            self.fail(f"{op['cell']}: {traceback.format_exc(limit=3)}")
            return elapsed, None
        elapsed = time.perf_counter_ns() - start
        try:
            ok, message, canonical = self.workload.check(op, result)
        except Exception:
            self.fail(f"{op['cell']}: check raised {traceback.format_exc(limit=3)}")
            return elapsed, None
        if not ok:
            self.fail(f"{op['cell']}: {message}")
        kind = op.get("kind")
        if kind in ("induce", "centralizer"):
            self.oracle_tests += 1
            self.oracle_agree += ok
        elif kind == "rigid":
            self.rigid_tests += 1
            self.rigid += bool(result[0])
        return elapsed, canonical


def main(argv: list[str]) -> int:
    name, mode = argv[0], argv[1]
    probes = [probe_ns()]
    pool = json.loads(sys.stdin.readline())
    layers = _setup(name, probes)
    import workloads
    runner = Runner(workloads.WORKLOADS[name])
    runner.run(pool[0])
    probes.append(probe_ns())
    if mode == "setup":
        for error in runner.errors:
            print(error, file=sys.stderr)
        print(json.dumps({"probes": probes}))
        return 0 if runner.failed == 0 else 1
    if name == "certify-mix":
        ok, message = workloads.flagship_library_facts()
        if not ok:
            runner.fail(f"flagship: {message}")

    trace, spans_path = argv[2] == "1", argv[3]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    # per pass, one (wall ns, probe ns before, probe ns after) per op
    untraced: list[list[tuple[int, int, int]]] = []
    traced: list[list[tuple[int, int, int]]] = []
    digest = hashlib.sha256()
    print("ready", flush=True)
    for command in sys.stdin:
        if command.strip() != "pass":
            break
        passes = len(untraced) + len(traced)
        traced_pass = tracer is not None and passes % 2 == 1
        durations = []
        if traced_pass:
            tracer.install()
        before = probe_ns()
        for op_id, op in enumerate(pool):
            if traced_pass:
                tracer.op_id = passes * len(pool) + op_id
            elapsed, canonical = runner.run(op)
            after = probe_ns()
            durations.append((elapsed, before, after))
            before = after
            if passes == 0:
                digest.update(f"{canonical}\n".encode())
        if traced_pass:
            tracer.remove()
        (traced if traced_pass else untraced).append(durations)
        print("done", flush=True)

    summary = {
        "attempted": runner.attempted, "failed": runner.failed,
        "errors": runner.errors, "op_ns": untraced, "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_layers": layers,
    }
    if tracer is not None:
        untraced_rate = ops_per_s(untraced)
        traced_rate = ops_per_s(traced)
        metrics = tracer.layer_metrics(len(pool) * len(traced))
        metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate - 1, "ratio")
        metrics["lsinduce.oracle_agree_ratio"] = (
            runner.oracle_agree / runner.oracle_tests if runner.oracle_tests else 0.0, "ratio")
        metrics["lsinduce.rigid_ratio"] = (
            runner.rigid / runner.rigid_tests if runner.rigid_tests else 0.0, "ratio")
        summary["layers"] = metrics
        summary["spans"] = len(tracer.spans)
        tracer.dump(spans_path)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
