"""Spans around the calls into orbitcert's public functions.

The tracer rebinds each traced function, in every orbitcert module that
holds it, to a wrapper that records a span: name, start, end, parent span
and op id.  Spans stay in memory until the run ends.  Calls between modules
and within one module are both seen, so a layer's self time (its duration
minus the part covered by its child spans) can be derived from the spans.
Nothing in the program changes; removing the tracer restores every binding.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time

# (module, public function) pairs timed in the traced run
TRACED = (
    ("rootsys", "rho"), ("rootsys", "canonicalize"), ("rootsys", "pairing"),
    ("orbits", "graded_dims"), ("orbits", "orbit_dim_from_h"),
    ("integral", "integral_system"), ("integral", "cor68_dim"),
    ("certify", "h_regular"), ("certify", "theta_for_levi"), ("certify", "delta"),
    ("certify", "delta_prime"), ("certify", "in_levi_span"),
    ("certify", "CertificateInput"), ("certify", "certify"),
    ("lsinduce", "induce"), ("lsinduce", "jordan_oracle"),
    ("lsinduce", "centralizer_oracle"), ("lsinduce", "is_rigid"),
    ("linalg", "rank"),
    ("cli", "main"),
)
MODULES = ("rootsys", "orbits", "integral", "certify", "lsinduce", "linalg", "cli")
VERDICTS = ("pass", "fail", "undecided")


class Tracer:
    """Records spans while installed; ``op_id`` is set by the op loop."""

    def __init__(self):
        self.names: list[str] = [f"{m}.{f}" for m, f in TRACED]
        self.spans: list[tuple] = []   # (name index, start ns, end ns, parent, op id)
        self.op_id = -1
        self.integral_roots: list[int] = []
        self.verdicts = dict.fromkeys(VERDICTS, 0)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, index: int, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            slot = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.op_id)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        hooks = {"integral.integral_system": lambda r: self.integral_roots.append(r.size),
                 "certify.certify": self._count_verdict}
        modules = [importlib.import_module(f"orbitcert.{m}") for m in MODULES]
        for index, (mod_name, fn_name) in enumerate(TRACED):
            home = importlib.import_module(f"orbitcert.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapped = self._wrap(index, original, hooks.get(self.names[index]))
            for mod in modules:
                # a class keeps its own name in its defining module
                if isinstance(original, type) and mod is home:
                    continue
                if mod.__dict__.get(fn_name) is original:
                    self._saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapped)

    def remove(self) -> None:
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved.clear()

    def _count_verdict(self, report) -> None:
        self.verdicts[report.overall] = self.verdicts.get(report.overall, 0) + 1

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, traced_ops: int) -> dict[str, tuple[float, str]]:
        """calls, busy_s, self_s and p50_us per traced function, plus counts."""
        by_name: dict[int, list[int]] = {i: [] for i in range(len(self.names))}
        self_ns = [0] * len(self.names)
        for (index, start, end, _, _), own in zip(self.spans, self.self_times()):
            by_name[index].append(end - start)
            self_ns[index] += own
        out: dict[str, tuple[float, str]] = {}
        for index, name in enumerate(self.names):
            durations = by_name[index]
            out[f"{name}.calls"] = (len(durations), "count")
            out[f"{name}.busy_s"] = (sum(durations) / 1e9, "s")
            out[f"{name}.self_s"] = (self_ns[index] / 1e9, "s")
            out[f"{name}.p50_us"] = (statistics.median(durations) / 1e3 if durations else 0.0,
                                     "us")
        roots = self.integral_roots
        out["integral.roots"] = (statistics.fmean(roots) if roots else 0.0, "count")
        span_calls = len(by_name[self.names.index("certify.in_levi_span")])
        out["certify.span_calls"] = (span_calls / traced_ops if traced_ops else 0.0, "count")
        for verdict in VERDICTS:
            out[f"certify.verdict.{verdict}"] = (self.verdicts.get(verdict, 0), "count")
        out["cli.overhead_ms"] = (self._cli_overhead_ms(), "ms")
        return out

    def _cli_overhead_ms(self) -> float:
        """Median over ops of cli.main's duration minus its certify call's."""
        main = self.names.index("cli.main")
        cert = self.names.index("certify.certify")
        main_ns: dict[int, int] = {}
        cert_ns: dict[int, int] = {}
        for index, start, end, _, op in self.spans:
            if index == main:
                main_ns[op] = main_ns.get(op, 0) + end - start
            elif index == cert:
                cert_ns[op] = cert_ns.get(op, 0) + end - start
        gaps = [main_ns[op] - cert_ns[op] for op in main_ns if op in cert_ns]
        return statistics.median(gaps) / 1e6 if gaps else 0.0

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
