"""Timings in reference time, which the speed swings of a shared host do not move.

On a shared machine the speed of the core this benchmark runs on swings by up
to 2x, in spells from a fraction of a second to half a minute, and even its
fastest speed differs from one minute to the next.  So every timed interval
is bracketed by probes: a fixed stretch of ``Fraction`` arithmetic, the same
kind of work the program does.  An interval's reference time is its wall time
times ``REFERENCE_PROBE_NS`` over the mean of its probes: the time it would
have taken at a speed at which the probe takes exactly that long (about this
machine's fast speed, an Intel Xeon core under Python 3.11).  The probe is
benchmark code, so no change to the program can move it; the raw wall times
and probe times are kept in the results file.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

PROBE_TERMS = 250
REFERENCE_PROBE_NS = 500_000


def probe_ns() -> int:
    """Wall time of a fixed stretch of exact rational arithmetic."""
    start = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter_ns() - start


def probes_around() -> list[int]:
    """Probes taken next to a child process, which cannot be probed inside."""
    return [probe_ns() for _ in range(3)]


def reference_time(wall: float, probes: list[int]) -> float:
    """``wall`` scaled to the speed at which the probe takes REFERENCE_PROBE_NS."""
    return wall * REFERENCE_PROBE_NS / statistics.fmean(probes)


def op_costs(passes: list[list[tuple[int, int, int]]]) -> list[float]:
    """Each op's median reference duration (ns) over the passes.

    A pass holds one ``(wall ns, probe before, probe after)`` per op.
    """
    return [statistics.median(reference_time(wall, [before, after])
                              for wall, before, after in column)
            for column in zip(*passes)]


def ops_per_s(passes: list[list[tuple[int, int, int]]]) -> float:
    costs = op_costs(passes)
    return len(costs) / (sum(costs) / 1e9)


def median_reference_time(samples: list[tuple[float, list[int]]],
                          subtract_probes: bool = False) -> float:
    """Median reference time of ``(wall s, probe ns list)`` samples.

    With ``subtract_probes`` the probes ran inside the timed interval, and
    their own time is taken out first.
    """
    return statistics.median(
        reference_time(wall - sum(probes) / 1e9 if subtract_probes else wall, probes)
        for wall, probes in samples)
