#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, with the verdict on a claimed gain.

Usage: python scripts/paired_bench.py --parent DIR --change DIR --workload W
                                      --seed S --pairs N [--metric NAME]

Each pair runs ``perfbench/run.py`` once in each checkout, for the
``run_seconds`` of the parent's BENCHMARK.json, tracing off; the side that
runs first alternates from pair to pair (the parent first in pair 1).  The
report gives, per end-to-end metric of BENCHMARK.json, each side's median
and quartiles and how far the change's median is from the parent's, in the
metric's better direction, against its bound.  For the claimed metric
(``--metric``: an end-to-end name of the parent's BENCHMARK.json, whose
better direction is read from there; ``ops_per_s`` by default) it gives the
pairs won, ties counting for neither side, and the verdict of the paired
rule: a gain is shown when the change wins at least nine tenths of the
pairs and the medians differ, in the better direction, by more than the
parent's interquartile range.  It also reports the ops
attempted and failed on each side and whether every run of both sides gave
the same output sha256.  The exit code is 0 whether or not the gain is shown.
"""
from __future__ import annotations

import argparse
import json
import runpy
import statistics
import sys
from pathlib import Path

# one perfbench run and the quartile summary are scripts/bench.py's, read
# from its file so that this script also loads under runpy
_BENCH = runpy.run_path(str(Path(__file__).with_name("bench.py")))
run_once, quartiles = _BENCH["run_once"], _BENCH["quartiles"]

SIDES = ("parent", "change")


def verdict(parent: list[float], change: list[float], higher_is_better: bool) -> dict:
    """The paired rule on one metric: ``parent[i]`` and ``change[i]`` are
    pair i.  ``wins`` counts the pairs the change won (a tie is neither a
    win nor a loss), ``gap`` is the change's median less the parent's in the
    better direction, and ``shown`` holds when wins are at least nine tenths
    of the pairs and the gap is larger than the parent's interquartile range."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs against {len(change)} change runs")
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - parent_median)
    return {"pairs": len(parent), "wins": wins, "gap": gap, "parent_iqr": q3 - q1,
            "shown": 10 * wins >= 9 * len(parent) and gap > q3 - q1}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--metric", default="ops_per_s",
                        help="the claimed end-to-end metric (default ops_per_s)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the parent's quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.metric not in metrics:
        parser.error(f"--metric must be one of {', '.join(metrics)}, not {args.metric!r}")
    claimed = args.metric
    seconds = spec["run_seconds"]

    values = {side: {name: [] for name in metrics} for side in SIDES}
    counts = {side: {"attempted": 0, "failed": 0} for side in SIDES}
    shas = set()
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result, sha = run_once(checkouts[side], args.workload, seconds, args.seed)
            shas.add(sha)
            counts[side]["attempted"] += result["attempted"]
            counts[side]["failed"] += result["failed"]
            for name in metrics:
                values[side][name].append(result["metrics"][name]["value"])
            print(f"pair {pair + 1}/{args.pairs} {side}: {claimed} "
                  f"{result['metrics'][claimed]['value']:.6g}", file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds} s runs")
    for name, spec_metric in metrics.items():
        higher = spec_metric["better"] == "higher"
        parent_q = quartiles(values["parent"][name])
        change_q = quartiles(values["change"][name])
        worse = (parent_q[1] - change_q[1]) if higher else (change_q[1] - parent_q[1])
        relative = worse / parent_q[1] if parent_q[1] else 0.0
        state = "beyond its bound" if relative > spec_metric["bound"] else "within its bound"
        print(f"{name} ({spec_metric['unit']}): parent {parent_q[1]:.6g} "
              f"[{parent_q[0]:.6g}, {parent_q[2]:.6g}], change {change_q[1]:.6g} "
              f"[{change_q[0]:.6g}, {change_q[2]:.6g}]; worse by {100 * relative:+.2f} % "
              f"({state}, {100 * spec_metric['bound']:g} %)")
    for side in SIDES:
        print(f"{side}: {counts[side]['failed']} of {counts[side]['attempted']} ops failed")
    print("output sha256: " + ("the same in every run" if len(shas) == 1
                               else f"differs: {sorted(shas)}"))
    v = verdict(values["parent"][claimed], values["change"][claimed],
                metrics[claimed]["better"] == "higher")
    print(f"{claimed}: change won {v['wins']} of {v['pairs']} pairs; median gap "
          f"{v['gap']:.6g} against the parent's interquartile range {v['parent_iqr']:.6g}")
    print(f"verdict: gain {'shown' if v['shown'] else 'not shown'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
