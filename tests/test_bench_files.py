"""The committed BENCH_<pr>.json files written by scripts/bench.py: each
matches the schema, names every workload and end-to-end metric of
BENCHMARK.json, and keeps the previous file's output sha256 on every
workload unless it gives the reason in ``outputs_changed``.  From
BENCH_14.json on a file also records the Tier-1 wall time and pass count
(``tier1``), from BENCH_15.json on the wall times of acceptance criteria
3 and 9 and the margin of criterion 3 against its 30 s budget
(``criteria``), and from BENCH_16.json on the Tier-1 time in perfbench's
reference time too (``tier1.reference_seconds``)."""
import json
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
BENCH = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
TOP = {"pr": int, "git_revision": str, "nproc": int, "python": str, "seed": int,
       "seconds": (int, float), "runs": int, "lines": dict, "workloads": dict}
TIER1_FROM = 14  # the first file that records the Tier-1 run
CRITERIA_FROM = 15  # the first file that records the criterion times
TIER1_REF_FROM = 16  # the first file that records the Tier-1 reference time


def load(path):
    return json.loads(path.read_text())


def test_bench_files_found():
    assert {"BENCH_12.json", "BENCH_13.json"} <= {path.name for path in BENCH}


@pytest.mark.parametrize("path", BENCH, ids=lambda path: path.name)
def test_bench_file_schema(path):
    record = load(path)
    required = (set(TOP) | ({"tier1"} if record["pr"] >= TIER1_FROM else set())
                | ({"criteria"} if record["pr"] >= CRITERIA_FROM else set()))
    assert required <= set(record) <= required | {"tier1", "criteria", "outputs_changed"}
    for key, kind in TOP.items():
        assert isinstance(record[key], kind), key
    assert f"BENCH_{record['pr']}.json" == path.name
    assert re.fullmatch(r"[0-9a-f]{40}(-dirty)?", record["git_revision"])
    assert record["nproc"] >= 1 and record["runs"] >= 2
    assert set(record["lines"]) == {"src", "tests"}
    assert all(isinstance(n, int) and n > 0 for n in record["lines"].values())
    if "tier1" in record:
        timed = {"seconds"} | ({"reference_seconds"} if record["pr"] >= TIER1_REF_FROM
                               else set())
        assert set(record["tier1"]) == timed | {"passed"}
        for key in timed:
            assert isinstance(record["tier1"][key], (int, float)), key
            assert record["tier1"][key] > 0, key
        assert isinstance(record["tier1"]["passed"], int) and record["tier1"]["passed"] > 0
    if "criteria" in record:
        criteria = record["criteria"]
        assert set(criteria) == {"3", "9"}
        assert set(criteria["3"]) == {"seconds", "budget", "margin"}
        assert set(criteria["9"]) == {"seconds"}
        assert all(isinstance(c["seconds"], (int, float)) and c["seconds"] >= 0
                   for c in criteria.values())
        assert criteria["3"]["budget"] == 30
        assert criteria["3"]["margin"] == round(30 - criteria["3"]["seconds"], 2)
    if "outputs_changed" in record:
        assert isinstance(record["outputs_changed"], str) and record["outputs_changed"].strip()
    assert set(record["workloads"]) == WORKLOADS
    for name, entry in record["workloads"].items():
        assert set(entry) == {"output_sha256", "attempted", "failed", "metrics"}, name
        assert re.fullmatch(r"[0-9a-f]{64}", entry["output_sha256"]), name
        assert 0 <= entry["failed"] <= entry["attempted"], name
        assert set(entry["metrics"]) == set(UNITS), name
        for metric, stats in entry["metrics"].items():
            assert set(stats) == {"unit", "median", "q1", "q3", "values"}, metric
            assert stats["unit"] == UNITS[metric], metric
            values = stats["values"]
            assert len(values) == record["runs"], metric
            assert min(values) <= stats["q1"] <= stats["median"] <= stats["q3"] <= max(values)


@pytest.mark.parametrize("before,after", zip(BENCH, BENCH[1:]),
                         ids=lambda path: path.name)
def test_outputs_unchanged_unless_explained(before, after):
    old, new = load(before), load(after)
    assert new["seed"] == old["seed"]
    if "outputs_changed" in new:
        return
    for name in WORKLOADS:
        assert new["workloads"][name]["output_sha256"] == \
            old["workloads"][name]["output_sha256"], name


def test_summary_quartiles():
    summarize = runpy.run_path(str(ROOT / "scripts" / "bench.py"))["summarize"]
    assert summarize([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4,
                                          "values": [5, 1, 4, 2, 3]}
