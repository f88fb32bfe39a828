"""The committed BENCH_<pr>.json files written by scripts/bench.py: each
matches the schema, names every workload and end-to-end metric of
BENCHMARK.json, and keeps the previous file's output sha256 on every
workload unless it gives the reason in ``outputs_changed``.  From
BENCH_14.json on a file also records the Tier-1 wall time and pass count
(``tier1``), from BENCH_15.json on the wall times of acceptance criteria
3 and 9 and the margin of criterion 3 against its 30 s budget
(``criteria``), and BENCH_16.json to BENCH_20.json the Tier-1 time in
perfbench's reference time too (``tier1.reference_seconds``).  That field
is dropped after BENCH_20.json: it swung between runs while the raw time
rose steadily, so it said nothing about the suite.  From BENCH_22.json on a
file records whether the cold runs could read cached bytecode
(``bytecode_cache``): without it, cold-start and set-up times of two hosts
do not compare."""
import json
import re
import runpy
import subprocess
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
TIER1_REF = range(16, 21)  # the files that record the Tier-1 reference time
BYTECODE_FROM = 22  # the first file that records ``bytecode_cache``


def load(path):
    return json.loads(path.read_text())


def test_bench_files_found():
    assert {"BENCH_12.json", "BENCH_13.json"} <= {path.name for path in BENCH}


@pytest.mark.parametrize("path", BENCH, ids=lambda path: path.name)
def test_bench_file_schema(path):
    record = load(path)
    required = (set(TOP) | ({"tier1"} if record["pr"] >= TIER1_FROM else set())
                | ({"criteria"} if record["pr"] >= CRITERIA_FROM else set())
                | ({"bytecode_cache"} if record["pr"] >= BYTECODE_FROM else set()))
    assert required <= set(record) <= required | {"tier1", "criteria", "outputs_changed"}
    if "bytecode_cache" in record:
        assert isinstance(record["bytecode_cache"], bool)
    for key, kind in TOP.items():
        assert isinstance(record[key], kind), key
    assert f"BENCH_{record['pr']}.json" == path.name
    assert re.fullmatch(r"[0-9a-f]{40}(-dirty)?", record["git_revision"])
    assert record["nproc"] >= 1 and record["runs"] >= 2
    assert set(record["lines"]) == {"src", "tests"}
    assert all(isinstance(n, int) and n > 0 for n in record["lines"].values())
    if "tier1" in record:
        timed = {"seconds"} | ({"reference_seconds"} if record["pr"] in TIER1_REF else set())
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


@pytest.mark.parametrize("code,summary", [(1, "1 failed, 838 passed in 40.00s"),
                                          (0, "no tests ran in 0.01s")])
def test_tier1_refuses_a_run_that_does_not_pass(tmp_path, code, summary):
    """A Tier-1 run with failing tests writes no BENCH file."""
    tier1 = runpy.run_path(str(ROOT / "scripts" / "bench.py"))["tier1"]
    run = subprocess.CompletedProcess([], code, stdout=f"..F\n{summary}\n", stderr="")
    tier1.__globals__["run_tests"] = lambda checkout: run
    with pytest.raises(SystemExit, match="Tier-1 failed"):
        tier1(tmp_path)
    run.returncode, run.stdout = 0, "...\n839 passed in 40.00s\n"
    assert set(tier1(tmp_path)) == {"seconds", "passed"}


def test_bytecode_cache_is_false_only_when_every_cold_start_compiles(tmp_path, monkeypatch):
    bytecode_cache = runpy.run_path(str(ROOT / "scripts" / "bench.py"))["bytecode_cache"]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bytecode_cache(tmp_path) is False
    (tmp_path / "src" / "orbitcert" / "__pycache__").mkdir(parents=True)
    assert bytecode_cache(tmp_path) is True
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bytecode_cache(tmp_path / "elsewhere") is True
