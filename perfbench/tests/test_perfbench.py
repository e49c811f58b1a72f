"""Tests of the benchmark itself: result schema, exact repetition of traced
counts, seeded inputs, and that wrong answers are counted as failures.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from harness import NullTracer, import_fresh, weighted_percentile  # noqa: E402
from workloads import WORKLOADS, ClaimsLemma, SearchRandom  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Small inputs, so that a test runs in seconds.
SMALL_CLAIMS = {"s_max": 30, "items": (8, 14, 15)}
SMALL_SEARCH = {"band": (6, 8), "pool_passes": 8}


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace, spec_key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_schema(trace, spec_key):
    proc = run_cli("--workload", "claims-lemma", "--seed", "3", "--seconds", "0.1",
                   "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    record = json.loads((BENCH / "results" / f"claims-lemma-seed3-trace{trace}.json").read_text())
    for key in ("git_sha", "nproc", "cpu_model", "python"):
        assert key in record["machine"]
    assert record["seed"] == 3


def test_end_to_end_metrics_are_never_zero():
    record = run.run("search-random", 5, 0.2, 0, **SMALL_SEARCH)
    assert record["correct"]
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("name, overrides", [
    ("claims-lemma", SMALL_CLAIMS),
    ("search-random", SMALL_SEARCH),
])
def test_traced_counts_repeat_exactly_for_one_seed(name, overrides):
    def counts():
        record = run.run(name, 7, 0, 1, **overrides)
        assert record["correct"], record["failures"]
        metrics = record["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "B")}

    first = counts()
    assert first["decomposition.search_nodes"] > 0
    assert first["decomposition.enum_ball"] >= first["decomposition.enum_dominated"] > 0
    assert counts() == first


def search_pool(seed):
    api = import_fresh()
    oracle = SearchRandom.make_oracle(api, **SMALL_SEARCH)
    return SearchRandom(api, seed, NullTracer(), BENCH / ".work" / "test-pool",
                        oracle=oracle, **SMALL_SEARCH).pool


def test_seed_sets_the_search_inputs():
    try:
        assert search_pool(1) == search_pool(1)
        assert search_pool(1) != search_pool(2)
    finally:
        shutil.rmtree(BENCH / ".work" / "test-pool", ignore_errors=True)


def test_planted_wrong_search_length_is_a_failure(tmp_path):
    api = import_fresh()
    oracle = SearchRandom.make_oracle(api, **SMALL_SEARCH)
    workload = SearchRandom(api, 1, NullTracer(), tmp_path, oracle=oracle, **SMALL_SEARCH)
    workload.run_pass(0)
    i, alpha, _, k = next(v for v in workload.verdicts if v[3])
    workload.oracle[i][alpha.coords()] = k + 1
    workload.finish()
    assert workload.failed == 1
    assert workload.failed / workload.attempted > 0


def test_planted_wrong_claim_length_is_a_failure(tmp_path):
    api = import_fresh()
    workload = ClaimsLemma(api, 1, NullTracer(), tmp_path, items=(7,))
    api.verification.EXPECTED_LENGTH["Sqrt6"] = 4
    workload.run_pass(0)
    assert workload.attempted == 17
    assert workload.failed == workload.attempted


def test_weighted_percentile():
    samples = [(3.0, 1), (1.0, 2), (2.0, 7)]
    assert weighted_percentile(samples, 0.2) == 1.0
    assert weighted_percentile(samples, 0.5) == 2.0
    assert weighted_percentile(samples, 0.9) == 2.0
    assert weighted_percentile(samples, 0.95) == 3.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = run_cli("--workload", "claims-lemma", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
