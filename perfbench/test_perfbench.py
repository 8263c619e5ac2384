"""The benchmark's own checks: its metric table and its determinism.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import subprocess
import sys

import pytest

import measure

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = ("modeled_s", "write_amp", "space_bytes_per_edge")


def test_benchmark_json_matches_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(measure.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        m[:4] for m in measure.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in measure.PER_LAYER
    ]


def bench(workload: str, seed: int, trace: int):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    prints = [line.split()[1] for line in out if line.startswith("fingerprint ")]
    return prints[0], json.loads(out[-1])


@pytest.fixture(scope="module")
def churn_runs():
    return [bench("churn-serve", 11, 0), bench("churn-serve", 11, 0)]


def test_two_runs_on_one_seed_repeat_the_fingerprint_and_modeled_metrics(churn_runs):
    (fp1, r1), (fp2, r2) = churn_runs
    assert r1["correct"] and r2["correct"] and r1["failed"] == r2["failed"] == 0
    assert fp1 == fp2
    for name in DETERMINISTIC:
        assert r1["metrics"][name]["value"] == r2["metrics"][name]["value"], name


def test_traced_run_leaves_the_fingerprint_unchanged(churn_runs):
    fp_traced, result = bench("churn-serve", 11, 1)
    assert result["correct"]
    assert fp_traced == churn_runs[0][0]
    assert set(result["metrics"]) == {m[0] for m in measure.PER_LAYER}


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "analyze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
