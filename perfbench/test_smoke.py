"""Small-size smoke test of the benchmark runner.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload on its first few items, on the recorded seed (1) and the
held-out seed (2), and checks the result line against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RECORDED_SEED, HELD_OUT_SEED = 1, 2


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--seconds", "1", "--items", "5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_and_report(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("seed", [RECORDED_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, seed):
    result, report = result_and_report(
        bench("--workload", workload, "--seed", str(seed), "--trace", "0")
    )
    assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["failed_frac"] == 0
    assert len(report["output_digest"]) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result, report = result_and_report(
        bench("--workload", workload, "--seed", str(RECORDED_SEED), "--trace", "1")
    )
    assert_metrics(result, SPEC["per_layer"])
    assert report["hooks_missing"] == []
    assert (ROOT / report["spans_file"]).is_file()


def test_same_seed_same_outputs_and_other_seed_differs():
    digests = [
        result_and_report(bench("--workload", "verify-chain", "--seed", str(s)))[1]["output_digest"]
        for s in (RECORDED_SEED, RECORDED_SEED, HELD_OUT_SEED)
    ]
    assert digests[0] == digests[1] != digests[2]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
