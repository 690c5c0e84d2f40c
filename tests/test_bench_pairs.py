"""`scripts/bench_pairs.py` summaries and its failure report, with every
benchmark process stubbed out."""

import importlib.util
import subprocess
import tarfile
import tempfile
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "items_per_ref_s", "better": "higher"},
    {"name": "item_ref_ms_p50", "better": "lower"},
]


def stub_runs(monkeypatch, runs):
    """Make ``run_once`` return ``runs`` in call order, base and change
    alternating; each run is (items_per_ref_s, item_ref_ms_p50, digest, correct)."""
    left = iter(runs)

    def run_once(tree, workload, seed, seconds):
        rate, p50, digest, correct = next(left)
        report = {"output_digest": [digest], "environment": {"tree": str(tree)}}
        result = {"correct": correct, "metrics": {
            "items_per_ref_s": {"value": rate}, "item_ref_ms_p50": {"value": p50},
        }}
        return report, result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)


def test_compare_summarizes_each_side(monkeypatch):
    stub_runs(monkeypatch, [
        (10.0, 5.0, "d1", True), (11.0, 4.0, "d1", True),
        (12.0, 5.0, "d1", True), (12.0, 6.0, "d2", True),
        (14.0, 5.0, "d1", True), (15.0, 5.0, "d1", True),
    ])
    out, env = bench_pairs.compare("mes-scale:1:3", Path("base"), 30, METRICS)
    assert (out["workload"], out["seed"], out["pairs"]) == ("mes-scale", 1, 3)
    rate = out["base"]["items_per_ref_s"]
    assert (rate["q1"], rate["median"], rate["q3"]) == (10.0, 12.0, 14.0)
    assert rate["runs"] == [10.0, 12.0, 14.0]
    assert out["change"]["item_ref_ms_p50"]["median"] == 5.0
    # higher is better: 11 > 10 and 15 > 14 win, the tie at 12 does not;
    # lower is better: only 4 < 5 wins
    assert out["change_won"] == {"items_per_ref_s": 2, "item_ref_ms_p50": 1}
    assert out["base"]["output_digests"] == ["d1"]
    assert out["change"]["output_digests"] == ["d1", "d2"]
    assert out["base"]["all_correct"] and out["change"]["all_correct"]
    assert env == {"tree": "base"}


def test_one_incorrect_run_marks_its_side(monkeypatch):
    stub_runs(monkeypatch, [(10.0, 5.0, "d", True), (10.0, 5.0, "d", True),
                            (10.0, 5.0, "d", True), (10.0, 5.0, "d", False)])
    out, _ = bench_pairs.compare("verify-chain:2:2", Path("base"), 30, METRICS)
    assert out["base"]["all_correct"] and not out["change"]["all_correct"]


def failing_benchmark(monkeypatch):
    """Stub every subprocess: git as a tiny repository, the benchmark as a
    run that exits 3 after 30 lines of stderr."""
    def run(cmd, **kwargs):
        if cmd[:2] == ["git", "rev-parse"]:
            return subprocess.CompletedProcess(cmd, 0, "abc123\n", "")
        if cmd[:2] == ["git", "archive"]:
            tarfile.open(cmd[cmd.index("-o") + 1], "w").close()
            return subprocess.CompletedProcess(cmd, 0, "", "")
        stderr = "".join(f"line {i}\n" for i in range(30)) + "ValueError: boom\n"
        return subprocess.CompletedProcess(cmd, 3, "", stderr)

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)


def test_a_failed_run_names_spec_side_code_and_stderr(monkeypatch):
    failing_benchmark(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.compare("gpav-medium:1:2", Path("base"), 30, METRICS)
    message = str(exc.value.code)
    assert message.startswith("gpav-medium:1:2 base run failed with exit code 3")
    assert message.endswith("line 29\nValueError: boom")
    assert "line 10\n" not in message  # only the last lines


def test_a_failed_run_removes_the_base_tree(monkeypatch, tmp_path):
    failing_benchmark(monkeypatch)
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["mes-scale:1:1", "--out", str(tmp_path / "out.json")])
    assert str(exc.value.code).startswith("mes-scale:1:1 base run failed with exit code 3")
    assert list(tmp_path.iterdir()) == []
