"""`scripts/bench_pairs.py` summaries and its failure report, with every
benchmark process stubbed out."""

import importlib.util
import json
import subprocess
import tarfile
import tempfile
from pathlib import Path
from types import SimpleNamespace

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
    assert not out["digests_equal"]
    assert out["base"]["all_correct"] and out["change"]["all_correct"]
    assert env == {"tree": "base"}


def test_one_incorrect_run_marks_its_side(monkeypatch):
    stub_runs(monkeypatch, [(10.0, 5.0, "d", True), (10.0, 5.0, "d", True),
                            (10.0, 5.0, "d", True), (10.0, 5.0, "d", False)])
    out, _ = bench_pairs.compare("verify-chain:2:2", Path("base"), 30, METRICS)
    assert out["base"]["all_correct"] and not out["change"]["all_correct"]
    assert out["digests_equal"]


def gain_runs(base_values, change_values):
    """Alternating stub runs where both metrics take the given values, so a
    rise is a gain in items_per_ref_s and a loss in item_ref_ms_p50."""
    return [(value, value, "d", True)
            for pair in zip(base_values, change_values) for value in pair]


BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize("change, meets", [
    # 10 of 10 won, median 114.5 against 104.5, beyond the spread 107.25 - 101.75
    ([v + 10 for v in BASE], True),
    # 9 of 10 won still holds
    ([v + 10 for v in BASE[:9]] + [90.0], True),
    # 8 of 10 won does not
    ([v + 10 for v in BASE[:8]] + [90.0, 90.0], False),
    # 10 of 10 won, but the median gain 5 lies inside the spread 5.5
    ([v + 5 for v in BASE], False),
    # a median gain equal to the spread is not more than it
    ([v + 5.5 for v in BASE], False),
])
def test_gain_rule(monkeypatch, change, meets):
    stub_runs(monkeypatch, gain_runs(BASE, change))
    out, _ = bench_pairs.compare("verify-chain:1:10", Path("base"), 30, METRICS)
    assert out["meets_gain_rule"] == {"items_per_ref_s": meets, "item_ref_ms_p50": False}


def test_gain_rule_reads_the_better_direction(monkeypatch):
    """Falling values are a gain only where lower is better."""
    stub_runs(monkeypatch, gain_runs(BASE, [v - 10 for v in BASE]))
    out, _ = bench_pairs.compare("verify-chain:1:10", Path("base"), 30, METRICS)
    assert out["change_won"] == {"items_per_ref_s": 0, "item_ref_ms_p50": 10}
    assert out["meets_gain_rule"] == {"items_per_ref_s": False, "item_ref_ms_p50": True}


def test_gain_rule_over_fewer_pairs(monkeypatch):
    """At 3 pairs, 9 in 10 means all 3."""
    stub_runs(monkeypatch, gain_runs(BASE[:3], [200.0, 200.0, 50.0]))
    out, _ = bench_pairs.compare("verify-chain:2:3", Path("base"), 30, METRICS)
    assert out["change_won"]["items_per_ref_s"] == 2
    assert not out["meets_gain_rule"]["items_per_ref_s"]


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


def test_output_counts_src_lines_on_each_side(monkeypatch, tmp_path):
    """The base tree holds 3 lines of src/**/*.py, the working tree 5; other
    files do not count.  Of those, 1 and 3 hold code: blank lines,
    comment-only lines and docstrings do not count, and a string that is
    not a docstring does, even where a line of it starts with "#"."""
    base = tmp_path / "base"
    (base / "src" / "pkg").mkdir(parents=True)
    (base / "src" / "pkg" / "a.py").write_text('"""Doc."""\na = 1\n')
    (base / "src" / "b.py").write_text("# c = 3\n")
    (base / "src" / "notes.txt").write_text("not\ncode\n")
    change = tmp_path / "change"
    (change / "src").mkdir(parents=True)
    (change / "src" / "a.py").write_text(
        'def f():  # a comment after code\n    """Doc."""\n\n    return """x\n# not a comment"""\n'
    )
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 30, "end_to_end": METRICS}))

    def run(cmd, **kwargs):
        if cmd[:2] == ["git", "rev-parse"]:
            return subprocess.CompletedProcess(cmd, 0, "abc123\n", "")
        with tarfile.open(cmd[cmd.index("-o") + 1], "w") as tar:
            tar.add(base / "src", arcname="src")
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    stub_runs(monkeypatch, [(10.0, 5.0, "d", True), (10.0, 5.0, "d", True)])
    out = tmp_path / "out.json"
    assert bench_pairs.main(["mes-scale:1:1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"base": 3, "change": 5}
    assert json.loads(out.read_text())["src_code_lines"] == {"base": 1, "change": 3}


@pytest.mark.parametrize("dont_write_bytecode", [True, False])
def test_output_says_whether_runs_keep_a_bytecode_cache(
    monkeypatch, tmp_path, dont_write_bytecode
):
    """Without a bytecode cache (``python -B`` or PYTHONDONTWRITEBYTECODE)
    each run compiles ``src/`` inside its set-up, and the file says so."""
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 30, "end_to_end": METRICS}))

    def run(cmd, **kwargs):
        if cmd[:2] == ["git", "rev-parse"]:
            return subprocess.CompletedProcess(cmd, 0, "abc123\n", "")
        tarfile.open(cmd[cmd.index("-o") + 1], "w").close()
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    flags = SimpleNamespace(dont_write_bytecode=dont_write_bytecode)
    monkeypatch.setattr(bench_pairs.sys, "flags", flags)
    stub_runs(monkeypatch, [(10.0, 5.0, "d", True), (10.0, 5.0, "d", True)])
    out = tmp_path / "out.json"
    assert bench_pairs.main(["mes-scale:1:1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["bytecode_cache"] is not dont_write_bytecode
