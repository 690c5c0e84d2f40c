"""Paired benchmark runs: a base commit against the working tree.

    python3 scripts/bench_pairs.py --out BENCH.json verify-chain:1:10 mes-scale:2:3

Each WORKLOAD:SEED:PAIRS spec runs ``perfbench/run.py --workload WORKLOAD
--seed SEED --seconds S --trace 0``, S being ``BENCHMARK.json``'s
``run_seconds``, PAIRS times on each side, alternating base and change, so
drift of a shared host falls on both.  The base is the
``--base`` commit (default HEAD), exported with ``git archive`` into a
temporary directory that is removed on exit, failure included.  The output
file holds the environment, and per spec and side the median and quartiles
of every end-to-end metric of ``BENCHMARK.json``, the pairs the change won
on each metric, and the output digests.  A run that fails ends the script
with its spec, side, exit code and the end of its stderr.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STDERR_LINES = 20  # of a failed run, shown


class RunFailed(Exception):
    """A benchmark process exited non-zero; the message gives its exit code
    and the last lines of its stderr."""


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark process in ``tree``: its fuller report and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=seconds * 10 + 300)
    if proc.returncode:
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_LINES:])
        raise RunFailed(f"exit code {proc.returncode}; end of its stderr:\n{tail}")
    report, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(spec: str, base: Path, seconds: float, metrics: list[dict]) -> tuple[dict, dict]:
    workload, seed, pairs = spec.split(":")
    runs = {"base": [], "change": []}
    for i in range(int(pairs)):
        for side, tree in (("base", base), ("change", ROOT)):
            try:
                runs[side].append(run_once(tree, workload, int(seed), seconds))
            except RunFailed as exc:
                sys.exit(f"{spec} {side} run failed with {exc}")
            print(f"{spec} pair {i + 1} {side}: {runs[side][-1][1]['metrics']}", file=sys.stderr)
    out = {"workload": workload, "seed": int(seed), "pairs": int(pairs)}
    for side, done in runs.items():
        out[side] = {m["name"]: summary([r["metrics"][m["name"]]["value"] for _, r in done])
                     for m in metrics}
        out[side]["output_digests"] = sorted({d for rep, _ in done for d in rep["output_digest"]})
        out[side]["all_correct"] = all(r["correct"] for _, r in done)
    out["change_won"] = {}
    for m in metrics:
        sign = 1 if m["better"] == "higher" else -1
        base_runs, change_runs = (out[side][m["name"]]["runs"] for side in ("base", "change"))
        out["change_won"][m["name"]] = sum(sign * (c - b) > 0 for b, c in zip(base_runs, change_runs))
    return out, runs["base"][0][0]["environment"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("specs", nargs="+", metavar="WORKLOAD:SEED:PAIRS")
    p.add_argument("--base", default="HEAD", help="commit to compare the working tree against")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    # a terminated run still kills its benchmark child and removes the base tree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]
    base_rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        archive = Path(tmp, "base.tar")
        subprocess.run(["git", "archive", "-o", str(archive), base_rev], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(Path(tmp, "tree"), filter="data")
        results = [compare(spec, Path(tmp, "tree"), seconds, metrics) for spec in args.specs]
    Path(args.out).write_text(json.dumps({
        "base": base_rev, "seconds": seconds, "environment": results[0][1],
        "workloads": [r for r, _ in results],
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
