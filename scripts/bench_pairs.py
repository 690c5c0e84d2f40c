"""Paired benchmark runs: a base commit against the working tree.

    python3 scripts/bench_pairs.py --out BENCH.json verify-chain:1:10 mes-scale:2:3

Each WORKLOAD:SEED:PAIRS spec runs ``perfbench/run.py --workload WORKLOAD
--seed SEED --seconds S --trace 0``, S being ``BENCHMARK.json``'s
``run_seconds``, PAIRS times on each side, one pair after the other; the
base runs first in the odd pairs and the change first in the even ones, so
neither drift of a shared host nor going first falls on one side only.
The base is the ``--base`` commit (default HEAD), exported with ``git
archive``; the change is a copy of the working tree, its tracked files
and its untracked ones that git does not ignore, taken when the script
starts, so editing the tree during the runs changes nothing.  Both sit in
a temporary directory that is removed on exit, failure included.  The output
file holds the environment, and per spec and side the median and quartiles
of every end-to-end metric of ``BENCHMARK.json``, the pairs the change won
on each metric, and the output digests.  Per spec, ``digests_equal`` says
whether both sides gave the same output digests, and per metric
``meets_gain_rule`` whether a gain there would hold as a claim: the change
won at least 9 in 10 pairs, and its median beats the base median, in the
metric's better direction, by more than the base's quartile spread; and
per metric ``within_bound`` whether the change's median is worse than the
base median, in that direction, by no more than the metric's relative
``bound`` (a share of the base median's size).
``src_lines`` gives the lines of ``src/**/*.py`` in the base tree and in
the copy of the working tree, and ``src_code_lines`` those of them that hold code:
not blank, not comment-only and not part of a docstring.
``bytecode_cache`` is false when this script runs with
``sys.flags.dont_write_bytecode`` set (``python -B`` or
``PYTHONDONTWRITEBYTECODE``): the runs then write no ``__pycache__``, so
each one compiles ``src/`` on import, and that compile falls inside its
``setup_s``.  A run that fails ends the script with its spec, side,
exit code and the end of its stderr.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STDERR_LINES = 20  # of a failed run, shown
# tokens that do not make a line one of code
SKIPPED_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                  tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)  # may hold a docstring


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


def src_lines(tree: Path) -> int:
    """Lines of the Python sources under ``tree/src``."""
    return sum(len(p.read_bytes().splitlines()) for p in (tree / "src").rglob("*.py"))


def src_code_lines(tree: Path) -> int:
    """Lines of the Python sources under ``tree/src`` that hold a token
    other than a comment and are not part of a docstring."""
    total = 0
    for path in (tree / "src").rglob("*.py"):
        text = path.read_text()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        code = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in SKIPPED_TOKENS:
                code.update(range(tok.start[0], tok.end[0] + 1))
        total += len(code - docs)
    return total


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def copy_working_tree(dest: Path) -> None:
    """Copy into ``dest`` every file of ``ROOT`` that git tracks, or that is
    untracked and not ignored."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    for name in listed.split("\0"):
        path = ROOT / name
        if name and path.is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, dest / name)


def compare(spec: str, base: Path, change: Path, seconds: float, metrics: list[dict]) -> tuple[dict, dict]:
    workload, seed, pairs = spec.split(":")
    runs = {"base": [], "change": []}
    sides = [("base", base), ("change", change)]
    for i in range(int(pairs)):
        for side, tree in sides if i % 2 == 0 else sides[::-1]:
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
    out["digests_equal"] = out["base"]["output_digests"] == out["change"]["output_digests"]
    out["change_won"], out["meets_gain_rule"], out["within_bound"] = {}, {}, {}
    for m in metrics:
        sign = 1 if m["better"] == "higher" else -1
        base, change = (out[side][m["name"]] for side in ("base", "change"))
        won = sum(sign * (c - b) > 0 for b, c in zip(base["runs"], change["runs"]))
        out["change_won"][m["name"]] = won
        out["meets_gain_rule"][m["name"]] = (
            10 * won >= 9 * int(pairs)
            and sign * (change["median"] - base["median"]) > base["q3"] - base["q1"]
        )
        out["within_bound"][m["name"]] = (
            sign * (base["median"] - change["median"]) <= m["bound"] * abs(base["median"])
        )
    return out, runs["base"][0][0]["environment"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("specs", nargs="+", metavar="WORKLOAD:SEED:PAIRS")
    p.add_argument("--base", default="HEAD", help="commit to compare the working tree against")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    # a terminated run still kills its benchmark child and removes both trees
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": Path(tmp, "base"), "change": Path(tmp, "change")}
        copy_working_tree(trees["change"])
        base_rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        archive = Path(tmp, "base.tar")
        subprocess.run(["git", "archive", "-o", str(archive), base_rev], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(trees["base"], filter="data")
        results = [compare(spec, trees["base"], trees["change"], seconds, metrics) for spec in args.specs]
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        code_lines = {side: src_code_lines(tree) for side, tree in trees.items()}
    Path(args.out).write_text(json.dumps({
        "base": base_rev, "seconds": seconds, "environment": results[0][1],
        "src_lines": lines, "src_code_lines": code_lines,
        "bytecode_cache": not sys.flags.dont_write_bytecode,
        "workloads": [r for r, _ in results],
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
