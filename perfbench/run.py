"""Benchmark runner for mixvote.

    python3 perfbench/run.py --workload verify-chain --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
workload runs per process (``--workload all`` starts one child process per
workload).  Set-up generates the inputs from ``--seed`` and warms up on a
disjoint seed.  The run then repeats passes over the same items until
``--seconds`` would be exceeded, each pass on freshly built instances with
the library's caches cleared, as in a new process.  Every output is checked.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it is a fuller report (environment, output digest, sample
counts, every span name).  See README.md beside this file.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

from probe import speed_probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH_DIR / "out"
WARMUP_ITEMS = 5
SETUP_REPEATS = 3
IMPORT_REPEATS = 5  # fresh processes that time the library import
MAX_PROBLEMS_SHOWN = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", type=int, default=None,
                   help="use only the first N items of a pass (smoke tests)")
    return p.parse_args(argv)


def import_library():
    """Import mixvote from this checkout's src/, or exit 2 when it is absent."""
    if not (SRC / "mixvote" / "__init__.py").is_file():
        print(f"error: no mixvote package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import mixvote

    import_s = time.perf_counter() - started
    if Path(mixvote.__file__).resolve().parent != SRC / "mixvote":
        print(f"error: imported mixvote from {mixvote.__file__}", file=sys.stderr)
        sys.exit(2)
    return import_s


def fresh_imports() -> list[dict]:
    """Time the library import in IMPORT_REPEATS new processes, one at a time."""
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout))
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def library_caches() -> list:
    """Every lru_cache-style function at module level in the library."""
    caches = []
    for name, module in list(sys.modules.items()):
        if name == "mixvote" or name.startswith("mixvote."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and value not in caches:
                    caches.append(value)
    return caches


class Run:
    """State of one benchmark process: inputs, samples, checks, spans."""

    def __init__(self, workload, seed: int, limit: int | None, tracer):
        from workloads import derive_seed

        self.w = workload
        self.specs = workload.specs()[:limit]
        self.timed_seeds = [derive_seed(workload.name, seed, "timed", k) for k in range(len(self.specs))]
        # warm-up items spread over the whole pass, so every code path is warm
        every = workload.specs()
        self.warm = [
            (every[k * len(every) // WARMUP_ITEMS], derive_seed(workload.name, seed, "warmup", k))
            for k in range(WARMUP_ITEMS)
        ]
        self.tracer = tracer
        self.caches = library_caches()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def reset_caches(self) -> None:
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()

    def attempt(self, item, index: int) -> tuple[float, str]:
        """Run and check one item; returns (seconds, digest text)."""
        self.attempted += 1
        if self.tracer.rec is not None:
            self.tracer.rec.current_item = index
        started = time.perf_counter()
        try:
            out = self.w.run(item)
        except Exception:
            elapsed = time.perf_counter() - started
            problems, text = [traceback.format_exc(limit=3)], ""
        else:
            elapsed = time.perf_counter() - started
            problems, text = self.w.check(item, out)
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS_SHOWN - len(self.problems)
            self.problems += [f"item {index}: {p}" for p in problems[:max(room, 0)]]
        return elapsed, text

    def warm_up(self, spec, seed: int, index: int) -> None:
        self.attempt(self.w.fresh(self.w.make(spec, seed)), index)

    def setup(self, traced: bool) -> tuple[list, float, float]:
        """Generate the inputs and warm up; returns (inputs, seconds, ref_ms)."""
        self.reset_caches()
        if traced:
            self.tracer.new_recording()
            self.tracer.install()

        # each input and each warm-up item is one step, timed like an item
        steps = [partial(self.w.make, spec, seed) for spec, seed in zip(self.specs, self.timed_seeds)]
        steps += [partial(self.warm_up, spec, seed, -1 - k) for k, (spec, seed) in enumerate(self.warm)]
        results, times, probes = [], [], []
        try:
            for step in steps:
                probes.append(speed_probe())
                started = time.perf_counter()
                results.append(step())
                times.append(time.perf_counter() - started)
            probes.append(speed_probe())
        finally:
            if traced:
                self.tracer.uninstall()
        return results[:len(self.specs)], sum(times), sum(in_probe_units(times, probes))

    def one_pass(self, values, traced: bool) -> tuple[list[float], list[float], float]:
        """Time every item once, with a speed probe before each item and after
        the last; returns (per-item seconds, probe seconds, pass wall seconds)."""
        items = [self.w.fresh(v) for v in values]
        self.reset_caches()
        if traced:
            self.tracer.new_recording()
            self.tracer.install()
        times, probes, texts = [], [], []
        started = time.perf_counter()
        try:
            for index, item in enumerate(items):
                probes.append(speed_probe())
                elapsed, text = self.attempt(item, index)
                times.append(elapsed)
                texts.append(text)
            probes.append(speed_probe())
        finally:
            wall = time.perf_counter() - started
            if traced:
                self.tracer.uninstall()
        self.digests.add(hashlib.sha256("\n\n".join(texts).encode()).hexdigest())
        return times, probes, wall


def in_probe_units(times: list[float], probes: list[float]) -> list[float]:
    """Each item's time over the median of the six probes around it, three
    before and three after (``probes[i]`` runs just before item i)."""
    return [t / statistics.median(probes[max(0, i - 2):i + 4]) for i, t in enumerate(times)]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# per-layer metrics: (name, unit, source, key, field).  Sources: "span" reads
# a span-summary row, "count" a work counter, "value" a value computed by
# the runner.
PER_LAYER = [
    ("core.approval_closure.calls", "count", "span", "core.approval_closure", "calls"),
    ("core.approval_closure.ms", "ms", "span", "core.approval_closure", "ms"),
    ("core.approval_closure.hit_ratio", "ratio", "value", "hit_ratio", None),
    ("core.approval_closure.bundles", "count", "count", "core.approval_closure.bundles", None),
    ("core.utilities.ms", "ms", "span", "core.utilities", "ms"),
    ("verify.ejr_m.ms", "ms", "span", "verify.ejr_m", "ms"),
    ("verify.ejr_1.ms", "ms", "span", "verify.ejr_1", "ms"),
    ("verify.audit.ms", "ms", "span", "verify.audit", "ms"),
    ("verify.calls", "count", "span", "verify", "outer"),
    ("verify.tiers", "count", "count", "verify.tiers", None),
    ("verify.self_ms", "ms", "span", "verify", "self_ms"),
    ("rules.greedy.ms", "ms", "span", "rules.greedy", "ms"),
    ("rules.greedy.rounds", "count", "count", "rules.greedy.rounds", None),
    ("oracle.enumerate.ms", "ms", "span", "oracle.enumerate", "ms"),
    ("oracle.enumerate.allocations", "count", "count", "oracle.enumerate.allocations", None),
    ("oracle.opt.ms", "ms", "span", "oracle.opt", "ms"),
    ("rules.mnw.ms", "ms", "span", "rules.mnw", "ms"),
    ("rules.pav.ms", "ms", "span", "rules.pav", "ms"),
    ("rules.pav.subsets", "count", "count", "rules.pav.subsets", None),
    ("rules.pav.self_ms", "ms", "span", "rules.pav", "self_ms"),
    ("rules.pav.cake_opt.calls", "count", "span", "rules.pav.cake_opt", "calls"),
    ("rules.pav.cake_opt.ms", "ms", "span", "rules.pav.cake_opt", "ms"),
    ("harmonic.calls", "count", "span", "harmonic", "calls"),
    ("harmonic.ms", "ms", "span", "harmonic", "ms"),
    ("core.atomize.calls", "count", "span", "core.atomize", "calls"),
    ("core.atomize.ms", "ms", "span", "core.atomize", "ms"),
    ("core.atomize.atoms", "count", "count", "core.atomize.atoms", None),
    ("rules.mes.ms", "ms", "span", "rules.mes", "ms"),
    ("rules.mes.self_ms", "ms", "span", "rules.mes", "self_ms"),
    ("rules.mes.iterations", "count", "count", "rules.mes.iterations", None),
    ("core.serialize.ms", "ms", "span", "core.serialize", "ms"),
    ("generate.ms", "ms", "value", "generate_ms", None),
    ("trace.overhead_ref_ms", "ref_ms", "value", "overhead_ref_ms", None),
]

END_TO_END_UNITS = {
    "items_per_ref_s": "1/ref_s",
    "item_ref_ms_p50": "ref_ms",
    "item_ref_ms_p90": "ref_ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_values(summary: dict, counts: dict, values: dict) -> dict[str, float]:
    out = {}
    for name, _unit, source, key, field in PER_LAYER:
        if source == "span":
            out[name] = summary.get(key, {}).get(field, 0)
        elif source == "count":
            out[name] = counts.get(key, 0)
        else:
            out[name] = values.get(key, 0.0)
    return out


def hit_ratio(closure) -> float:
    info = getattr(closure, "cache_info", None)
    if info is None:
        return 0.0
    stats = info()
    calls = stats.hits + stats.misses
    return stats.hits / calls if calls else 0.0


def run_workload(args) -> dict:
    import_s = import_library()
    sys.path.insert(0, str(BENCH_DIR))
    import mixvote
    from spans import Tracer, write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        sys.exit(2)
    imports = [] if args.trace else fresh_imports()
    closure = mixvote.core.approval_closure
    tracer = Tracer()
    run = Run(WORKLOADS[args.workload], args.seed, args.items, tracer)

    setup_times, setup_refs = [], []
    for rep in range(SETUP_REPEATS):
        traced = args.trace == 1 and rep == SETUP_REPEATS - 1
        values, elapsed, ref_ms = run.setup(traced)
        setup_times.append(elapsed)
        setup_refs.append(ref_ms)
    setup_rec = tracer.rec if args.trace else None

    plain_times, ref_times, plain_walls, traced_walls, traced_refs, layer_rows = [], [], [], [], [], []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        times, probes, wall = run.one_pass(values, traced=False)
        plain_times.append(times)
        ref_times.append(in_probe_units(times, probes))
        plain_walls.append(wall)
        if args.trace:
            times, probes, wall = run.one_pass(values, traced=True)
            traced_walls.append(wall)
            traced_refs.append(sum(in_probe_units(times, probes)))
            layer_rows.append((tracer.rec.summary(), dict(tracer.rec.counts), hit_ratio(closure)))
        now = time.perf_counter()
        if now - started + (now - round_started) > args.seconds:
            break
    measured_s = time.perf_counter() - started

    n_items = len(values)
    samples = [t for times in plain_times for t in times]
    ref_samples = [t for times in ref_times for t in times]
    failed_frac = run.failed / max(run.attempted, 1)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "baseline_rows": list(run.w.baseline_rows),
        "environment": environment(),
        "items_per_pass": n_items,
        "passes": len(plain_times),
        "traced_passes": len(traced_walls),
        "measured_s": measured_s,
        "failed_frac": failed_frac,
        "output_digest": sorted(run.digests),
        "problems": run.problems,
    }
    if args.trace:
        generate = setup_rec.summary().get("generate", {}).get("ms", 0.0)
        overhead_ref_ms = (statistics.median(traced_refs)
                           - statistics.median(sum(t) for t in ref_times))
        per_pass = [
            layer_values(summary, counts, {"hit_ratio": ratio, "generate_ms": generate,
                                           "overhead_ref_ms": overhead_ref_ms})
            for summary, counts, ratio in layer_rows
        ]
        units = {name: unit for name, unit, *_ in PER_LAYER}
        metrics = {
            name: {"value": statistics.median(p[name] for p in per_pass), "unit": units[name]}
            for name in units
        }
        last = layer_rows[-1][0]
        report["spans"] = {k: v for k, v in sorted(last.items())}
        report["untraced_pass_s"] = plain_walls
        report["traced_pass_s"] = traced_walls
        report["trace_overhead_wall_ms"] = (
            statistics.median(traced_walls) - statistics.median(plain_walls)) * 1e3
        report["hooks_missing"] = tracer.missing
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"{args.workload}.spans.json.gz"
        write_spans(spans_path, {"setup": setup_rec, "pass": tracer.rec},
                    {"workload": args.workload, "seed": args.seed})
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values_e2e = {
            "items_per_ref_s": len(ref_samples) / sum(ref_samples) * 1e3,
            "item_ref_ms_p50": statistics.median(ref_samples),
            "item_ref_ms_p90": quantile(ref_samples, 90),
            "ok_frac": 1.0 - failed_frac,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # reference seconds: 1000 ref_ms, the probe's nominal speed
            "setup_s": (statistics.median(i["import_ref_ms"] for i in imports)
                        + statistics.median(setup_refs)) / 1e3,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values_e2e.items()}
        report["samples"] = {"item_ms": len(samples), "pass_s": [sum(t) for t in plain_times],
                             "setup_repeats": SETUP_REPEATS}
        report["wall_clock"] = {
            "items_per_s": len(samples) / sum(samples),
            "item_ms_p50": statistics.median(samples) * 1e3,
            "item_ms_p90": quantile(samples, 90) * 1e3,
        }
        report["import_s"] = import_s
        report["fresh_imports"] = imports
        report["setup_s_each"] = setup_times
        report["setup_ref_ms_each"] = setup_refs
        report["setup_wall_s"] = (statistics.median(i["import_s"] for i in imports)
                                  + statistics.median(setup_times))
    report["metrics"] = metrics
    correct = run.failed == 0 and len(run.digests) == 1
    return {"report": report,
            "result": {"correct": correct, "attempted": run.attempted,
                       "failed": run.failed, "metrics": metrics}}


def run_all(args) -> dict:
    """Each workload in its own process, so no cache or peak RSS carries over."""
    from_child = {}
    correct, attempted, failed = True, 0, 0
    names = ("verify-chain", "gpav-medium", "mes-scale")
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.items is not None:
            cmd += ["--items", str(args.items)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            from_child[f"{name}.{k}"] = v
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": from_child}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        out = run_workload(args)
        for problem in out["report"]["problems"]:
            print(problem, file=sys.stderr)
        print(json.dumps(out["report"]))
        result = out["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
