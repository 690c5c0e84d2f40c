"""The speed probe behind the benchmark's reference units, and the timing of
a fresh-process library import in those units.

One ``ref_ms`` is one run of ``speed_probe``: a fixed pure-Python Fraction
loop sized to take about 1 ms on a 2-vCPU Xeon VM.  Shared hosts change
speed by tens of percent within seconds; dividing a time by the probe time
measured around it cancels that change.

    python3 perfbench/probe.py SRC_DIR

imports ``mixvote`` from SRC_DIR in this new process and prints, as JSON,
the import's wall seconds and its time in ``ref_ms``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction

PROBE_STEPS = 225
PROBES_AROUND = 3  # probes taken on each side of a timed stretch


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python Fraction loop: the host's speed now."""
    started = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, PROBE_STEPS):
        acc = max(acc, acc + Fraction(1, k) - Fraction(1, k + 1))
    return time.perf_counter() - started


def probes() -> list[float]:
    return [speed_probe() for _ in range(PROBES_AROUND)]


def import_in_ref_ms(src: str) -> dict:
    """Import mixvote from ``src`` between two sets of probes; its wall
    seconds, and its time in ref_ms over the median of those probes."""
    sys.path.insert(0, src)
    probes()  # warm the probe's own code paths in this new interpreter
    before = probes()
    started = time.perf_counter()
    import mixvote  # noqa: F401

    elapsed = time.perf_counter() - started
    return {"import_s": elapsed, "import_ref_ms": elapsed / statistics.median(before + probes())}


if __name__ == "__main__":
    print(json.dumps(import_in_ref_ms(sys.argv[1])))
