"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.install`` rebinds the public functions of each mixvote module
(every module attribute bound to the same function object, so calls made
through ``from .core import approval_closure`` are caught too) to wrappers
that open a span on entry and close it on exit.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is changed.

Spans live in flat arrays in memory: name, parent span, item, start and
end.  A span's self time is its duration minus the durations of its direct
children; the calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from array import array

# (module, attribute, span name).  A span name is a layer, or a layer plus
# the function where that function is measured on its own.
TARGETS = [
    ("mixvote.core", "approval_closure", "core.approval_closure"),
    ("mixvote.core", "atomize", "core.atomize"),
    ("mixvote.core", "utilities", "core.utilities"),
    ("mixvote.core", "utility", "core.utilities"),
    ("mixvote.core", "instance_from_dict", "core.serialize"),
    ("mixvote.core", "instance_to_dict", "core.serialize"),
    ("mixvote.core", "instance_digest", "core.serialize"),
    ("mixvote.core", "allocation_to_dict", "core.serialize"),
    ("mixvote.core", "allocation_from_dict", "core.serialize"),
    ("mixvote.harmonic", "harmonic", "harmonic"),
    ("mixvote.harmonic", "gpav_score", "harmonic"),
    ("mixvote.harmonic", "exact_pav_score", "harmonic"),
    ("mixvote.harmonic", "harmonic_vec", "harmonic"),
    ("mixvote.harmonic", "harmonic_deriv_vec", "harmonic"),
    ("mixvote.harmonic", "harmonic_deriv2_vec", "harmonic"),
    ("mixvote.generate", "gen_random", "generate"),
    ("mixvote.generate", "gen_construction", "generate"),
    ("mixvote.rules.greedy", "greedy_ejr_m", "rules.greedy"),
    ("mixvote.rules.mes", "generalized_mes", "rules.mes"),
    ("mixvote.rules.pav", "generalized_pav", "rules.pav"),
    ("mixvote.rules.pav", "concave_cake_opt", "rules.pav.cake_opt"),
    ("mixvote.rules.mnw", "mnw_indivisible", "rules.mnw"),
    ("mixvote.verify", "verify_ejr_m", "verify.ejr_m"),
    ("mixvote.verify", "verify_ejr_1", "verify.ejr_1"),
    ("mixvote.verify", "verify_ejr_beta", "verify.ejr_beta"),
    ("mixvote.verify", "verify_cake_ejr", "verify.cake_ejr"),
    ("mixvote.verify", "audit_degree", "verify.audit"),
    ("mixvote.verify", "cohesive_profiles", "verify.profiles"),
    ("mixvote.oracle", "enumerate_allocations", "oracle.enumerate"),
    ("mixvote.oracle", "oracle_discretized_opt", "oracle.opt"),
    ("mixvote.oracle", "oracle_min_max_avg", "oracle.min_max_avg"),
    ("mixvote.oracle", "oracle_no_ejr_beta", "oracle.no_ejr_beta"),
]

# generator functions: one span per step, so the consumer's work between
# steps is not charged to the generator
GENERATORS = {"enumerate_allocations"}

# work counts taken from return values: span name -> (counter, function)
RESULT_COUNTS = {
    "core.approval_closure": ("core.approval_closure.bundles", len),
    "core.atomize": ("core.atomize.atoms", len),
    "rules.greedy": ("rules.greedy.rounds", lambda r: len(r[1].rounds)),
    "rules.mes": ("rules.mes.iterations", lambda r: r[1].iterations),
}


def goods_subsets(inst, *args, **kwargs) -> int:
    """Goods subsets generalized_pav searches: sizes 0..min(m, floor(alpha))."""
    return sum(math.comb(inst.m, k) for k in range(min(inst.m, math.floor(inst.alpha)) + 1))


# work counts taken from arguments: span name -> (counter, function)
ARG_COUNTS = {
    "rules.pav": ("rules.pav.subsets", goods_subsets),
}

# a group's calls and self time are taken over all its span names
GROUPS = {"verify": "verify."}

# the verifiers' tier iterator, wrapped only to count (bundle, k) tiers; a
# refactor may remove it, and then the count reads 0
TIER_ITERATOR = ("mixvote.verify", "_profile_tiers")


class Recording:
    """Spans of one phase (a set-up or one pass), in open order."""

    def __init__(self, names: list[str]):
        self.names = names
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.current_item = -1

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name and per group: calls, ms (outermost spans only, so
        nested calls of the same name are not counted twice) and self_ms."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        keys = [[nm] + [g for g, prefix in GROUPS.items() if nm.startswith(prefix)]
                for nm in self.names]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            for key in keys[self.name[i]]:
                row = out.setdefault(key, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "outer": 0})
                row["calls"] += 1
                row["self_ms"] += (dur[i] - child[i]) * 1e3
                if not self._inside(i, key):
                    row["ms"] += dur[i] * 1e3
                    row["outer"] += 1
        return out

    def _inside(self, i: int, key: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            nm = self.names[self.name[p]]
            if nm == key or (key in GROUPS and nm.startswith(GROUPS[key])):
                return True
            p = self.parent[p]
        return False

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "parent", "item", "start_s", "end_s"],
            "spans": [
                [self.name[i], self.parent[i], self.item[i], self.start[i], self.end[i]]
                for i in range(len(self.start))
            ],
            "counts": self.counts,
        }


class Tracer:
    """Rebinds library functions to span-recording wrappers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.rec: Recording | None = None
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def new_recording(self) -> Recording:
        self.rec = Recording(self.names)
        return self.rec

    def install(self) -> None:
        self.missing = []
        for modname, attr, span in TARGETS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            if span not in self.names:
                self.names.append(span)
            wrap = self._gen_wrapper if attr in GENERATORS else self._wrapper
            self._rebind(original, wrap(original, self.names.index(span), span))
        modname, attr = TIER_ITERATOR
        original = getattr(sys.modules.get(modname), attr, None)
        if original is None:
            self.missing.append(f"{modname}.{attr}")
        else:
            self._rebind(original, self._tier_counter(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "mixvote" and not modname.startswith("mixvote."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrapper(self, fn, name_id: int, span: str):
        tracer = self
        counted = RESULT_COUNTS.get(span)
        from_args = ARG_COUNTS.get(span)

        def traced(*args, **kwargs):
            rec = tracer.rec
            if from_args is not None:
                rec.count(from_args[0], from_args[1](*args, **kwargs))
            idx = rec.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if counted is not None:
                rec.count(counted[0], counted[1](result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _gen_wrapper(self, fn, name_id: int, span: str):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                rec = tracer.rec
                idx = rec.open(name_id)
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                rec.count(span + ".allocations")
                yield value

        traced.__wrapped__ = fn
        return traced

    def _tier_counter(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            for bundle, members in fn(*args, **kwargs):
                tracer.rec.count("verify.tiers", len(members))
                yield bundle, members

        counted.__wrapped__ = fn
        return counted


def write_spans(path, recordings: dict[str, Recording], extra: dict) -> None:
    """Write the kept recordings as gzipped JSON, one entry per phase."""
    data = dict(extra, phases={k: r.to_json() for k, r in recordings.items()})
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(data, fh)
