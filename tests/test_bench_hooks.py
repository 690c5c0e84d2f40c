"""The benchmark's trace hooks name functions that still exist.

``perfbench/spans.py`` rebinds library functions by module and attribute
name; a renamed or deleted function would only show up as a missing hook
in a traced benchmark run.  This loads that file by path and resolves
every name it lists.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "modname, attr", [(mod, attr) for mod, attr, _ in spans.TARGETS] + [spans.TIER_ITERATOR]
)
def test_hook_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None)), f"{modname}.{attr}"


def test_hook_modules_load_with_the_package():
    """The tracer finds its hooks in `sys.modules`, so every module they
    name is imported by `import mixvote` alone, in a fresh process."""
    modules = sorted({mod for mod, _, _ in spans.TARGETS} | {spans.TIER_ITERATOR[0]})
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = f"import sys, mixvote; print([m for m in {modules!r} if m not in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tier_counter_unpacks_the_tier_iterator(monkeypatch):
    """A traced run counts tiers by unpacking each yield of the audit's
    tier iterator as (…, members); a changed yield shape would crash it."""
    from mixvote import Bundle, audit_degree, verify
    from mixvote.generate import gen_fig1

    tracer = spans.Tracer()
    rec = tracer.new_recording()
    monkeypatch.setattr(verify, "_profile_tiers", tracer._tier_counter(verify._profile_tiers))
    inst = gen_fig1()[0]
    assert audit_degree(inst, Bundle(cake=inst.full_cake()), "ejr-1").entries
    assert rec.counts["verify.tiers"] > 0
