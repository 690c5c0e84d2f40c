"""The benchmark's trace hooks name functions that still exist.

``perfbench/spans.py`` rebinds library functions by module and attribute
name; a renamed or deleted function would only show up as a missing hook
in a traced benchmark run.  This loads that file by path and resolves
every name it lists.
"""

import importlib
import importlib.util
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
