"""README's library sketch runs as written, so it cannot drift from the API."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    report = namespace["report"]
    assert not report.passed
    # the comment beside the call: witness ({0}, t=1, 9/10)
    w = report.witness
    assert (w.group, w.t, w.max_utility) == ((0,), 1, Fraction(9, 10))
    assert namespace["pav"].subsets_solved > 0
    ledger = namespace["ledger"]
    assert ledger.pops == ledger.iterations + ledger.stale > 0
    assert namespace["bought"][0].payments == {0: Fraction(9, 20), 1: Fraction(9, 20)}
