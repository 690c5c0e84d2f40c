"""README's library sketch runs as written, so it cannot drift from the API."""

import json
import re
from fractions import Fraction
from pathlib import Path

from mixvote.cli import EXIT_OK, dispatch

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


# digests of the README's gen examples, and the reports of its oracle
# examples on their output, pinned before gen_construction bound its
# parameters to the generators' signatures and the oracle flags lost
# their parser defaults
README_GEN_DIGESTS = {
    "mixvote gen --construction fig1 --out fig1.json":
        "50dafe1e3f8eef5667e1d165ecb8e72b366ab65812a2be018c3e1c820b1da66f",
    "mixvote gen --construction prop1":
        "be000a1a97c2068353cb3346a0b67a04fc7f55f158b1dc1e6e1c69bc8c995ede",
    "mixvote gen --construction appendix --t 3/2 --eps 1/4 --gamma 1/4 --q 4":
        "d4fabac2c6566388591803038135ac68b9a88cfdfb12fd75df721ae33b216d07",
    "mixvote gen --construction prop4 --beta 1":
        "fbe6708f8fec4ef85171a01237153ec58b7576d696acf17c2f23c1c909484122",
    "mixvote gen --construction thm6 --t 5/2 --n 20 --eps 8/25":
        "081abf00cb070b79643cfa6519d190a3ae06bc69ed8c46dd5a25a9ab5d07783c",
    "mixvote gen --construction random --n 6 --m 4 --cake-atoms 3 --alpha 2 --seed 7":
        "825dc83e088b5a2e8d4226717aec6bbf267814826e485f1bdea63c2c528c4bd7",
}
README_ORACLE_REPORTS = {
    "mixvote oracle --check no-ejr-beta --beta 2/5 --instance prop1.json":
        {"check": "no-ejr-beta", "impossible": True},
    "mixvote oracle --check min-max-avg --t 3/2 --instance appendix.json":
        {"check": "min-max-avg", "value": "5/6"},
    "mixvote oracle --check opt --objective nash --grid 2 --instance fig1.json": {
        "allocation": {"cake": [["0", "9/10"]], "goods": ["g1"], "size": "19/10"},
        "check": "opt",
        "objective": "nash",
        "score": {"positive_agents": 2, "product": "171/100"},
    },
}


def test_gen_and_oracle_examples_give_pinned_outputs(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    gens = re.findall(r"^mixvote gen .*$", text, re.M)
    oracles = re.findall(r"^mixvote oracle .*$", text, re.M)
    assert sorted(gens) == sorted(README_GEN_DIGESTS)
    assert sorted(oracles) == sorted(README_ORACLE_REPORTS)
    monkeypatch.chdir(tmp_path)
    for command in gens:
        assert dispatch(command.split()[1:]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["digest"] == README_GEN_DIGESTS[command]
    for command in oracles:
        assert dispatch(command.split()[1:]) == EXIT_OK
        expected = json.dumps(README_ORACLE_REPORTS[command], indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected
