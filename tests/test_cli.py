"""End-to-end CLI tests: subcommands, file formats, exit codes, idempotency."""

import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from mixvote import cli
from mixvote.cli import (
    EXIT_CAPACITY,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    dispatch,
)
from mixvote.core import allocation_from_dict, allocation_to_dict, instance_to_dict, save_json
from mixvote.generate import CONSTRUCTIONS, gen_fig1, gen_random, gen_thm6
from mixvote.rules import (
    generalized_mes,
    generalized_pav,
    greedy_ejr_m,
    mnw_indivisible,
)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_run_verify_flow(tmp_path, capsys):
    inst = tmp_path / "fig1.json"
    code, out = run_cli(capsys, "gen", "--construction", "fig1", "--out", str(inst))
    assert code == EXIT_OK
    assert inst.exists()
    meta = json.loads((tmp_path / "fig1.meta.json").read_text())
    assert meta["expected_mes_payment"] == "9/20"

    code, out = run_cli(capsys, "run", "--rule", "gmes", "--instance", str(inst))
    assert code == EXIT_OK
    report = json.loads(out)
    alloc_path = report["outputs"]["allocation"]
    ledger = json.loads((tmp_path / "fig1.gmes.ledger.json").read_text())
    assert ledger["purchases"][0]["payments"] == {"0": "9/20", "1": "9/20"}
    # the ledger's work counters stay in the library
    assert set(ledger) == {"initial_budget", "iterations", "purchases", "final_budgets"}
    alloc = json.loads(Path(alloc_path).read_text())
    assert alloc["cake"] == [["0", "9/10"]]
    assert alloc["size"] == "9/10"

    code, _ = run_cli(
        capsys, "verify", "--axiom", "ejr-m",
        "--instance", str(inst), "--allocation", alloc_path,
    )
    assert code == EXIT_FAIL

    code, out = run_cli(
        capsys, "verify", "--axiom", "ejr-1",
        "--instance", str(inst), "--allocation", alloc_path,
    )
    assert code == EXIT_OK
    assert json.loads(out)["pass"] is True


def test_verify_witness_payload(tmp_path, capsys):
    inst = tmp_path / "fig1.json"
    run_cli(capsys, "gen", "--construction", "fig1", "--out", str(inst))
    run_cli(capsys, "run", "--rule", "gmes", "--instance", str(inst))
    code, out = run_cli(
        capsys, "verify", "--axiom", "ejr-m",
        "--instance", str(inst), "--allocation", str(tmp_path / "fig1.gmes.alloc.json"),
    )
    assert code == EXIT_FAIL
    witness = json.loads(out)["witness"]
    assert witness == {"group": [0], "t": "1", "threshold": "1", "max_utility": "9/10"}


def test_gen_prop4_by_flags(tmp_path, capsys):
    out_file = tmp_path / "p4.json"
    code, _ = run_cli(
        capsys, "gen", "--construction", "prop4", "--beta", "1", "--out", str(out_file)
    )
    assert code == EXIT_OK
    data = json.loads(out_file.read_text())
    assert len(data["agents"]) == 12
    assert data["alpha"] == "4"


def test_greedy_and_pav_sidecars(tmp_path, capsys):
    inst = tmp_path / "fig1.json"
    run_cli(capsys, "gen", "--construction", "fig1", "--out", str(inst))
    code, out = run_cli(capsys, "run", "--rule", "greedy-ejr-m", "--instance", str(inst))
    assert code == EXIT_OK
    trace = json.loads((tmp_path / "fig1.greedy-ejr-m.trace.json").read_text())
    assert [r["t_star"] for r in trace["rounds"]] == ["1", "1"]

    code, out = run_cli(capsys, "run", "--rule", "gpav", "--instance", str(inst))
    assert code == EXIT_OK
    solution = json.loads((tmp_path / "fig1.gpav.solution.json").read_text())
    assert solution["optimality_gap"] <= 1e-9


def _library_json(inst, rule, script):
    """What the library gives as JSON for the sidecar of ``run --rule``."""
    if rule == "greedy-ejr-m":
        return greedy_ejr_m(inst, script=script)[1].to_dict(inst)
    if rule == "gmes":
        return generalized_mes(inst)[1].to_dict()
    if rule == "gpav":
        return generalized_pav(inst).to_dict()
    return {"optimal_allocations": [allocation_to_dict(inst, b) for b in mnw_indivisible(inst)]}


SIDECAR_INSTANCES = {
    "fig1": lambda: gen_fig1()[0],
    "mixed": lambda: gen_random(n=6, m=4, cake_atoms=3, alpha=F(2), seed=7),
    "goods": lambda: gen_random(n=5, m=4, alpha=F(2), seed=3),  # mnw takes no cake
}


@pytest.mark.parametrize("name, rule", [
    *((name, rule) for name in ("fig1", "mixed") for rule in ("greedy-ejr-m", "gmes", "gpav")),
    ("goods", "mnw"),
])
def test_sidecar_is_the_library_json(tmp_path, capsys, name, rule):
    inst = SIDECAR_INSTANCES[name]()
    path = tmp_path / f"{name}.json"
    save_json(str(path), instance_to_dict(inst))
    code, out = run_cli(capsys, "run", "--rule", rule, "--instance", str(path))
    assert code == EXIT_OK
    (sidecar,) = (p for kind, p in json.loads(out)["outputs"].items() if kind != "allocation")
    expected = json.loads(json.dumps(_library_json(inst, rule, None)))
    assert json.loads(Path(sidecar).read_text()) == expected


def test_scripted_trace_is_the_library_json(tmp_path, capsys):
    inst, meta = gen_thm6(F(5, 2), 20, F(8, 25))
    path, script = tmp_path / "t6.json", tmp_path / "script.json"
    save_json(str(path), instance_to_dict(inst))
    script.write_text(json.dumps(meta["script"]))
    code, _ = run_cli(
        capsys, "run", "--rule", "greedy-ejr-m", "--instance", str(path),
        "--script", str(script),
    )
    assert code == EXIT_OK
    steps = [(e["group"], allocation_from_dict(e["witness"])) for e in meta["script"]]
    expected = json.loads(json.dumps(_library_json(inst, "greedy-ejr-m", steps)))
    assert json.loads((tmp_path / "t6.greedy-ejr-m.trace.json").read_text()) == expected
    assert expected != json.loads(json.dumps(_library_json(inst, "greedy-ejr-m", None)))


def test_scripted_tie_breaker_flow(tmp_path, capsys):
    inst = tmp_path / "t6.json"
    code, _ = run_cli(
        capsys, "gen", "--construction", "thm6",
        "--t", "5/2", "--n", "20", "--eps", "8/25", "--out", str(inst),
    )
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "t6.meta.json").read_text())
    script = tmp_path / "script.json"
    script.write_text(json.dumps(meta["script"]))
    code, out = run_cli(
        capsys, "run", "--rule", "greedy-ejr-m", "--instance", str(inst),
        "--script", str(script),
    )
    assert code == EXIT_OK
    trace = json.loads((tmp_path / "t6.greedy-ejr-m.trace.json").read_text())
    positive = [r["t_star"] for r in trace["rounds"] if r["t_star"] != "0"]
    assert positive == ["2", "1"]


def test_oracle_subcommand(tmp_path, capsys):
    inst = tmp_path / "p1.json"
    run_cli(capsys, "gen", "--construction", "prop1", "--out", str(inst))
    code, out = run_cli(
        capsys, "oracle", "--check", "no-ejr-beta", "--instance", str(inst),
        "--beta", "2/5", "--mode", "weak",
    )
    assert code == EXIT_OK
    assert json.loads(out)["impossible"] is True


def test_oracle_nash_score_is_json(fig1_files, capsys):
    inst, _ = fig1_files
    code, out = run_cli(
        capsys, "oracle", "--check", "opt", "--objective", "nash", "--grid", "2", "--instance", inst,
    )
    assert code == EXIT_OK
    report = json.loads(out)
    # g1 and all of the cake: utilities 19/10 and 9/10
    assert report["score"] == {"positive_agents": 2, "product": "171/100"}
    assert report["allocation"]["goods"] == ["g1"]


def test_audit_subcommand(tmp_path, capsys):
    inst = tmp_path / "fig1.json"
    run_cli(capsys, "gen", "--construction", "fig1", "--out", str(inst))
    run_cli(capsys, "run", "--rule", "greedy-ejr-m", "--instance", str(inst))
    code, out = run_cli(
        capsys, "audit", "--bound", "ejr-m", "--instance", str(inst),
        "--allocation", str(tmp_path / "fig1.greedy-ejr-m.alloc.json"),
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert F(report["min_slack"]) >= 0


def test_verify_report_written_to_out(tmp_path, capsys):
    inst = tmp_path / "fig1.json"
    run_cli(capsys, "gen", "--construction", "fig1", "--out", str(inst))
    run_cli(capsys, "run", "--rule", "greedy-ejr-m", "--instance", str(inst))
    report_path = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "verify", "--axiom", "ejr-m", "--instance", str(inst),
        "--allocation", str(tmp_path / "fig1.greedy-ejr-m.alloc.json"),
        "--out", str(report_path),
    )
    assert code == EXIT_OK
    assert json.loads(report_path.read_text())["pass"] is True


@pytest.mark.parametrize("cake, passed", [([["0", "1"]], True), ([["0", "1/2"]], False)])
def test_verify_cake_ejr_on_a_cake_instance(tmp_path, capsys, cake, passed):
    # two agents who both approve [0, 1], alpha 1: the pair is owed the whole cake
    inst = tmp_path / "cake.json"
    alloc = tmp_path / "alloc.json"
    save_json(str(inst), {
        "cake_length": "1", "goods": [], "alpha": "1",
        "agents": [{"goods": [], "cake": [["0", "1"]]}] * 2,
    })
    save_json(str(alloc), {"cake": cake, "goods": []})
    code, out = run_cli(
        capsys, "verify", "--axiom", "cake-ejr", "--instance", str(inst), "--allocation", str(alloc),
    )
    report = json.loads(out)
    assert (report["axiom"], report["pass"]) == ("cake-ejr", passed)
    assert code == (EXIT_OK if passed else EXIT_FAIL)


def test_verify_cake_ejr_rejects_goods(fig1_files, capsys):
    inst, alloc = fig1_files
    code = dispatch(["verify", "--axiom", "cake-ejr", "--instance", inst, "--allocation", alloc])
    assert code == EXIT_USAGE
    assert "cake-EJR applies to instances without indivisible goods" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(capsys, "run", "--rule", "nonsense", "--instance", "x.json")
    assert code == EXIT_USAGE
    code, _ = run_cli(capsys, "verify", "--axiom", "ejr-beta", "--instance", "a", "--allocation", "b")
    assert code == EXIT_USAGE


def test_non_string_good_name_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "cake_length": "1", "goods": [1], "alpha": "1",
        "agents": [{"goods": [1], "cake": [["0", "1/2"]]}],
    }))
    code = dispatch(["run", "--rule", "gmes", "--instance", str(path)])
    assert code == EXIT_USAGE
    assert "good 0 must be named by a string, got 1" in capsys.readouterr().err


def test_capacity_exit_code(tmp_path, capsys):
    # gpav's goods cap is 16; --force lifts it
    inst = tmp_path / "many_goods.json"
    run_cli(
        capsys, "gen", "--construction", "random", "--n", "3", "--m", "17",
        "--alpha", "1", "--seed", "1", "--out", str(inst),
    )
    code = dispatch(["run", "--rule", "gpav", "--instance", str(inst)])
    assert code == EXIT_CAPACITY
    assert "goods enumeration capped at 16" in capsys.readouterr().err
    code, _ = run_cli(capsys, "run", "--rule", "gpav", "--instance", str(inst), "--force")
    assert code == EXIT_OK


def test_greedy_has_no_agent_cap(tmp_path, capsys):
    # this n=25 run exited 3 while greedy capped the agents at 20
    inst = tmp_path / "big.json"
    run_cli(
        capsys, "gen", "--construction", "random", "--n", "25", "--m", "2",
        "--alpha", "1", "--seed", "1", "--out", str(inst),
    )
    code, _ = run_cli(capsys, "run", "--rule", "greedy-ejr-m", "--instance", str(inst))
    assert code == EXIT_OK
    alloc = tmp_path / "big.greedy-ejr-m.alloc.json"
    code, _ = run_cli(
        capsys, "verify", "--axiom", "ejr-m", "--instance", str(inst), "--allocation", str(alloc),
    )
    assert code == EXIT_OK


def test_reports_idempotent_modulo_timing(tmp_path, capsys):
    inst = tmp_path / "fig1.json"
    run_cli(capsys, "gen", "--construction", "fig1", "--out", str(inst))
    _, out1 = run_cli(capsys, "run", "--rule", "gmes", "--instance", str(inst))
    ledger1 = (tmp_path / "fig1.gmes.ledger.json").read_bytes()
    alloc1 = (tmp_path / "fig1.gmes.alloc.json").read_bytes()
    _, out2 = run_cli(capsys, "run", "--rule", "gmes", "--instance", str(inst))
    ledger2 = (tmp_path / "fig1.gmes.ledger.json").read_bytes()
    alloc2 = (tmp_path / "fig1.gmes.alloc.json").read_bytes()
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert r1 == r2
    assert ledger1 == ledger2
    assert alloc1 == alloc2


def test_bench_subcommand(capsys):
    code, out = run_cli(capsys, "bench", "--sizes", "20:4:4,40:6:6", "--seed", "3")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    assert all(r["iterations"] <= r["iteration_bound"] for r in rows)
    # the heap work: every pop is a purchase or a stale entry
    assert all(r["pops"] == r["iterations"] + r["stale"] for r in rows)
    assert all(r["rescales"] >= 0 for r in rows)


@pytest.mark.parametrize("density", ["nan", "-1", "1.5"])
def test_density_outside_unit_interval_is_usage_error(tmp_path, capsys, density):
    out = tmp_path / "random.json"
    code = dispatch([
        "gen", "--construction", "random", "--n", "3", "--m", "2",
        "--cake-atoms", "2", "--alpha", "2", "--density", density, "--out", str(out),
    ])
    assert code == EXIT_USAGE
    assert "density must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()
    code = dispatch(["bench", "--sizes", "3:1:1", "--density", density])
    assert code == EXIT_USAGE
    assert "density must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("m, atoms", [("2", "-1"), ("-4", "6")])
def test_negative_counts_are_usage_errors(tmp_path, capsys, m, atoms):
    out = tmp_path / "random.json"
    code = dispatch([
        "gen", "--construction", "random", "--n", "3", "--m", m,
        "--cake-atoms", atoms, "--alpha", "1", "--out", str(out),
    ])
    assert code == EXIT_USAGE
    assert "m and cake_atoms must be nonnegative" in capsys.readouterr().err
    assert not out.exists()
    code = dispatch(["bench", "--sizes", f"3:{m}:{atoms}"])
    assert code == EXIT_USAGE
    assert "m and cake_atoms must be nonnegative" in capsys.readouterr().err


@pytest.fixture
def fig1_files(tmp_path):
    """fig1 as an instance file plus an allocation file (its whole cake)."""
    inst = tmp_path / "fig1.json"
    alloc = tmp_path / "alloc.json"
    save_json(str(inst), instance_to_dict(gen_fig1()[0]))
    save_json(str(alloc), {"cake": [["0", "1/2"]], "goods": []})
    return str(inst), str(alloc)


@pytest.mark.parametrize("argv", [
    ["verify", "--axiom", "ejr-beta", "--beta", "1/0"],
    ["audit", "--bound", "gpav", "--t-min", "1/0"],
    ["verify", "--axiom", "ejr-1", "--margin", "nan"],
])
def test_bad_numeric_argument_is_usage_error(fig1_files, capsys, argv):
    inst, alloc = fig1_files
    code, _ = run_cli(capsys, *argv, "--instance", inst, "--allocation", alloc)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("margin", ["nan", "inf"])
def test_margin_not_finite_is_usage_error(fig1_files, capsys, margin):
    inst, alloc = fig1_files
    code = dispatch([
        "verify", "--axiom", "ejr-1", "--margin", margin, "--instance", inst, "--allocation", alloc,
    ])
    assert code == EXIT_USAGE
    assert f"margin must be finite, got {margin}" in capsys.readouterr().err


def test_margin_below_minus_one_is_usage_error(fig1_files, capsys):
    inst, alloc = fig1_files
    code = dispatch([
        "verify", "--axiom", "ejr-1", "--margin", "-2", "--instance", inst, "--allocation", alloc,
    ])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "margin must be at least -1, got -2.0" in err
    assert "beta" not in err


@pytest.mark.parametrize("argv", [
    # gpav's harmonic tolerance is fixed: the flag itself is gone
    ["run", "--rule", "gpav", "--harmonic-tol", "nan"],
    ["run", "--rule", "gpav", "--eps", "nan"],
    ["run", "--rule", "gpav", "--eps", "0"],
])
def test_uncertifiable_tolerance_is_usage_error(fig1_files, capsys, argv):
    inst, _ = fig1_files
    code = dispatch([*argv, "--instance", inst])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    if "--harmonic-tol" in argv:
        assert "unrecognized arguments: --harmonic-tol nan" in err
    else:
        assert "eps must be finite and positive" in err


@pytest.mark.parametrize("member", [0.0, True, "0", 7, -1])
def test_script_member_not_an_agent_is_usage_error(fig1_files, tmp_path, capsys, member):
    inst, _ = fig1_files
    path = tmp_path / "script.json"
    path.write_text(json.dumps([{"group": [member], "witness": {"goods": ["g2"], "cake": []}}]))
    code = dispatch([
        "run", "--rule", "greedy-ejr-m", "--instance", inst, "--script", str(path),
    ])
    assert code == EXIT_USAGE
    assert f"scripted group member {member!r} is not an agent index in 0..1" in capsys.readouterr().err


@pytest.mark.parametrize("rule", ["gmes", "gpav", "mnw"])
@pytest.mark.parametrize("script", [[], [{"bogus": 1}]])
def test_script_tie_breaker_is_greedy_only(fig1_files, tmp_path, capsys, rule, script):
    inst, _ = fig1_files
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code = dispatch(["run", "--rule", rule, "--instance", inst, "--script", str(path)])
    assert code == EXIT_USAGE
    assert "--script applies to --rule greedy-ejr-m only" in capsys.readouterr().err
    assert not (tmp_path / f"fig1.{rule}.alloc.json").exists()


@pytest.mark.parametrize("rule, flags, message", [
    ("greedy-ejr-m", ["--force", "--eps", "-5"], "--force applies to --rule gpav and mnw only"),
    ("greedy-ejr-m", ["--force"], "--force applies to --rule gpav and mnw only"),
    ("gmes", ["--force"], "--force applies to --rule gpav and mnw only"),
    ("greedy-ejr-m", ["--eps", "-5"], "--eps applies to --rule gpav only"),
    ("gmes", ["--eps", "1e-9"], "--eps applies to --rule gpav only"),
    ("mnw", ["--eps", "1e-9"], "--eps applies to --rule gpav only"),
])
def test_run_flag_that_does_not_apply_is_usage_error(fig1_files, tmp_path, capsys, rule, flags, message):
    inst, _ = fig1_files
    code = dispatch(["run", "--rule", rule, "--instance", inst, *flags])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / f"fig1.{rule}.alloc.json").exists()


def test_gpav_without_eps_takes_the_default(fig1_files, tmp_path, capsys):
    inst, _ = fig1_files
    sidecars = []
    for flags in ([], ["--eps", str(cli.DEFAULT_EPS)]):
        code, _ = run_cli(capsys, "run", "--rule", "gpav", "--instance", inst, *flags)
        assert code == EXIT_OK
        sidecars.append((tmp_path / "fig1.gpav.solution.json").read_text())
    assert sidecars[0] == sidecars[1]


@pytest.mark.parametrize("axiom, flags, message", [
    ("ejr-m", ["--margin", "0.5", "--beta", "3", "--mode", "weak"],
     "--margin applies to --axiom ejr-1 only"),
    ("ejr-beta", ["--beta", "1", "--margin", "0"], "--margin applies to --axiom ejr-1 only"),
    ("cake-ejr", ["--margin", "0"], "--margin applies to --axiom ejr-1 only"),
    ("ejr-1", ["--mode", "weak", "--beta", "100"], "--beta applies to --axiom ejr-beta only"),
    ("ejr-m", ["--beta", "3"], "--beta applies to --axiom ejr-beta only"),
    ("ejr-1", ["--mode", "weak"], "--mode applies to --axiom ejr-beta only"),
    ("cake-ejr", ["--mode", "strict"], "--mode applies to --axiom ejr-beta only"),
])
def test_verify_flag_that_does_not_apply_is_usage_error(fig1_files, capsys, axiom, flags, message):
    inst, alloc = fig1_files
    code = dispatch(["verify", "--axiom", axiom, "--instance", inst, "--allocation", alloc, *flags])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.strip() == message
    assert captured.out == ""


@pytest.mark.parametrize("axiom, absent, explicit", [
    ("ejr-1", [], ["--margin", "0"]),
    ("ejr-beta", ["--beta", "1/2"], ["--beta", "1/2", "--mode", "strict"]),
])
def test_absent_verify_flag_takes_the_library_default(fig1_files, capsys, axiom, absent, explicit):
    inst, alloc = fig1_files
    runs = [
        run_cli(capsys, "verify", "--axiom", axiom, "--instance", inst, "--allocation", alloc, *flags)
        for flags in (absent, explicit)
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["axiom"] == ("ejr-1" if axiom == "ejr-1" else "ejr-beta[1/2,strict]")


@pytest.mark.parametrize("field, value", [("alpha", "2/0"), ("cake_length", None)])
def test_malformed_instance_file_is_usage_error(tmp_path, capsys, field, value):
    data = instance_to_dict(gen_fig1()[0])
    data[field] = value
    path = tmp_path / "bad.json"
    save_json(str(path), data)
    code, _ = run_cli(capsys, "run", "--rule", "gmes", "--instance", str(path))
    assert code == EXIT_USAGE


def _fig1_with(tmp_path, edit) -> str:
    data = instance_to_dict(gen_fig1()[0])
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(alpha=0.1),
    lambda d: d.update(alpha=True),
    lambda d: d.update(cake_length=0.9),
    lambda d: d["agents"][0]["cake"][0].__setitem__(1, 0.1),
    lambda d: d["agents"][0]["cake"][0].__setitem__(0, False),
], ids=["float-alpha", "bool-alpha", "float-cake-length", "float-endpoint", "bool-endpoint"])
def test_json_float_or_bool_rational_is_usage_error(tmp_path, capsys, edit):
    code = dispatch(["run", "--rule", "gmes", "--instance", _fig1_with(tmp_path, edit)])
    assert code == EXIT_USAGE
    assert "not a rational number" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda d: d.update(alpha=2),
    lambda d: d.update(alpha="1.5"),
    lambda d: d["agents"][0]["cake"][0].__setitem__(1, "0.1"),
], ids=["int-alpha", "decimal-alpha", "decimal-endpoint"])
def test_json_integer_and_decimal_string_are_accepted(tmp_path, capsys, edit):
    code, _ = run_cli(capsys, "run", "--rule", "gmes", "--instance", _fig1_with(tmp_path, edit))
    assert code == EXIT_OK


@pytest.mark.parametrize("edit", [
    lambda d: d["agents"][0].update(goods="g1"),
    lambda d: d.update(goods="g1g2"),
], ids=["agent-goods", "instance-goods"])
def test_goods_string_in_instance_is_usage_error(tmp_path, capsys, edit):
    code = dispatch(["run", "--rule", "gmes", "--instance", _fig1_with(tmp_path, edit)])
    assert code == EXIT_USAGE
    assert "goods must be a list" in capsys.readouterr().err


def test_goods_string_in_allocation_is_usage_error(fig1_files, tmp_path, capsys):
    inst, _ = fig1_files
    alloc = tmp_path / "goods-string.json"
    save_json(str(alloc), {"cake": [], "goods": "g1"})
    code = dispatch(["verify", "--axiom", "ejr-m", "--instance", inst, "--allocation", str(alloc)])
    assert code == EXIT_USAGE
    assert "goods must be a list" in capsys.readouterr().err


def test_missing_construction_parameter_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "thm6.json")
    code, _ = run_cli(capsys, "gen", "--construction", "thm6", "--n", "8", "--out", out)
    assert code == EXIT_USAGE


def test_gen_flags_are_the_generators_parameters():
    """Every flag names a parameter of some generator, and every generator
    parameter but random's seed (which --seed gives) has a flag."""
    taken = {p for build in CONSTRUCTIONS.values() for p in inspect.signature(build).parameters}
    assert "seed" in inspect.signature(CONSTRUCTIONS["random"]).parameters
    assert set(cli.GEN_PARAMETERS) == taken - {"seed"}


# a valid flag set for each construction
GEN_FLAGS = {
    "fig1": {},
    "prop1": {"beta_prime": "1/2", "n": "4"},
    "prop4": {"beta": "1"},
    "thm4": {"t": "2", "n": "32"},
    "thm6": {"t": "5/2", "n": "20", "eps": "8/25"},
    "appendix": {"t": "3/2", "eps": "1/4", "gamma": "1/4", "q": "4"},
    "random": {"n": "6", "m": "4", "cake_atoms": "3", "alpha": "2"},
}


def _gen_misuse():
    for name, flags in GEN_FLAGS.items():
        signature = inspect.signature(CONSTRUCTIONS[name]).parameters
        extra = next(p for p in cli.GEN_PARAMETERS if p not in signature)
        yield pytest.param(
            name, dict(flags, **{extra: "1"}), f"got an unexpected keyword argument '{extra}'",
            id=f"{name}-{extra}-not-taken",
        )
        for p in signature.values():
            if p.default is inspect.Parameter.empty:
                rest = {k: v for k, v in flags.items() if k != p.name}
                yield pytest.param(
                    name, rest, f"missing a required argument: '{p.name}'", id=f"{name}-{p.name}-missing"
                )
        if name != "random":
            yield pytest.param(
                name, dict(flags, seed="3"), "only random takes a seed", id=f"{name}-seed"
            )


@pytest.mark.parametrize("name, flags, message", list(_gen_misuse()))
def test_gen_flag_misuse_is_usage_error(tmp_path, capsys, name, flags, message):
    # fig1 with --n 5 or --seed 3 wrote fig1 unchanged and exited 0
    argv = ["gen", "--construction", name, "--out", str(tmp_path / "out.json")]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), value]
    code = dispatch(argv)
    assert code == EXIT_USAGE
    assert f"error: construction '{name}': {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", GEN_FLAGS)
def test_gen_valid_flags_build(tmp_path, capsys, name):
    argv = ["gen", "--construction", name, "--out", str(tmp_path / "out.json")]
    for key, value in GEN_FLAGS[name].items():
        argv += ["--" + key.replace("_", "-"), value]
    assert dispatch(argv) == EXIT_OK
    assert (tmp_path / "out.json").exists()


ORACLE_REQUIRED = {"no-ejr-beta": ["--beta", "1"], "min-max-avg": ["--t", "1"], "opt": []}
ORACLE_FLAGS = {  # flag, a value, and the one check it applies to
    "--beta": ("1", "no-ejr-beta"),
    "--mode": ("weak", "no-ejr-beta"),
    "--t": ("1", "min-max-avg"),
    "--objective": ("gpav", "opt"),
}


@pytest.mark.parametrize("flag, check", [
    (flag, check) for flag, (_, applies) in ORACLE_FLAGS.items()
    for check in ORACLE_REQUIRED if check != applies
])
def test_oracle_flag_that_does_not_apply_is_usage_error(fig1_files, tmp_path, capsys, flag, check):
    # opt with --beta 1 --mode strict --t 3 exited 0, ignoring all three
    inst, _ = fig1_files
    value, applies = ORACLE_FLAGS[flag]
    out = tmp_path / "report.json"
    code = dispatch([
        "oracle", "--check", check, "--grid", "1", "--instance", inst, "--out", str(out),
        *ORACLE_REQUIRED[check], flag, value,
    ])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.strip() == f"{flag} applies to --check {applies} only"
    assert not out.exists()


@pytest.mark.parametrize("check, absent, explicit", [
    ("no-ejr-beta", ["--beta", "1/2"], ["--beta", "1/2", "--mode", "weak"]),
    ("opt", [], ["--objective", "gpav"]),
])
def test_absent_oracle_flag_takes_the_library_default(fig1_files, capsys, check, absent, explicit):
    inst, _ = fig1_files
    runs = [
        run_cli(capsys, "oracle", "--check", check, "--grid", "2", "--instance", inst, *flags)
        for flags in (absent, explicit)
    ]
    assert runs[0] == runs[1]
    assert runs[0][0] == EXIT_OK
    if check == "opt":
        assert json.loads(runs[0][1])["objective"] == "gpav"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--axiom", "ejr-beta", "--allocation", "missing.json"], "--beta is required for ejr-beta"),
    (["oracle", "--check", "no-ejr-beta"], "--beta is required for no-ejr-beta"),
    (["oracle", "--check", "min-max-avg"], "--t is required for min-max-avg"),
])
def test_missing_required_flag_is_named_before_any_file_is_read(tmp_path, capsys, argv, message):
    # the unreadable instance file was reported first, and the flag not at all
    code = dispatch([*argv, "--instance", str(tmp_path / "missing.json")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.strip() == message


def test_zero_oracle_grid_is_usage_error(fig1_files, capsys):
    inst, _ = fig1_files
    code, _ = run_cli(capsys, "oracle", "--check", "opt", "--grid", "0", "--instance", inst)
    assert code == EXIT_USAGE


def test_value_error_inside_a_rule_is_internal(fig1_files, capsys, monkeypatch):
    def broken(inst):
        raise ValueError("a fault inside the rule")

    monkeypatch.setattr(cli, "generalized_mes", broken)
    inst, _ = fig1_files
    code = dispatch(["run", "--rule", "gmes", "--instance", inst])
    assert code == EXIT_INTERNAL
    assert "ValueError: a fault inside the rule" in capsys.readouterr().err


INFLATED_ITERATIONS = """
from mixvote import cli
from mixvote.errors import InvariantError

assert False, "this script must run under python -O"

rule = cli.generalized_mes

def inflated(inst):
    bundle, ledger = rule(inst)
    ledger.iterations = 10**9
    return bundle, ledger

cli.generalized_mes = inflated
try:
    cli.bench_mes([(6, 2, 2)])
except InvariantError as exc:
    print("InvariantError:", exc)
"""


def test_bench_iteration_bound_survives_optimize_flag():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INFLATED_ITERATIONS],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError: iterations 1000000000 exceed progress bound 20")
