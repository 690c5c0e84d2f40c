"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is pinned here, straight from the contract: exact rational
equality wherever the model is exact, 1e-9 for solver scores, 1e-6 margins
for strict comparisons on approximately optimal allocations, and wall-clock
budgets for the end-to-end and scale checks.
"""

import math
import time
from fractions import Fraction as F

import pytest

from mixvote import (
    Bundle,
    IntervalSet,
    enumerate_allocations,
    generalized_mes,
    generalized_pav,
    greedy_ejr_m,
    harmonic,
    mnw_indivisible,
    oracle_discretized_opt,
    oracle_min_max_avg,
    oracle_no_ejr_beta,
    utilities,
    verify_cake_ejr,
    verify_ejr_1,
    verify_ejr_beta,
    verify_ejr_m,
)
from mixvote.cli import bench_mes
from mixvote.generate import (
    gen_appendix,
    gen_fig1,
    gen_prop1,
    gen_prop4,
    gen_random,
    gen_thm4,
    gen_thm6,
)
from mixvote.oracle import EnumerationConfig
from mixvote.verify import audit_degree


def _announce(cid: str, message: str) -> None:
    print(f"\nACCEPTANCE {cid}: PASS — {message}")


def _script_from_meta(meta: dict) -> list[tuple[list[int], Bundle]]:
    steps = []
    for entry in meta["script"]:
        witness = Bundle(
            cake=IntervalSet.from_json(entry["witness"]["cake"]),
            goods=frozenset(entry["witness"]["goods"]),
        )
        steps.append((entry["group"], witness))
    return steps


@pytest.fixture(scope="module")
def mixed200():
    out = []
    for seed in range(200):
        n = 2 + seed % 7
        m = seed % 7
        atoms = seed % 5
        if m + atoms == 0:
            atoms = 2
        total = F(m) + F(atoms, 2)
        alpha = min(total, max(F(1, 2), F(1 + seed % 5, 2)))
        density = (0.3, 0.45, 0.6)[seed % 3]
        out.append(
            gen_random(
                n=n, m=m, cake_atoms=atoms, alpha=alpha,
                density=density, seed=seed,
            )
        )
    return out


@pytest.fixture(scope="module")
def cake100():
    out = []
    for seed in range(100):
        atoms = 1 + seed % 4
        alpha = F(1 + seed % 3, 2)
        out.append(
            gen_random(
                n=2 + seed % 7, m=0, cake_atoms=atoms,
                alpha=min(alpha, F(atoms, 2)), density=0.5, seed=1000 + seed,
            )
        )
    return out


@pytest.fixture(scope="module")
def pav_suite():
    instances = []
    for seed in range(50):  # indivisible sub-suite: n <= 6, m <= 8
        m = 2 + seed % 7
        instances.append(
            gen_random(
                n=2 + seed % 5, m=m, cake_atoms=0,
                alpha=F(1 + seed % m) if m > 1 else F(1),
                density=0.5, seed=2000 + seed,
            )
        )
    for seed in range(50):  # mixed, within enumeration caps
        m = seed % 5
        atoms = 1 + seed % 3
        total = F(m) + F(atoms, 2)
        instances.append(
            gen_random(
                n=2 + seed % 5, m=m, cake_atoms=atoms,
                alpha=min(total, max(F(1, 2), F(1 + seed % 4, 2))),
                density=0.5, seed=3000 + seed,
            )
        )
    return [(inst, generalized_pav(inst, eps=1e-9)) for inst in instances]


def test_criterion_01_fig1_end_to_end():
    started = time.perf_counter()
    inst, _ = gen_fig1()

    alloc, _trace = greedy_ejr_m(inst)
    assert alloc.goods == frozenset({"g1", "g2"}) and alloc.cake.is_empty
    assert utilities(inst, alloc) == [F(1), F(1)]

    mes_alloc, ledger = generalized_mes(inst)
    assert mes_alloc.cake == inst.full_cake() and not mes_alloc.goods
    assert ledger.purchases[0].payments == {0: F(9, 20), 1: F(9, 20)}

    pav = generalized_pav(inst, eps=1e-9)
    assert len(pav.allocation.goods) == 1
    assert pav.allocation.cake == inst.full_cake()
    expected = harmonic(F(19, 10)).value + harmonic(F(9, 10)).value
    assert abs(pav.score.value - expected) <= 1e-9

    for out in (mes_alloc, pav.allocation):
        assert not verify_ejr_m(inst, out).passed
        assert verify_ejr_1(inst, out, margin=1e-6).passed

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"end-to-end took {elapsed:.3f}s"
    _announce("1", f"fig1 end-to-end in {elapsed * 1000:.0f} ms")


def test_criterion_02_greedy_property_suite(mixed200):
    started = time.perf_counter()
    failures = 0
    for inst in mixed200:
        alloc, trace = greedy_ejr_m(inst)
        ts = [r.t_star for r in trace.rounds]
        ok = (
            alloc.size() <= inst.alpha
            and all(a >= b for a, b in zip(ts, ts[1:]))
            and verify_ejr_m(inst, alloc).passed
        )
        failures += 0 if ok else 1
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _announce("2", f"greedy exact-witness axiom on 200 instances in {elapsed:.1f}s")


def test_criterion_03_mes_suite(mixed200, cake100):
    failures = 0
    for inst in mixed200:
        alloc, ledger = generalized_mes(inst)
        spent = ledger.initial_budget * inst.n - sum(
            ledger.final_budgets.values(), F(0)
        )
        ok = spent == alloc.size() and verify_ejr_1(inst, alloc).passed
        failures += 0 if ok else 1
    for inst in cake100:
        alloc, _ = generalized_mes(inst)
        failures += 0 if verify_cake_ejr(inst, alloc).passed else 1
    assert failures == 0
    _announce("3", "equal shares: EJR-1 plus exact conservation on 200 mixed, cake-EJR on 100 cake instances")


def test_criterion_04_pav_suite(pav_suite):
    failures = 0
    for inst, sol in pav_suite:
        if not verify_ejr_1(inst, sol.allocation, margin=1e-6).passed:
            failures += 1
        if inst.cake_length == 0:
            _, opt = oracle_discretized_opt(inst, "gpav")
            if abs(sol.score.value - float(opt)) > 1e-9:
                failures += 1
    assert failures == 0
    _announce("4", "harmonic-score rule: EJR-1 at 1e-6 margin on 100 instances; exact optimum matched to 1e-9 on the indivisible half")


def test_criterion_05_implication_chain(mixed200, pav_suite):
    pairs = 0
    counterexamples = 0

    def check(inst, alloc):
        nonlocal pairs, counterexamples
        pairs += 1
        if verify_ejr_m(inst, alloc).passed:
            if not verify_ejr_1(inst, alloc).passed:
                counterexamples += 1

    for inst in mixed200:
        check(inst, greedy_ejr_m(inst)[0])
        check(inst, generalized_mes(inst)[0])
    for inst, sol in pav_suite:
        check(inst, sol.allocation)
    cfg = EnumerationConfig(cake_grid=3, max_candidates=1 << 22)
    for inst in mixed200:
        if pairs >= 10_500:
            break
        budgeted = 0
        for alloc in enumerate_allocations(inst, cfg):
            check(inst, alloc)
            budgeted += 1
            if budgeted >= 400:
                break
    assert pairs >= 10_000, f"only {pairs} allocation-instance pairs"
    assert counterexamples == 0
    _announce("5", f"exact-witness pass implied up-to-one pass on {pairs} pairs")


def test_criterion_06_prop1_impossibility():
    inst, _ = gen_prop1(F(1, 2), 4)
    assert (inst.n, inst.alpha) == (4, F(2))
    assert sum(1 for _ in enumerate_allocations(inst)) == 11  # subsets of size <= 2
    assert oracle_no_ejr_beta(inst, F(2, 5), "weak") is True
    _announce("6", "no allocation of the disjoint-approval instance satisfies weak EJR-2/5")


def test_criterion_07_prop4_nash_failures():
    inst, _ = gen_prop4(beta=1)
    results = mnw_indivisible(inst)
    got = {tuple(inst.sorted_goods(b.goods)) for b in results}
    assert got == {
        ("g1", "g4", "g5", "g6"),
        ("g2", "g4", "g5", "g6"),
        ("g3", "g4", "g5", "g6"),
    }
    for bundle in results:
        report = verify_ejr_beta(inst, bundle, F(1), "strict")
        assert not report.passed
        assert report.witness.group == tuple(range(9))
        assert report.witness.t == 3
    _announce("7", "all 3 Nash-optimal allocations fail strict EJR-1 at the 9-agent group, t = 3")


def test_criterion_08_thm4_tightness():
    t, eps = F(2), F(1, 4)
    inst, meta = gen_thm4(t, 32, F(1, 100), eps)
    alloc = Bundle(cake=IntervalSet.from_json(meta["designated_allocation"]["cake"]))
    assert alloc.cake.intervals == ((F(2), F(4)),)
    assert verify_ejr_1(inst, alloc).passed

    report = audit_degree(inst, alloc, "ejr-1")
    assert report.min_slack <= eps
    assert report.min_slack > F(-1, 10**12)
    full = report.entry_for(tuple(range(32)))
    assert full is not None and full.slack <= eps
    # exact rational recomputation of the full group's average satisfaction
    avg = sum(utilities(inst, alloc), F(0)) / 32
    assert avg == F(867, 3200) == full.average
    assert full.slack == avg - F(1, 4)
    _announce("8", "staggered cake instance: EJR-1 holds and the degree bound is tight within eps")


def test_criterion_09_thm6_scripted_execution():
    t, eps = F(5, 2), F(8, 25)
    inst, meta = gen_thm6(t, 20, eps)
    alloc, trace = greedy_ejr_m(inst, script=_script_from_meta(meta))
    positive = [r.t_star for r in trace.rounds if r.t_star > 0]
    assert positive == [F(2), F(1)]
    target = meta["target_group"]
    utils = utilities(inst, alloc)
    avg = sum((utils[i] for i in target), F(0)) / len(target)
    bound = F(4, 5)
    assert bound == F(2) * (1 - F(3) / (2 * t))
    assert bound <= avg <= bound + eps
    _announce("9", f"scripted greedy run hits rounds t*=2,1 with target average {avg} in [4/5, 4/5+eps]")


def test_criterion_10_gpav_degree(pav_suite):
    worst = None
    for inst, sol in pav_suite:
        report = audit_degree(inst, sol.allocation, "gpav")
        if report.min_slack is None:
            continue
        if worst is None or report.min_slack < worst:
            worst = report.min_slack
    assert worst is None or worst > F(-1, 10**6)
    _announce("10", f"harmonic-score outputs clear average satisfaction t-1 (worst slack {None if worst is None else float(worst):.6g})")


def test_criterion_11_appendix_theorem():
    inst, _ = gen_appendix(F(3, 2), F(1, 4), F(1, 4), 4)
    assert (inst.n, inst.m, inst.alpha) == (7, 4, F(7, 4))
    assert sum(1 for _ in enumerate_allocations(inst)) == 5  # empty + 4 singletons
    value = oracle_min_max_avg(inst, F(3, 2))
    assert value == F(5, 6)
    assert value < F(1, 2) + F(1, 6) + F(1, 4) == F(11, 12)
    _announce("11", f"min-max average satisfaction {value} stays below 11/12")


def test_criterion_12_harmonic_suite():
    import random

    tol = 1e-12
    assert harmonic(1).value == 1.0
    assert harmonic(2).value == 1.5
    rng = random.Random(12)
    for _ in range(1000):
        x = F(rng.randint(0, 10000), 100)
        step = harmonic(x + 1, tol).value - harmonic(x, tol).value
        assert abs(step - 1.0 / float(x + 1)) <= 2 * tol
        y = F(rng.randint(0, 100), 100)
        if x > 0:
            growth = harmonic(x + y, tol).value - harmonic(x, tol).value
            assert growth <= float(y / (x + y)) + 2 * tol
    h = F(1, 100000)
    assert abs(harmonic(h, tol).value / float(h) - math.pi**2 / 6) <= 1e-4
    _announce("12", "harmonic anchors, recurrence, growth bound, and slope at zero all hold")


def test_criterion_13_mes_scale():
    started = time.perf_counter()
    rows = bench_mes([(1000, 100, 100)], seed=7)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"bench took {elapsed:.1f}s"
    assert rows[0]["iterations"] <= rows[0]["iteration_bound"]
    _announce("13", f"equal shares at n=1000 finished in {elapsed:.2f}s ({rows[0]['iterations']} iterations)")
