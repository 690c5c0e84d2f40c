"""Equal-shares rule tests: pricing, ledgers, and the indivisible reference oracle."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from mixvote import (
    Bundle,
    Instance,
    generalized_mes,
    mes_price,
    normalize,
    verify_cake_ejr,
    verify_ejr_1,
)
from mixvote.core import allocation_to_dict, format_rational
from mixvote.generate import gen_fig1, gen_random, gen_thm4

from conftest import make_mixed, reference_mes_indivisible


class TestMesPrice:
    def test_two_equal_budgets_cake_cost(self):
        assert mes_price([F(1), F(1)], F(9, 10)) == F(9, 20)

    def test_equal_split(self):
        assert mes_price([F(1), F(1)], F(1)) == F(1, 2)

    def test_capped_low_budget(self):
        assert mes_price([F(1, 4), F(1)], F(1)) == F(3, 4)

    def test_insufficient_budget(self):
        assert mes_price([F(1, 4), F(1, 4)], F(1)) is None

    def test_exact_exhaustion(self):
        assert mes_price([F(1, 2), F(1, 2)], F(1)) == F(1, 2)

    def test_minimality_by_scan(self):
        budgets = [F(1, 5), F(1, 3), F(2, 3), F(1)]
        rho = mes_price(budgets, F(3, 2))
        assert sum(min(b, rho) for b in budgets) == F(3, 2)
        smaller = rho - F(1, 1000)
        assert sum(min(b, smaller) for b in budgets) < F(3, 2)


class TestFig1:
    def test_cake_only_with_exact_payments(self, fig1):
        alloc, ledger = generalized_mes(fig1)
        assert alloc.goods == frozenset()
        assert alloc.cake == fig1.full_cake()
        assert len(ledger.purchases) == 1
        purchase = ledger.purchases[0]
        assert purchase.rho == F(1, 2)
        assert purchase.payments == {0: F(9, 20), 1: F(9, 20)}
        assert ledger.final_budgets == {0: F(11, 20), 1: F(11, 20)}

    def test_output_fails_nothing_weaker(self, fig1):
        alloc, _ = generalized_mes(fig1)
        assert verify_ejr_1(fig1, alloc).passed


def test_single_good_four_approvers():
    inst = Instance(
        cake_length=F(0),
        goods=("g1",),
        agents=tuple(Bundle(goods=frozenset({"g1"})) for _ in range(4)),
        alpha=F(1),
    )
    alloc, ledger = generalized_mes(inst)
    assert alloc.goods == frozenset({"g1"})
    assert ledger.purchases[0].payments == {i: F(1, 4) for i in range(4)}


@pytest.mark.parametrize("seed", range(30))
def test_ledger_conservation_and_prices(seed):
    inst = make_mixed(seed)
    alloc, ledger = generalized_mes(inst)
    spent = ledger.initial_budget * inst.n - sum(
        ledger.final_budgets.values(), F(0)
    )
    assert spent == alloc.size()
    rhos = [p.rho for p in ledger.purchases]
    assert all(a <= b for a, b in zip(rhos, rhos[1:]))
    assert verify_ejr_1(inst, alloc).passed
    bound = inst.m + len(inst.full_cake().intervals) * inst.n + inst.n + inst.m
    assert ledger.iterations <= inst.m + inst.n + 8 * inst.n  # coarse progress bound


@pytest.mark.parametrize("seed", range(20))
def test_indivisible_reduction_matches_reference(seed):
    n = 2 + seed % 6
    m = 1 + seed % 6
    inst = gen_random(
        n=n, m=m, cake_atoms=0, alpha=F(1 + seed % m) if m > 1 else F(1),
        density=0.6, seed=500 + seed,
    )
    alloc, ledger = generalized_mes(inst)
    ref_goods, ref_payments = reference_mes_indivisible(inst)
    assert alloc.goods == set(ref_goods)
    got = [p for p in ledger.purchases]
    assert [p.item for p in got] == ref_goods
    assert [p.payments for p in got] == ref_payments


@pytest.mark.parametrize("seed", [2, 11, 29])
def test_pure_cake_satisfies_cake_ejr(seed):
    inst = make_mixed(seed, m_max=0, atoms_max=4)
    alloc, _ = generalized_mes(inst)
    assert verify_cake_ejr(inst, alloc).passed


def test_thm4_cake_instance_gets_cake_ejr():
    inst, _ = gen_thm4(F(2), 32, F(1, 100), F(1, 4))
    alloc, _ = generalized_mes(inst)
    assert verify_cake_ejr(inst, alloc).passed


def test_partial_interval_purchase_resumes_at_higher_price():
    """A mid-interval budget exhaustion leaves the remainder in play; the
    surviving approver buys a further stretch at the recomputed price.

    Hand-derived run: g1 at rho 1/3 (payers 0, 2, 3), then [0, 5/6] of the
    cake at rho 1/2 exhausting agent 0, then [5/6, 7/6] at rho 1 exhausting
    agent 1.
    """
    cake = normalize([(F(0), F(2))])
    inst = Instance(
        cake_length=F(2),
        goods=("g1",),
        agents=(
            Bundle(cake=cake, goods=frozenset({"g1"})),
            Bundle(cake=cake),
            Bundle(goods=frozenset({"g1"})),
            Bundle(goods=frozenset({"g1"})),
        ),
        alpha=F(3),
    )
    alloc, ledger = generalized_mes(inst)
    assert alloc.goods == frozenset({"g1"})
    assert alloc.cake == normalize([(F(0), F(7, 6))])
    assert [(p.item, p.rho) for p in ledger.purchases] == [
        ("g1", F(1, 3)),
        ((F(0), F(5, 6)), F(1, 2)),
        ((F(5, 6), F(7, 6)), F(1)),
    ]
    assert ledger.purchases[1].payments == {0: F(5, 12), 1: F(5, 12)}
    assert ledger.purchases[2].payments == {1: F(1, 3)}
    assert ledger.final_budgets == {0: F(0), 1: F(0), 2: F(5, 12), 3: F(5, 12)}


def test_empty_approvals_buy_nothing():
    inst = Instance(
        cake_length=F(1),
        goods=("g1",),
        agents=(Bundle(), Bundle(goods=frozenset({"g1"}))),
        alpha=F(1),
    )
    alloc, ledger = generalized_mes(inst)
    # budget alpha/n = 1/2 per agent; the good costs 1 and has one approver
    assert alloc.is_empty
    assert ledger.iterations == 0


UNBALANCED_LEDGER = """
from mixvote.core import Bundle
from mixvote.errors import InvariantError
from mixvote.generate import gen_fig1
from mixvote.rules import generalized_mes

assert False, "this script must run under python -O"

inst = gen_fig1()[0]
alloc, ledger = generalized_mes(inst)
try:
    unpaid = alloc.union(Bundle(goods=frozenset({"g1"})))  # nobody paid for g1
    ledger.validate(inst, unpaid)
except InvariantError as exc:
    print("InvariantError:", exc)
"""


def test_ledger_validation_survives_optimize_flag():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", UNBALANCED_LEDGER],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError: payments 9/10 differ from the allocated size 19/10")


def _rational(q):
    return None if q is None else format_rational(q)


def ledger_text(inst: Instance) -> str:
    """The gmes allocation and its whole ledger, purchases and payments in order."""
    alloc, ledger = generalized_mes(inst)
    return json.dumps({
        "allocation": allocation_to_dict(inst, alloc),
        "initial_budget": _rational(ledger.initial_budget),
        "iterations": ledger.iterations,
        "purchases": [
            [
                p.item if isinstance(p.item, str) else [_rational(e) for e in p.item],
                _rational(p.cost), _rational(p.rho), _rational(p.x),
                [[i, _rational(v)] for i, v in p.payments.items()],
            ]
            for p in ledger.purchases
        ],
        "final_budgets": [[i, _rational(b)] for i, b in ledger.final_budgets.items()],
    }, sort_keys=True)


# sha256 of the ledger texts, one per line; pins the exact purchase sequence
GOLDEN_LEDGERS = {
    "make_mixed(0..39)": (
        lambda: [make_mixed(seed) for seed in range(40)],
        "1128cbf98a0cdec1317a87ac78b3c39467f98abcac800c17fcc2939bf5bae46a",
    ),
    "fig1": (
        lambda: [gen_fig1()[0]],
        "c770a511363f586941fa35c4405700017fafacfa199b8d79972d26e8452f4495",
    ),
    "thm4(t=5/2, n=20)": (
        lambda: [gen_thm4(F(5, 2), 20)[0]],
        "4a457f13cd0c8e89e41acdddac0af823e79f098e128114c1d9d524ca8ba6c426",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_LEDGERS))
def test_golden_ledgers(name):
    instances, expected = GOLDEN_LEDGERS[name]
    text = "\n".join(ledger_text(inst) for inst in instances())
    assert hashlib.sha256(text.encode()).hexdigest() == expected
