"""Equal-shares rule tests: pricing, ledgers, the indivisible reference
oracle, and the integer loop against the Fraction reference loop."""

import hashlib
import heapq
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixvote import (
    Bundle,
    Instance,
    generalized_mes,
    mes_price,
    normalize,
    verify_cake_ejr,
    verify_ejr_1,
)
from mixvote.core import allocation_to_dict, atomize, format_rational
from mixvote.errors import DomainError, InvariantError
from mixvote.rules import mes as mes_module
from mixvote.generate import gen_fig1, gen_random, gen_thm4
from mixvote.rules import Purchase

from conftest import make_mixed, reference_mes_indivisible
from test_index import BIG_PRIME
from test_index import instances as index_instances


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

    @pytest.mark.parametrize("budgets, cost", [
        ([F(1)], F(0)),
        ([F(1)], F(-1, 2)),
        ([F(1), F(-1, 3)], F(1)),
    ])
    def test_domain_errors(self, budgets, cost):
        with pytest.raises(DomainError):
            mes_price(budgets, cost)
        assert issubclass(DomainError, ValueError)  # callers catching ValueError still do

    @pytest.mark.parametrize("budgets, cost, name", [
        ([F(1)], 0.5, "cost"),
        ([F(1)], True, "cost"),
        ([F(1), 0.5], F(1), "budget"),
        ([F(1), True], F(1), "budget"),
    ])
    def test_floats_and_bools_rejected(self, budgets, cost, name):
        with pytest.raises(DomainError, match=rf"^{name} must be an int or a Fraction, got"):
            mes_price(budgets, cost)


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


def resuming_instance() -> Instance:
    cake = normalize([(F(0), F(2))])
    return Instance(
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


def test_partial_interval_purchase_resumes_at_higher_price():
    """A mid-interval budget exhaustion leaves the remainder in play; the
    surviving approver buys a further stretch at the recomputed price.

    Hand-derived run: g1 at rho 1/3 (payers 0, 2, 3), then [0, 5/6] of the
    cake at rho 1/2 exhausting agent 0, then [5/6, 7/6] at rho 1 exhausting
    agent 1.
    """
    alloc, ledger = generalized_mes(resuming_instance())
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


def test_prices_that_round_to_one_float_pop_in_exact_order():
    """Heap keys compare floats first; equal floats fall through to the
    exact price.

    Every budget is 1/2.  The cell [0, L], L = 2/3 + 8e, e = 1/(9*10**17),
    goes first at rho 1/4, and agent 0 pays L/4 of it, keeping 1/3 - 2e.
    Then good "b" (agents 0-2) costs (1 - (1/3 - 2e))/2 = 1/3 + e and good
    "a" (agents 3-5) costs 1/3.  Both round to the float 1/3, and "b" comes
    first in instance order, so only the exact price puts "a" first.
    """
    e = F(1, 9 * 10**17)
    cell = normalize([(F(0), F(2, 3) + 8 * e)])
    b, a = frozenset({"b"}), frozenset({"a"})
    inst = Instance(
        cake_length=F(3),
        goods=("b", "a"),
        agents=(
            Bundle(cell, b), Bundle(goods=b), Bundle(goods=b),
            Bundle(goods=a), Bundle(goods=a), Bundle(goods=a),
            Bundle(cell), Bundle(cell), Bundle(cell),
        ),
        alpha=F(9, 2),
    )
    assert float(F(1, 3) + e) == float(F(1, 3))
    _, ledger = generalized_mes(inst)
    assert [(p.item, p.rho) for p in ledger.purchases] == [
        (cell.intervals[0], F(1, 4)),
        ("a", F(1, 3)),
        ("b", F(3 * 10**17 + 1, 9 * 10**17)),
    ]
    assert ledger.purchases[2].payments == {0: F(1, 3) - 2 * e, 1: F(1, 3) + e, 2: F(1, 3) + e}


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


TAMPERED_PAYMENTS = """
from mixvote.errors import InvariantError
from mixvote.generate import gen_fig1
from mixvote.rules import generalized_mes

assert False, "this script must run under python -O"

inst = gen_fig1()[0]
alloc, ledger = generalized_mes(inst)
# the first record is (k, rho, unit, payers, share, start, end) of fig1's cake,
# bought by agents 0 and 1 at 9/20 each
bought = ledger._records[0]
for field, value in ((4, 0), (4, -bought[4]), (3, [0, 2])):
    record = list(bought)
    record[field] = value
    ledger._records[0] = tuple(record)
    try:
        ledger.validate(inst, alloc)
        print("accepted")
    except InvariantError as exc:
        print("InvariantError:", exc)
"""


def test_payment_checks_survive_optimize_flag():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_PAYMENTS],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    item = (F(0), F(9, 10))
    assert proc.stdout.splitlines() == [
        f"InvariantError: payment 0 by agent 0 for {item} is not positive",
        f"InvariantError: payment -9/20 by agent 0 for {item} is not positive",
        f"InvariantError: payer 2 of {item} is not an agent",
    ]


def test_purchases_are_built_on_each_read(monkeypatch):
    made = []

    def counted(*args, **kwargs):
        made.append(Purchase(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(mes_module, "Purchase", counted)
    inst = gen_random(n=60, m=6, cake_atoms=6, alpha=F(9, 4), density=0.05, seed=3)
    alloc, ledger = generalized_mes(inst)
    assert made == []
    purchases = ledger.purchases
    assert list(purchases) == made and len(made) == ledger.iterations > 0
    again = ledger.purchases
    assert again == purchases and again is not purchases
    assert len(made) == 2 * ledger.iterations
    assert alloc.goods == {p.item for p in purchases if p.x is None}


def test_ledgers_that_bought_different_goods_differ():
    def both_approve(good):
        approval = Bundle(goods=frozenset({good}))
        return Instance(cake_length=F(0), goods=("g1", "g2"), agents=(approval,) * 2, alpha=F(1))

    alloc1, ledger1 = generalized_mes(both_approve("g1"))
    alloc2, ledger2 = generalized_mes(both_approve("g2"))
    assert (alloc1.goods, alloc2.goods) == ({"g1"}, {"g2"})
    assert ledger1 != ledger2
    assert generalized_mes(both_approve("g1"))[1] == ledger1


def test_purchases_cannot_be_edited():
    alloc, ledger = generalized_mes(gen_fig1()[0])
    assert isinstance(ledger.purchases, tuple)
    with pytest.raises(TypeError):
        ledger.purchases[0] = ledger.purchases[0]


@given(index_instances())
@settings(max_examples=100, deadline=None)
def test_validate_rejects_an_unpaid_good(inst):
    alloc, ledger = generalized_mes(inst)
    ledger.validate(inst, alloc)
    unpaid = [g for g in inst.goods if g not in alloc.goods]
    if unpaid:
        extra = alloc.union(Bundle(goods=frozenset(unpaid[:1])))
        spent = alloc.size()
        with pytest.raises(InvariantError, match=rf"^payments {spent} differ from the allocated size {spent + 1}$"):
            ledger.validate(inst, extra)


def four_approvers() -> Instance:
    good = Bundle(goods=frozenset({"g1"}))
    return Instance(cake_length=F(0), goods=("g1",), agents=(good,) * 4, alpha=F(1))


# a record is (k, rho, unit, payers, paid, start, end); each case edits one
# field of the first, keeping (but for the share of 0) its total at its cost
TAMPERED_RECORDS = {
    "payer 2 of fig1's cake": (
        lambda: gen_fig1()[0], 3, lambda r: [0, 2],
        f"payer 2 of {(F(0), F(9, 10))} is not an agent",
    ),
    "cake share 0": (
        lambda: gen_fig1()[0], 4, lambda r: 0,
        f"payment 0 by agent 0 for {(F(0), F(9, 10))} is not positive",
    ),
    "good paid 0 by two of four": (
        four_approvers, 4, lambda r: [r[2] // 2, r[2] // 2, 0, 0],
        "payment 0 by agent 2 for g1 is not positive",
    ),
    "good paid -1/4 by one of four": (
        four_approvers, 4, lambda r: [r[2] // 2, r[2] // 2, r[2] // 4, -r[2] // 4],
        "payment -1/4 by agent 3 for g1 is not positive",
    ),
    "fig1's cake paid twice by agent 0": (
        lambda: gen_fig1()[0], 3, lambda r: [0, 0],
        f"agent 0 pays more than once for {(F(0), F(9, 10))}",
    ),
    "good paid twice by agent 0": (
        four_approvers, 3, lambda r: [0, 0, 2, 3],
        "agent 0 pays more than once for g1",
    ),
}


@pytest.mark.parametrize("name", list(TAMPERED_RECORDS))
def test_tampered_records_fail_alike_before_and_after_reading(name):
    make, field, value, message = TAMPERED_RECORDS[name]
    inst = make()
    alloc, ledger = generalized_mes(inst)
    record = list(ledger._records[0])
    record[field] = value(record)
    ledger._records[0] = tuple(record)
    with pytest.raises(InvariantError) as unread:
        ledger.validate(inst, alloc)
    ledger.purchases  # built from the tampered record
    with pytest.raises(InvariantError) as read:
        ledger.validate(inst, alloc)
    assert str(unread.value) == str(read.value) == message


@pytest.mark.parametrize("make, edit", [
    (lambda: gen_fig1()[0], lambda budgets: budgets.update({99: F(0)})),
    (lambda: gen_fig1()[0], lambda budgets: budgets.update({"x": F(0)})),
    (resuming_instance, lambda budgets: budgets.pop(0)),  # agent 0 ends with 0
])
def test_final_budgets_name_exactly_the_agents(make, edit):
    inst = make()
    alloc, ledger = generalized_mes(inst)
    edit(ledger.final_budgets)
    with pytest.raises(InvariantError, match=rf"^final budgets must name exactly the agents 0\.\.{inst.n - 1}$"):
        ledger.validate(inst, alloc)


def _rational(q):
    return None if q is None else format_rational(q)


def ledger_text(inst: Instance, rule=generalized_mes) -> str:
    """The allocation and the whole ledger of ``rule``, purchases and
    payments in order."""
    alloc, ledger = rule(inst)
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
    # the mes-scale shapes: m = cake atoms = n/10, alpha a quarter of c + m
    "mes-scale(n=60, 120; seeds 0..9)": (
        lambda: [
            gen_random(n=n, m=n // 10, cake_atoms=n // 10, alpha=F(3 * n, 80), density=0.05, seed=s)
            for n in (60, 120) for s in range(10)
        ],
        "5847dbca23178b8ada6068dc45c059748cb7b8d1b7728765fb94eb040dbe205b",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_LEDGERS))
def test_golden_ledgers(name):
    instances, expected = GOLDEN_LEDGERS[name]
    text = "\n".join(ledger_text(inst) for inst in instances())
    assert hashlib.sha256(text.encode()).hexdigest() == expected


# ---------------------------------------------------------------------------
# The Fraction reference: the rule as written before its money moved to ints
# over one growing unit, kept to check the integer loop purchase by purchase


def reference_price(budgets, cost):
    total = sum(budgets, F(0))
    if total < cost:
        return None
    b = sorted(budgets)
    paid = F(0)
    for idx, cap in enumerate(b):
        payers = len(b) - idx
        rho = (cost - paid) / payers
        if rho <= cap:
            return rho
        paid += cap
    return b[-1]


def reference_gmes(inst):
    share = inst.alpha / inst.n
    budgets = [share] * inst.n
    active = {i for i, agent in enumerate(inst.agents) if not agent.is_empty}
    # a stand-in for the ledger, with the fields ledger_text reads
    ledger = SimpleNamespace(initial_budget=share, iterations=0, purchases=[], final_budgets={})
    atoms = atomize(inst, inst.full_cake(), inst.goods)
    unbought = {k: None if a.is_good else a.interval[0] for k, a in enumerate(atoms)}

    def key(k):
        payers = [i for i in atoms[k].approvers if i in active]
        if not payers:
            return None
        lo = unbought[k]
        if lo is not None:
            return F(1, len(payers)), 1, lo, k
        rho = reference_price([budgets[i] for i in payers], F(1))
        return None if rho is None else (rho, 0, k, k)

    heap = [entry for k in unbought if (entry := key(k)) is not None]
    heapq.heapify(heap)
    while heap:
        entry = heapq.heappop(heap)
        rho, _, _, k = entry
        if k not in unbought:
            continue
        now = key(k)
        if now is None:
            del unbought[k]
            continue
        if now != entry:
            heapq.heappush(heap, now)
            continue
        atom, lo = atoms[k], unbought[k]
        payers = sorted(i for i in atom.approvers if i in active)
        if lo is None:
            item, cost, x = atom.good, F(1), None
            payments = {i: min(budgets[i], rho) for i in payers}
        else:
            x = min(atom.interval[1], lo + len(payers) * min(budgets[i] for i in payers))
            item, cost = (lo, x), x - lo
            payments = dict.fromkeys(payers, cost * rho)
        for i, amount in payments.items():
            budgets[i] -= amount
            if budgets[i] == 0:
                active.discard(i)
        ledger.purchases.append(Purchase(item=item, cost=cost, rho=rho, x=x, payments=payments))
        unbought[k] = x
        again = key(k) if x is not None and x < atom.interval[1] else None
        if again is None:
            del unbought[k]
        else:
            heapq.heappush(heap, again)
        ledger.iterations += 1
    bought = ledger.purchases
    allocation = Bundle(
        cake=normalize([p.item for p in bought if p.x is not None]),
        goods=frozenset(p.item for p in bought if p.x is None),
    )
    ledger.final_budgets = dict(enumerate(budgets))
    return allocation, ledger


@given(index_instances())
@settings(max_examples=150, deadline=None)
def test_integer_loop_matches_fraction_reference(inst):
    assert ledger_text(inst) == ledger_text(inst, reference_gmes)
    _, ledger = generalized_mes(inst)
    assert ledger.pops == ledger.iterations + ledger.stale


@given(
    st.lists(st.fractions(0, 2, max_denominator=BIG_PRIME), max_size=6),
    st.fractions(F(1, BIG_PRIME), 3, max_denominator=BIG_PRIME),
)
@settings(max_examples=200, deadline=None)
def test_mes_price_matches_fraction_reference(budgets, cost):
    assert mes_price(budgets, cost) == reference_price(budgets, cost)


def test_rescales_keep_every_amount_exact():
    """Cells [0, 1], [1, 2] and [2, 3] with 13, 11 and 7 payers are each
    bought to their end, so every payer owes 1/13, 1/11 and then 1/7, and
    the good is bought last at (1 - paid)/2 with four budgets binding; the
    budget alpha/n sits over the prime 10**9 + 7.  Each of the four
    payments is a fraction of the unit before it, so the unit grows four
    times."""
    def agent(reach, good):
        return Bundle(cake=normalize([(F(0), F(reach))]), goods=frozenset({"g1"} if good else ()))

    agents = [agent(3, i < 2) for i in range(7)]
    agents += [agent(2, i < 2) for i in range(4)]
    agents += [agent(1, True) for _ in range(2)]
    share = F(360_000_001, BIG_PRIME)
    inst = Instance(cake_length=F(3), goods=("g1", "g2"), agents=tuple(agents), alpha=13 * share)
    assert ledger_text(inst) == ledger_text(inst, reference_gmes)
    alloc, ledger = generalized_mes(inst)
    assert [len(p.payments) for p in ledger.purchases] == [13, 11, 7, 6]
    assert [p.rho for p in ledger.purchases[:3]] == [F(1, 13), F(1, 11), F(1, 7)]
    assert ledger.purchases[3].rho.denominator == 2 * 7 * 11 * 13 * BIG_PRIME
    assert (ledger.rescales, ledger.pops, ledger.stale) == (4, 5, 1)
    assert alloc == Bundle(cake=inst.full_cake(), goods=frozenset({"g1"}))
