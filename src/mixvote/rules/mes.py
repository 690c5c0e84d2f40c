"""Budget-based sequential purchase rule for mixed goods.

Every agent starts with a budget of alpha/n.  The remaining cake is kept
divided into all-or-nothing intervals; in each step the cheapest
per-utility purchase (price rho) among remaining goods and intervals is
bought, with approvers paying min(budget, share).  Prices only rise as
budgets shrink, so candidates live in a lazy min-heap and are re-priced
on pop; a candidate that has become unaffordable can never recover and is
dropped permanently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from ..core import (
    Bundle,
    Instance,
    atomize,
    normalize,
)
from ..errors import InvariantError

_GOOD, _CAKE = 0, 1  # equal-price ties prefer goods, then leftmost cake


def mes_price(budgets: list[Fraction], cost: Fraction) -> Fraction | None:
    """Minimal rho >= 0 with sum_i min(b_i, rho) = cost, or None if the
    total budget cannot cover the cost."""
    if cost <= 0:
        raise ValueError("cost must be positive")
    if any(b < 0 for b in budgets):
        raise ValueError("budgets must be nonnegative")
    total = sum(budgets, Fraction(0))
    if total < cost:
        return None
    b = sorted(budgets)
    paid = Fraction(0)
    for idx, cap in enumerate(b):
        payers = len(b) - idx
        rho = (cost - paid) / payers
        if rho <= cap:
            return rho
        paid += cap
    # total == cost and every budget binds
    return b[-1]


@dataclass(frozen=True)
class Purchase:
    item: str | tuple[Fraction, Fraction]  # good name, or bought cake segment
    cost: Fraction
    rho: Fraction
    x: Fraction | None  # right endpoint of a cake purchase
    payments: dict[int, Fraction]


@dataclass
class PaymentLedger:
    initial_budget: Fraction
    purchases: list[Purchase] = field(default_factory=list)
    final_budgets: dict[int, Fraction] = field(default_factory=dict)
    iterations: int = 0

    def validate(self, inst: Instance, allocation: Bundle) -> None:
        """Raise InvariantError unless the ledger conserves money."""
        paid = [sum(p.payments.values(), Fraction(0)) for p in self.purchases]
        spent = sum(paid, Fraction(0))
        if spent != allocation.size():
            raise InvariantError(
                f"payments {spent} differ from the allocated size {allocation.size()}"
            )
        for p, amount in zip(self.purchases, paid):
            if amount != p.cost:
                raise InvariantError(f"payments for {p.item} differ from its cost {p.cost}")
        for i, b in self.final_budgets.items():
            if not 0 <= b <= self.initial_budget:
                raise InvariantError(f"budget {i} out of range: {b}")
        final_total = sum(self.final_budgets.values(), Fraction(0))
        if self.initial_budget * inst.n - final_total != spent:
            raise InvariantError("budgets spent differ from the payments")


@dataclass
class _CakeAtom:
    lo: Fraction
    hi: Fraction
    approvers: frozenset[int]


def generalized_mes(inst: Instance) -> tuple[Bundle, PaymentLedger]:
    """Run the rule to exhaustion; returns the allocation and payment ledger."""
    n = inst.n
    share = inst.alpha / n
    budgets: dict[int, Fraction] = {i: share for i in range(n)}
    active: set[int] = {i for i in range(n) if not inst.agents[i].is_empty}
    ledger = PaymentLedger(initial_budget=share)

    cake_atoms: dict[int, _CakeAtom] = {}
    goods_left: dict[str, frozenset[int]] = {}
    for atom in atomize(inst, inst.full_cake(), inst.goods):
        if atom.is_good:
            goods_left[atom.good] = atom.approvers
        else:
            lo, hi = atom.interval
            cake_atoms[len(cake_atoms)] = _CakeAtom(lo, hi, atom.approvers)

    heap: list[tuple] = []

    def good_rho(name: str) -> Fraction | None:
        payers = [budgets[i] for i in goods_left[name] if i in active]
        if not payers:
            return None
        return mes_price(payers, Fraction(1))

    def cake_key(aid: int) -> tuple[Fraction, Fraction] | None:
        atom = cake_atoms[aid]
        count = sum(1 for i in atom.approvers if i in active)
        if count == 0:
            return None
        return Fraction(1, count), atom.lo

    for name in goods_left:
        rho = good_rho(name)
        if rho is not None:
            heapq.heappush(heap, (rho, _GOOD, inst.good_index[name], name))
    for aid in cake_atoms:
        key = cake_key(aid)
        if key is not None:
            heapq.heappush(heap, (key[0], _CAKE, key[1], aid))

    bought_goods: set[str] = set()
    bought_cake: list[tuple[Fraction, Fraction]] = []
    last_rho: Fraction | None = None

    def pay(payers: list[int], amounts: dict[int, Fraction]) -> None:
        for i in payers:
            budgets[i] -= amounts[i]
            if budgets[i] == 0:
                active.discard(i)

    while heap:
        rho, kind, order, ident = heapq.heappop(heap)
        if kind == _GOOD:
            if ident in bought_goods:
                continue
            now = good_rho(ident)
            if now is None:
                continue  # budgets only shrink; never affordable again
            if now != rho:
                heapq.heappush(heap, (now, _GOOD, order, ident))
                continue
            payers = sorted(i for i in goods_left[ident] if i in active)
            payments = {i: min(budgets[i], rho) for i in payers}
            pay(payers, payments)
            bought_goods.add(ident)
            del goods_left[ident]
            ledger.purchases.append(
                Purchase(item=ident, cost=Fraction(1), rho=rho, x=None, payments=payments)
            )
        else:
            if ident not in cake_atoms:
                continue
            now = cake_key(ident)
            if now is None:
                del cake_atoms[ident]
                continue
            if now != (rho, order):
                heapq.heappush(heap, (now[0], _CAKE, now[1], ident))
                continue
            atom = cake_atoms[ident]
            payers = sorted(i for i in atom.approvers if i in active)
            b_min = min(budgets[i] for i in payers)
            x = min(atom.hi, atom.lo + len(payers) * b_min)
            length = x - atom.lo
            # no budget binds: rho = 1/len(payers), length <= len(payers) * b_min
            payments = {i: length * rho for i in payers}
            pay(payers, payments)
            bought_cake.append((atom.lo, x))
            ledger.purchases.append(
                Purchase(item=(atom.lo, x), cost=length, rho=rho, x=x, payments=payments)
            )
            if x < atom.hi:
                atom.lo = x
                key = cake_key(ident)
                if key is not None:
                    heapq.heappush(heap, (key[0], _CAKE, key[1], ident))
            else:
                del cake_atoms[ident]
        if last_rho is not None and rho < last_rho:
            raise InvariantError(f"price {rho} fell below the previous {last_rho}")
        last_rho = rho
        ledger.iterations += 1

    allocation = Bundle(cake=normalize(bought_cake), goods=frozenset(bought_goods))
    ledger.final_budgets = dict(budgets)
    if allocation.size() > inst.alpha:
        raise InvariantError(
            f"gmes allocation size {allocation.size()} exceeds alpha {inst.alpha}"
        )
    ledger.validate(inst, allocation)
    return allocation, ledger
