"""Budget-based sequential purchase rule for mixed goods.

Every agent starts with a budget of alpha/n.  The remaining cake is kept
divided into all-or-nothing intervals; in each step the cheapest
per-utility purchase (price rho) among remaining goods and intervals is
bought, with approvers paying min(budget, share).  Prices only rise as
budgets shrink, so goods and intervals share one lazy min-heap and are
re-priced on pop; a candidate that has become unaffordable can never
recover and is dropped permanently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from ..core import Bundle, Instance, atomize, normalize
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


def generalized_mes(inst: Instance) -> tuple[Bundle, PaymentLedger]:
    """Run the rule to exhaustion; returns the allocation and payment ledger."""
    share = inst.alpha / inst.n
    budgets = [share] * inst.n
    active = {i for i, agent in enumerate(inst.agents) if not agent.is_empty}
    ledger = PaymentLedger(initial_budget=share)

    atoms = atomize(inst, inst.full_cake(), inst.goods)  # goods in instance order, then cake
    # unbought candidates by atom position: None for a good, else the left
    # end of the interval's cake still for sale
    unbought = {k: None if a.is_good else a.interval[0] for k, a in enumerate(atoms)}

    def key(k: int) -> tuple | None:
        """Heap entry of candidate k at the current budgets, or None once no
        active approver can pay (budgets only shrink, so for good)."""
        payers = [i for i in atoms[k].approvers if i in active]
        if not payers:
            return None
        lo = unbought[k]
        if lo is not None:
            return Fraction(1, len(payers)), _CAKE, lo, k
        rho = mes_price([budgets[i] for i in payers], Fraction(1))
        return None if rho is None else (rho, _GOOD, k, k)

    heap = [entry for k in unbought if (entry := key(k)) is not None]
    heapq.heapify(heap)
    last_rho: Fraction | None = None
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
            item, cost, x = atom.good, Fraction(1), None
            payments = {i: min(budgets[i], rho) for i in payers}
        else:
            x = min(atom.interval[1], lo + len(payers) * min(budgets[i] for i in payers))
            item, cost = (lo, x), x - lo
            # no budget binds: rho = 1/len(payers), cost <= len(payers) * min budget
            payments = dict.fromkeys(payers, cost * rho)
        for i, amount in payments.items():
            budgets[i] -= amount
            if budgets[i] == 0:
                active.discard(i)
        ledger.purchases.append(Purchase(item=item, cost=cost, rho=rho, x=x, payments=payments))
        # the rest of a partly bought interval is re-keyed only now, since
        # key reads the budgets just paid
        unbought[k] = x
        again = key(k) if x is not None and x < atom.interval[1] else None
        if again is None:
            del unbought[k]
        else:
            heapq.heappush(heap, again)
        if last_rho is not None and rho < last_rho:
            raise InvariantError(f"price {rho} fell below the previous {last_rho}")
        last_rho = rho
        ledger.iterations += 1

    bought = ledger.purchases
    allocation = Bundle(
        cake=normalize([p.item for p in bought if p.x is not None]),
        goods=frozenset(p.item for p in bought if p.x is None),
    )
    ledger.final_budgets = dict(enumerate(budgets))
    if allocation.size() > inst.alpha:
        raise InvariantError(
            f"gmes allocation size {allocation.size()} exceeds alpha {inst.alpha}"
        )
    ledger.validate(inst, allocation)
    return allocation, ledger
