"""Budget-based sequential purchase rule for mixed goods.

Every agent starts with a budget of alpha/n.  The cake is kept divided
into the index cells, intervals that every agent approves entirely or not
at all; in each step the cheapest per-utility purchase (price rho) among
remaining goods and cells is bought, with approvers paying min(budget, rho).
Prices only rise as budgets shrink, so goods and cells share one lazy
min-heap and are re-priced on pop; a candidate that has become
unaffordable can never recover and is dropped permanently.

Money is kept as ints over one unit 1/U: every budget, each cell's
unbought left end and each cell's right end.  U starts at the index
denominator.  A payment of a/q units that is not whole (a cell bought to
its end costs cost/p per payer, a good (1 - paid)/k) first multiplies U and
every int held on it by q // gcd(q, a).  That factor is at least 2, so a
run rescales at most log2(final U / initial U) times.  The ledger's
``Fraction``s are built once from the ints.

A heap entry is ``(float rho, Fraction rho, kind, k)``: the exact price
behind a float of it, computed from ints (``num / (den * U)`` for a good,
``1 / p`` for a cell), so most comparisons are float ones.  The order is
still the exact one: int true division is correctly rounded and rounding
is monotone, so ``float(a) < float(b)`` implies ``a < b``, and floats that
tie fall through to the exact ``Fraction``.  Neither part depends on U.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..core import Bundle, Instance, IntervalSet
from ..errors import DomainError, InvariantError

_GOOD, _CAKE = 0, 1  # equal-price ties prefer goods, then leftmost cake
_ONE = Fraction(1)


def _price_units(budgets: list[int], cost: int) -> tuple[int, int] | None:
    """Minimal rho = num/den >= 0 with sum_i min(b_i, rho) = cost, as
    ``(num, den)`` in the budgets' unit; None if the total budget cannot
    cover the cost (which must be positive)."""
    if sum(budgets) < cost:
        return None
    b = sorted(budgets)
    paid, payers = 0, len(b)
    for cap in b[:-1]:
        if cost - paid <= cap * payers:
            return cost - paid, payers
        paid += cap
        payers -= 1
    # the total covers the cost, so the largest budget covers what is left
    return cost - paid, 1


def mes_price(budgets: list[Fraction], cost: Fraction) -> Fraction | None:
    """Minimal rho >= 0 with sum_i min(b_i, rho) = cost, or None if the
    total budget cannot cover the cost.  Raises DomainError unless the cost
    is positive and every budget nonnegative."""
    if cost <= 0:
        raise DomainError("cost must be positive")
    if any(b < 0 for b in budgets):
        raise DomainError("budgets must be nonnegative")
    unit = math.lcm(cost.denominator, *(b.denominator for b in budgets))
    price = _price_units(
        [b.numerator * (unit // b.denominator) for b in budgets],
        cost.numerator * (unit // cost.denominator),
    )
    return None if price is None else Fraction(price[0], price[1] * unit)


@dataclass(frozen=True)
class Purchase:
    item: str | tuple[Fraction, Fraction]  # good name, or bought cake segment
    cost: Fraction
    rho: Fraction
    x: Fraction | None  # right endpoint of a cake purchase
    payments: dict[int, Fraction]


@dataclass
class PaymentLedger:
    """The purchases of one gmes run and the budgets left after them.

    ``pops`` counts heap pops, ``stale`` the pops whose entry was out of
    date (re-pushed at its new price, or dropped once unaffordable), so
    ``pops == iterations + stale``; ``rescales`` counts how often the
    integer unit grew.
    """

    initial_budget: Fraction
    purchases: list[Purchase] = field(default_factory=list)
    final_budgets: dict[int, Fraction] = field(default_factory=dict)
    iterations: int = 0
    pops: int = 0
    stale: int = 0
    rescales: int = 0

    def validate(self, inst: Instance, allocation: Bundle) -> None:
        """Raise InvariantError unless every payment is positive and made by
        an agent, and the ledger conserves money.  Sums are taken in ints
        at the lcm of the ledger's denominators."""
        n = inst.n
        size = allocation.size()
        denominators = {self.initial_budget.denominator, size.denominator}
        by_purchase = []  # each purchase's payment numerators, summed by denominator
        for p in self.purchases:
            sums: dict[int, int] = {}
            for i, v in p.payments.items():
                num, den = v.as_integer_ratio()
                if not 0 <= i < n:
                    raise InvariantError(f"payer {i} of {p.item} is not an agent")
                if num <= 0:
                    raise InvariantError(f"payment {v} by agent {i} for {p.item} is not positive")
                sums[den] = sums.get(den, 0) + num
            denominators.add(p.cost.denominator)
            denominators.update(sums)
            by_purchase.append(sums)
        finals = [b.as_integer_ratio() for b in self.final_budgets.values()]
        denominators.update(den for _, den in finals)
        unit = math.lcm(*denominators)
        scale = {d: unit // d for d in denominators}

        def units(v: Fraction) -> int:
            return v.numerator * scale[v.denominator]

        paid = [sum(num * scale[den] for den, num in sums.items()) for sums in by_purchase]
        spent = sum(paid)
        if spent != units(size):
            raise InvariantError(
                f"payments {Fraction(spent, unit)} differ from the allocated size {size}"
            )
        for p, amount in zip(self.purchases, paid):
            if amount != units(p.cost):
                raise InvariantError(f"payments for {p.item} differ from its cost {p.cost}")
        initial = units(self.initial_budget)
        final_units = [num * scale[den] for num, den in finals]
        for (i, b), u in zip(self.final_budgets.items(), final_units):
            if not 0 <= u <= initial:
                raise InvariantError(f"budget {i} out of range: {b}")
        if initial * n - sum(final_units) != spent:
            raise InvariantError("budgets spent differ from the payments")


def generalized_mes(inst: Instance) -> tuple[Bundle, PaymentLedger]:
    """Run the rule to exhaustion; returns the allocation and payment ledger."""
    index = inst.index
    m = inst.m
    unit = index.denominator
    budgets = [index.share_d] * inst.n
    # candidates by atom position k: the goods in instance order, then the
    # cells from left to right, each with its approvers in agent order
    approvers = [sorted(a) for a in (*index.good_approvers, *index.cells)]
    lo = index.points_d[:-1]  # left end of each cell's unbought cake
    hi = index.points_d[1:]
    bought_to: list[Fraction | None] = [None] * len(hi)
    most = max(map(len, index.cells), default=0)
    # cake price by payer count, as a float and exactly
    inverse = [None, *((1 / p, Fraction(1, p)) for p in range(1, most + 1))]
    ledger = PaymentLedger(initial_budget=inst.alpha / inst.n)
    pops = stale = rescales = 0

    def key(k: int) -> tuple | None:
        """Heap entry of candidate k at the current budgets, with its payers
        and, for a good, its price ``(num, den)`` in units; None once no
        approver can pay (budgets only shrink, so for good)."""
        payers = [i for i in approvers[k] if budgets[i]]
        if not payers:
            return None
        if k >= m:
            return (*inverse[len(payers)], _CAKE, k), payers, None
        price = _price_units([budgets[i] for i in payers], unit)
        if price is None:
            return None
        num, den = price
        return (num / (den * unit), Fraction(num, den * unit), _GOOD, k), payers, price

    def rescale(q: int, a: int) -> int:
        """Grow the unit, and every int held on it, by the factor that makes
        a/q units whole; return that factor."""
        nonlocal unit, rescales
        f = q // math.gcd(q, a)
        if f > 1:
            unit *= f
            budgets[:] = [b * f for b in budgets]
            lo[:] = [e * f for e in lo]
            hi[:] = [e * f for e in hi]
            rescales += 1
        return f

    heap = [now[0] for k in range(len(approvers)) if (now := key(k)) is not None]
    heapq.heapify(heap)
    last_rho: Fraction | None = None
    while heap:
        entry = heapq.heappop(heap)
        pops += 1
        _, rho, _, k = entry
        now = key(k)
        if now is None or now[0] != entry:
            stale += 1
            if now is not None:
                heapq.heappush(heap, now[0])
            continue
        _, payers, price = now
        if price is not None:
            num, den = price
            share = num * rescale(den, num) // den
            amounts = [min(budgets[i], share) for i in payers]
            payments = {i: rho if a == share else Fraction(a, unit) for i, a in zip(payers, amounts)}
            item, cost, x = inst.goods[k], _ONE, None
        else:
            # no budget binds: rho = 1/p, cost <= p * min budget
            j, p = k - m, len(payers)
            end = min(hi[j], lo[j] + p * min(budgets[i] for i in payers))
            end *= rescale(p, end - lo[j])
            share = (end - lo[j]) // p
            amounts = [share] * p
            x = Fraction(end, unit)
            start = index.points[j] if bought_to[j] is None else bought_to[j]
            item, cost = (start, x), Fraction(end - lo[j], unit)
            payments = dict.fromkeys(payers, Fraction(share, unit))
            lo[j], bought_to[j] = end, x
        for i, a in zip(payers, amounts):
            budgets[i] -= a
        ledger.purchases.append(Purchase(item=item, cost=cost, rho=rho, x=x, payments=payments))
        # the rest of a partly bought cell is re-keyed only now, since key
        # reads the budgets just paid
        if x is not None and lo[k - m] < hi[k - m] and (again := key(k)) is not None:
            heapq.heappush(heap, again[0])
        if last_rho is not None and rho < last_rho:
            raise InvariantError(f"price {rho} fell below the previous {last_rho}")
        last_rho = rho
        ledger.iterations += 1

    # each bought cell holds one piece from its left end; touching pieces merge
    cake: list[tuple[Fraction, Fraction]] = []
    for j, end in enumerate(bought_to):
        if end is not None:
            start = index.points[j]
            if cake and cake[-1][1] == start:
                cake[-1] = (cake[-1][0], end)
            else:
                cake.append((start, end))
    goods = frozenset(p.item for p in ledger.purchases if p.x is None)
    allocation = Bundle(cake=IntervalSet(tuple(cake)), goods=goods)
    values = {b: Fraction(b, unit) for b in set(budgets)}
    ledger.final_budgets = {i: values[b] for i, b in enumerate(budgets)}
    ledger.pops, ledger.stale, ledger.rescales = pops, stale, rescales
    if allocation.size() > inst.alpha:
        raise InvariantError(
            f"gmes allocation size {allocation.size()} exceeds alpha {inst.alpha}"
        )
    ledger.validate(inst, allocation)
    return allocation, ledger
