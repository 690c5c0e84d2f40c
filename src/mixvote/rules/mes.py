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
run rescales at most log2(final U / initial U) times.

The ledger keeps each purchase as an int record over the U in force when
it was made: the payers with their amounts (a good) or their common share
(a cell), and the cell's left end before and after.  ``validate`` checks
money on those ints; the ``Purchase``s, with their ``Fraction`` payments,
are built only when ``PaymentLedger.purchases`` is first read.

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

from ..core import Bundle, Instance, IntervalSet, as_rational
from ..errors import DomainError, InvariantError

_GOOD, _CAKE = 0, 1  # equal-price ties prefer goods, then leftmost cake
_ZERO, _ONE = Fraction(0), Fraction(1)


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
    is positive, every budget nonnegative, and each an int or a Fraction."""
    cost = as_rational("cost", cost)
    budgets = [as_rational("budget", b) for b in budgets]
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

    A run records each purchase in ints over the unit in force when it was
    made (see ``generalized_mes``); ``purchases`` builds the ``Purchase``
    list from those records on first read and keeps it, so edits to the
    list stick.  A ledger built by hand starts with an empty list.

    ``pops`` counts heap pops, ``stale`` the pops whose entry was out of
    date (re-pushed at its new price, or dropped once unaffordable), so
    ``pops == iterations + stale``; ``rescales`` counts how often the
    integer unit grew.
    """

    initial_budget: Fraction
    final_budgets: dict[int, Fraction] = field(default_factory=dict)
    iterations: int = 0
    pops: int = 0
    stale: int = 0
    rescales: int = 0
    # a record is (k, rho, unit, payers, paid, start, end): candidate k, its
    # price, and over 1/unit the goods payers' amounts (start None) or the
    # cake share each payer paid for the cell's cake from start to end
    _records: list[tuple] = field(default_factory=list, init=False, repr=False, compare=False)
    _goods: tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)
    _purchases: list[Purchase] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def purchases(self) -> list[Purchase]:
        """Every purchase in order, built from the records on first read."""
        if self._purchases is None:
            self._purchases = [self._purchase(r) for r in self._records]
        return self._purchases

    def _purchase(self, record: tuple) -> Purchase:
        k, rho, unit, payers, paid, start, end = record
        if start is None:
            share = rho.numerator * (unit // rho.denominator)  # rho in units
            payments = {i: rho if a == share else Fraction(a, unit) for i, a in zip(payers, paid)}
            return Purchase(self._goods[k], _ONE, rho, None, payments)
        x = Fraction(end, unit)
        payments = dict.fromkeys(payers, Fraction(paid, unit))
        return Purchase((Fraction(start, unit), x), Fraction(end - start, unit), rho, x, payments)

    def _at(self, t: int) -> Purchase:
        """Purchase t, without building the list."""
        return self._purchase(self._records[t]) if self._purchases is None else self._purchases[t]

    def _in_ints(self, n: int) -> list[tuple[int, int, int]]:
        """Each purchase as ``(paid, cost, den)``, its payments' sum and its
        cost over 1/den, once every payment is checked to be positive and
        made by an agent: from the records while the list is unbuilt."""
        if self._purchases is not None:
            return [_purchase_in_ints(p, n) for p in self._purchases]
        rows = []
        for k, rho, unit, payers, paid, start, end in self._records:
            if start is None:
                bad = payers and min(paid) <= 0
                rows.append((sum(paid), unit, unit))
            else:
                bad = paid <= 0
                rows.append((paid * len(payers), end - start, unit))
            if bad or payers and (min(payers) < 0 or max(payers) >= n):
                _purchase_in_ints(self._at(len(rows) - 1), n)  # raises, naming the payment
        return rows

    def validate(self, inst: Instance, allocation: Bundle) -> None:
        """Raise InvariantError unless every payment is positive and made by
        an agent, the final budgets name exactly the agents, and the ledger
        conserves money.  Sums are taken in ints at the lcm of the ledger's
        denominators, from the records while ``purchases`` is unread."""
        n = inst.n
        size = allocation.size()
        rows = self._in_ints(n)
        finals = [b.as_integer_ratio() for b in self.final_budgets.values()]
        denominators = {self.initial_budget.denominator, size.denominator}
        denominators.update(den for *_, den in rows)
        denominators.update(den for _, den in finals)
        unit = math.lcm(*denominators)
        scale = {d: unit // d for d in denominators}

        def units(v: Fraction) -> int:
            return v.numerator * scale[v.denominator]

        spent = sum(paid * scale[den] for paid, _, den in rows)
        if spent != units(size):
            raise InvariantError(
                f"payments {Fraction(spent, unit)} differ from the allocated size {size}"
            )
        for t, (paid, cost, _) in enumerate(rows):
            if paid != cost:
                p = self._at(t)
                raise InvariantError(f"payments for {p.item} differ from its cost {p.cost}")
        if self.final_budgets.keys() != set(range(n)):
            raise InvariantError(f"final budgets must name exactly the agents 0..{n - 1}")
        initial = units(self.initial_budget)
        final_units = [num * scale[den] for num, den in finals]
        for (i, b), u in zip(self.final_budgets.items(), final_units):
            if not 0 <= u <= initial:
                raise InvariantError(f"budget {i} out of range: {b}")
        if initial * n - sum(final_units) != spent:
            raise InvariantError("budgets spent differ from the payments")


def _purchase_in_ints(p: Purchase, n: int) -> tuple[int, int, int]:
    """``p`` as ``(paid, cost, den)`` over 1/den; InvariantError at its first
    payment that is not positive or not made by an agent."""
    sums: dict[int, int] = {}  # payment numerators, summed by denominator
    for i, v in p.payments.items():
        num, den = v.as_integer_ratio()
        if not 0 <= i < n:
            raise InvariantError(f"payer {i} of {p.item} is not an agent")
        if num <= 0:
            raise InvariantError(f"payment {v} by agent {i} for {p.item} is not positive")
        sums[den] = sums.get(den, 0) + num
    den = math.lcm(p.cost.denominator, *sums)
    paid = sum(num * (den // d) for d, num in sums.items())
    return paid, p.cost.numerator * (den // p.cost.denominator), den


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
    most = max(map(len, index.cells), default=0)
    # cake price by payer count, as a float and exactly
    inverse = [None, *((1 / p, Fraction(1, p)) for p in range(1, most + 1))]
    ledger = PaymentLedger(initial_budget=inst.alpha / inst.n)
    ledger._goods = inst.goods
    records = ledger._records
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
    last_float, last_rho = 0.0, _ZERO
    while heap:
        entry = heapq.heappop(heap)
        pops += 1
        now = key(entry[3])
        if now is None or now[0] != entry:
            stale += 1
            if now is not None:
                heapq.heappush(heap, now[0])
            continue
        (rho_float, rho, _, k), payers, price = now
        # rounding is monotone, so only equal floats need the exact prices
        if rho_float < last_float or rho_float == last_float and rho < last_rho:
            raise InvariantError(f"price {rho} fell below the previous {last_rho}")
        last_float, last_rho = rho_float, rho
        if price is not None:
            num, den = price
            share = num * rescale(den, num) // den
            paid = [min(budgets[i], share) for i in payers]
            for i, a in zip(payers, paid):
                budgets[i] -= a
            records.append((k, rho, unit, payers, paid, None, None))
        else:
            # no budget binds: rho = 1/p, cost <= p * min budget
            j, p = k - m, len(payers)
            end = min(hi[j], lo[j] + p * min(budgets[i] for i in payers))
            end *= rescale(p, end - lo[j])
            share = (end - lo[j]) // p
            for i in payers:
                budgets[i] -= share
            records.append((k, rho, unit, payers, share, lo[j], end))
            lo[j] = end
            # the rest of a partly bought cell is re-keyed only now, since
            # key reads the budgets just paid
            if end < hi[j] and (again := key(k)) is not None:
                heapq.heappush(heap, again[0])
        ledger.iterations += 1

    # each bought cell holds one piece from its left end; touching pieces merge
    f = unit // index.denominator
    cake: list[tuple[Fraction, Fraction]] = []
    for j, end in enumerate(lo):
        if end != index.points_d[j] * f:
            start, end = index.points[j], Fraction(end, unit)
            if cake and cake[-1][1] == start:
                cake[-1] = (cake[-1][0], end)
            else:
                cake.append((start, end))
    goods = frozenset(inst.goods[r[0]] for r in records if r[5] is None)
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
