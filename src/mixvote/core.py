"""Exact model of mixed-goods instances: rationals, interval sets, bundles, atoms.

All quantities (lengths, sizes, budgets, utilities) are exact rationals:
``fractions.Fraction`` values, or ints over one common denominator in the
instance index and the allocation pass; nothing in this module touches
floats.
Goods are identified by their names; their order in ``Instance.goods``
is the canonical order used for tie-breaking everywhere.

The path from instance JSON to the index stays on ints where it can:
``instance_from_dict`` parses each distinct endpoint string once (plain
``"p/q"`` digit strings by ``int``, ``parse_rational``); one int pass in
``Instance`` (``_cake_fault``) checks the pairs and keeps canonical ones,
as the serialization writes them, without sorting.  ``InstanceIndex``
keys endpoints by their ``(numerator, denominator)`` ints, so no
``Fraction`` is hashed; the index and ``instance_digest`` read each
distinct endpoint object once.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    CapacityError,
    DomainError,
    InvalidAllocationError,
    InvalidGroupError,
    MalformedIntervalError,
    MixvoteError,
)

Rational = Fraction


def parse_rational(text: str | int) -> Fraction:
    """Parse a rational from "p/q" (or a bare integer); DomainError otherwise.

    A string of ASCII digits, optionally followed by "/" and ASCII digits,
    is split and read by ``int``; anything else (signs, spaces, underscores,
    decimals such as "0.1") goes to ``Fraction``.  Floats and bools are
    rejected: a JSON ``0.1`` or ``true`` is not an exact rational, although
    ``Fraction`` would take both."""
    if isinstance(text, (float, bool)):
        raise DomainError(f"not a rational number: {text!r}")
    try:
        if type(text) is str:
            p, slash, q = text.partition("/")
            if p.isascii() and p.isdigit() and (not slash or (q.isascii() and q.isdigit())):
                return Fraction(int(p), int(q) if slash else 1)
        return Fraction(text)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"not a rational number: {text!r}") from exc


def as_rational(name: str, value: Fraction | int) -> Fraction:
    """``value`` as a Fraction; DomainError unless an int or a Fraction (not a bool)."""
    if type(value) is not Fraction and type(value) is not int:
        raise DomainError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def as_count(name: str, value: int) -> int:
    """``value``; DomainError unless an int (not a bool)."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an int, got {value!r}")
    return value


def as_real(name: str, value: float) -> float:
    """``value``; DomainError if a bool, which would pass for 0 or 1."""
    if type(value) is bool:
        raise DomainError(f"{name} must be a number, got {value!r}")
    return value


def format_rational(value: Fraction) -> str:
    """Serialize a rational as "p/q", omitting "/q" for integers."""
    return str(value if type(value) is Fraction else Fraction(value))


# ---------------------------------------------------------------------------
# Interval sets


@dataclass(frozen=True, order=True)
class IntervalSet:
    """Normalized finite union of disjoint closed subintervals of the cake.

    Invariants: pairs are sorted by lo, pairwise disjoint with
    ``previous.hi < next.lo``, and degenerate pairs (lo == hi) are dropped.
    Closed intervals sharing a single endpoint are merged, since single
    points carry no measure.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[Fraction, Fraction]] = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return normalize(list(self.intervals) + list(other.intervals))

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference up to measure zero (endpoints are not tracked)."""
        out: list[tuple[Fraction, Fraction]] = []
        for lo, hi in self.intervals:
            cur = lo
            for olo, ohi in other.intervals:
                if ohi <= cur:
                    continue
                if olo >= hi:
                    break
                if olo > cur:
                    out.append((cur, olo))
                cur = max(cur, ohi)
                if cur >= hi:
                    break
            if cur < hi:
                out.append((cur, hi))
        return normalize(out)

    def contains(self, other: "IntervalSet") -> bool:
        """True if ``other`` is covered by this set (up to measure zero)."""
        return other.subtract(self).is_empty

    def contains_point(self, x: Fraction) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def prefix(self, length: Fraction) -> "IntervalSet":
        """Leftmost sub-piece of the given total length."""
        remaining = as_rational("length", length)
        if remaining < 0:
            raise MalformedIntervalError("prefix length must be nonnegative")
        out: list[tuple[Fraction, Fraction]] = []
        for lo, hi in self.intervals:
            if remaining <= 0:
                break
            take = min(hi - lo, remaining)
            out.append((lo, lo + take))
            remaining -= take
        if remaining > 0:
            raise MalformedIntervalError("prefix length exceeds available measure")
        return normalize(out)

    def to_json(self) -> list[list[str]]:
        return [[format_rational(lo), format_rational(hi)] for lo, hi in self.intervals]

    @staticmethod
    def from_json(pairs: Iterable[Sequence[str]]) -> "IntervalSet":
        return normalize([(parse_rational(lo), parse_rational(hi)) for lo, hi in pairs])


def normalize(pairs: Iterable[tuple[Fraction, Fraction]]) -> IntervalSet:
    """Sort, merge and drop degenerate pairs; reject reversed pairs and non-rational endpoints.

    Pairs that ``_cake_fault`` finds canonical (``Fraction`` tuples with
    ``lo < hi``, each ``hi`` below the next ``lo``) are kept as they are."""
    pairs = tuple(pairs)
    if _cake_fault(pairs)[1]:
        return IntervalSet(pairs)
    cleaned: list[tuple[Fraction, Fraction]] = []
    for lo, hi in pairs:
        for x in (lo, hi):
            if type(x) is not Fraction and type(x) is not int:
                raise MalformedIntervalError(f"interval with a non-rational endpoint {x!r}")
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise MalformedIntervalError(f"reversed interval [{lo}, {hi}]")
        if lo < hi:
            cleaned.append((lo, hi))
    cleaned.sort()
    merged: list[tuple[Fraction, Fraction]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return IntervalSet(tuple(merged))


def measure(s: IntervalSet) -> Fraction:
    return s.measure()


def intersect(s: IntervalSet, t: IntervalSet) -> IntervalSet:
    return s.intersect(t)


EMPTY_CAKE = IntervalSet()


# ---------------------------------------------------------------------------
# Bundles and instances


@dataclass(frozen=True)
class Bundle:
    """A piece of cake together with a set of indivisible goods."""

    cake: IntervalSet = EMPTY_CAKE
    goods: frozenset[str] = frozenset()

    @property
    def is_empty(self) -> bool:
        return self.cake.is_empty and not self.goods

    def size(self) -> Fraction:
        return self.cake.measure() + len(self.goods)

    def intersect(self, other: "Bundle") -> "Bundle":
        return Bundle(self.cake.intersect(other.cake), self.goods & other.goods)

    def union(self, other: "Bundle") -> "Bundle":
        return Bundle(self.cake.union(other.cake), self.goods | other.goods)

    def contains(self, other: "Bundle") -> bool:
        return other.goods <= self.goods and self.cake.contains(other.cake)

    def key(self, good_order: dict[str, int] | None = None) -> tuple:
        """Canonical sort key: goods by instance order, then cake intervals."""
        if good_order is None:
            goods = tuple(sorted(self.goods))
        else:
            goods = tuple(sorted(self.goods, key=good_order.__getitem__))
        return (goods, self.cake.intervals)


EMPTY_BUNDLE = Bundle()


def _cake_fault(
    pairs: Sequence, c: Fraction | None = None, c_text: object = None
) -> tuple[str | None, bool]:
    """Why the pairs do not measure a subset of [0, c] (of the line if c is
    None), or None; and whether ``normalize`` keeps them as they are.
    ``c_text`` stands for c in the message.

    One pass rejects an endpoint that is not an ``int`` or a ``Fraction``,
    then, on cross-multiplied ints, a reversed pair (lo > hi) or one that
    starts before the previous pair ends, then a first lo below 0 or a last
    hi above c.  Touching or degenerate (lo == hi) pairs, int endpoints and
    non-tuple pairs measure correctly: they are accepted, not canonical."""
    canonical = True
    pn, pd = -1, 0  # the previous hi, starting below every lo
    for pair in pairs:
        lo, hi = pair
        if type(lo) is not Fraction or type(hi) is not Fraction or type(pair) is not tuple:
            for x in pair:
                if type(x) is not Fraction and type(x) is not int:
                    return f"with a non-rational endpoint {x!r}", False
            canonical = False
        (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
        if ln * pd <= pn * ld or ln * hd >= hn * ld:
            if ln * pd < pn * ld:
                start = Fraction(pn, pd)
                return f"with overlapping pairs: [{lo}, {hi}] starts before {start}", False
            if ln * hd > hn * ld:
                return f"with a reversed pair [{lo}, {hi}]", False
            canonical = False
        pn, pd = hn, hd
    if c is not None and pairs:
        cn, cd = c.as_integer_ratio()
        if pairs[0][0].numerator < 0 or pn * cd > cn * pd:
            return f"outside [0, {c_text}]", False
    return None, canonical


@dataclass(frozen=True)
class Instance:
    """A mixed-goods instance: cake [0, c], goods, approval bundles, and alpha."""

    cake_length: Fraction
    goods: tuple[str, ...]
    agents: tuple[Bundle, ...]
    alpha: Fraction

    def __post_init__(self):
        for field in ("cake_length", "alpha"):
            object.__setattr__(self, field, as_rational(field, getattr(self, field)))
        object.__setattr__(self, "goods", tuple(self.goods))
        agents = list(self.agents)
        c, m = self.cake_length, len(self.goods)
        if c < 0:
            raise MalformedIntervalError("cake length must be nonnegative")
        if max(c, m) <= 0:
            raise InvalidAllocationError("instance must contain cake or goods")
        for k, g in enumerate(self.goods):
            if not isinstance(g, str):
                raise DomainError(f"good {k} must be named by a string, got {g!r}")
        if len(set(self.goods)) != m:
            raise InvalidAllocationError("duplicate good names")
        if not agents:
            raise InvalidGroupError("instance needs at least one agent")
        if not (0 < self.alpha <= c + m):
            raise InvalidAllocationError(
                f"alpha must lie in (0, c + m] = (0, {c + m}], got {self.alpha}"
            )
        good_index = {g: k for k, g in enumerate(self.goods)}
        for i, bundle in enumerate(agents):
            try:
                known = bundle.goods <= good_index.keys()
            except TypeError:  # a list or a string, say
                raise DomainError(f"agent {i}'s goods must be a set, got {bundle.goods!r}") from None
            if not known:
                raise InvalidAllocationError(f"agent {i} approves unknown goods")
            fault, canonical = _cake_fault(bundle.cake.intervals, c, c)
            if fault is not None:
                raise MalformedIntervalError(f"agent {i} approves cake {fault}")
            if not canonical:
                # keep approvals canonical: merge touching or degenerate pairs
                agents[i] = Bundle(normalize(bundle.cake.intervals), bundle.goods)
        object.__setattr__(self, "agents", tuple(agents))
        object.__setattr__(self, "good_index", good_index)
        object.__setattr__(self, "_index", None)
        # (bundle, pass) of the last valid allocation
        object.__setattr__(self, "_last_allocation", None)

    @property
    def index(self) -> "InstanceIndex":
        """The instance's integer index, built on first use and kept here."""
        if self._index is None:
            object.__setattr__(self, "_index", InstanceIndex(self))
        return self._index

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.goods)

    def full_cake(self) -> IntervalSet:
        if self.cake_length == 0:
            return EMPTY_CAKE
        return IntervalSet(((Fraction(0), self.cake_length),))

    def sorted_goods(self, goods: Iterable[str]) -> list[str]:
        return sorted(goods, key=self.good_index.__getitem__)

    def validate_allocation(self, bundle: Bundle) -> tuple[int, int, tuple[int, ...]]:
        """Raise InvalidAllocationError unless the bundle holds only the
        instance's goods, its cake pairs are rational, ordered and in
        [0, c], and its size is at most alpha; return its pass
        ``allocation_units(self, bundle)``.

        The last valid result is kept with a strong reference to its bundle
        and returned again for the same bundle object (``is``).  Only
        bundles whose pairs sit in tuples and whose goods are a frozenset
        are kept, since nothing can change those between calls; a failed
        validation is never kept."""
        last = self._last_allocation
        if last is not None and last[0] is bundle:
            return last[1]
        try:
            known = bundle.goods <= self.good_index.keys()
        except TypeError:  # a list or a string, say
            raise InvalidAllocationError(f"allocation goods must be a set, got {bundle.goods!r}") from None
        if not known:
            raise InvalidAllocationError("allocation contains unknown goods")
        fault, _ = _cake_fault(bundle.cake.intervals, self.cake_length, "c")
        if fault is not None:
            raise InvalidAllocationError(f"allocation cake {fault}")
        result = allocation_units(self, bundle)
        unit, size, _ = result
        if size * self.alpha.denominator > self.alpha.numerator * unit:
            raise InvalidAllocationError(
                f"allocation size {Fraction(size, unit)} exceeds alpha {self.alpha}"
            )
        intervals = bundle.cake.intervals
        if (
            type(bundle.goods) is frozenset
            and type(intervals) is tuple
            and all(type(pair) is tuple for pair in intervals)
        ):
            object.__setattr__(self, "_last_allocation", (bundle, result))
        return result


def bundle_size(b: Bundle) -> Fraction:
    return b.size()


def utility(inst: Instance, agent: int, allocation: Bundle) -> Fraction:
    """Size of the overlap between the agent's approval and the allocation."""
    if not 0 <= agent < inst.n:
        raise InvalidGroupError(f"agent index {agent} out of range")
    return inst.agents[agent].intersect(allocation).size()


def utilities(inst: Instance, allocation: Bundle) -> list[Fraction]:
    """Every agent's utility, read from ``allocation_units`` (goods the
    instance lacks and cake outside [0, c] count for nobody)."""
    unit, _, utils = allocation_units(inst, allocation)
    return [Fraction(u, unit) for u in utils]


def common_bundle(inst: Instance, group: Iterable[int]) -> Bundle:
    """Componentwise intersection of the group's approval bundles."""
    members = sorted(set(group))
    if not members:
        raise InvalidGroupError("group must be nonempty")
    if members[0] < 0 or members[-1] >= inst.n:
        raise InvalidGroupError("agent index out of range")
    acc = inst.agents[members[0]]
    for i in members[1:]:
        acc = acc.intersect(inst.agents[i])
    return acc


# ---------------------------------------------------------------------------
# Atoms and the instance index


@dataclass(frozen=True)
class Atom:
    """A unit the MES/PAV machinery can price: a good, or a cake interval
    that every agent approves entirely or not at all."""

    approvers: frozenset[int]
    good: str | None = None
    interval: tuple[Fraction, Fraction] | None = None

    @property
    def is_good(self) -> bool:
        return self.good is not None

    def size(self) -> Fraction:
        if self.is_good:
            return Fraction(1)
        lo, hi = self.interval
        return hi - lo


DEFAULT_CLOSURE_CAP = 1 << 17


def achievable_exact_size(m_star: int, ell_star: Fraction, cap: Fraction) -> Fraction:
    """Largest exact-witness size from a bundle with ``m_star`` goods and
    cake length ``ell_star``, subject to ``t <= cap``.

    The achievable sizes form the union of [j, j + ell_star] over integer
    j = 0..m_star; the maximum at or below the cap is closed-form
    (``exact_size``).  Returns 0 when no positive size is achievable.
    """
    m_star = as_count("m_star", m_star)
    ell_star, cap = as_rational("ell_star", ell_star), as_rational("cap", cap)
    if m_star < 0 or ell_star < 0:
        raise DomainError("m_star and ell_star must be nonnegative")
    unit = math.lcm(ell_star.denominator, cap.denominator)
    t = exact_size(m_star, int(ell_star * unit), int(cap * unit), unit)
    return Fraction(t, unit)


def exact_size(m_star: int, ell: int, cap: int, unit: int) -> int:
    """``achievable_exact_size`` on ints: ``ell`` and ``cap`` (and the
    result) are numerators over the denominator ``unit``.  The largest
    achievable size at or below the cap is the smaller of the upper bound
    ub = min(cap, m_star + ell) and j + ell, for j = min(m_star, floor(ub)).

    It is homogeneous: scaling ``ell``, ``cap`` and ``unit`` by a positive
    int s scales ub by s, leaves floor(ub / unit) = (s*ub) // (s*unit) as it is,
    and so scales the result by s."""
    ub = min(cap, m_star * unit + ell)
    if ub <= 0:
        return 0
    return min(ub, min(m_star, ub // unit) * unit + ell)


class ClosureRow(NamedTuple):
    """One bundle of the approval closure, in the index's integers.

    ``mask`` holds the bundle's atoms and ``agents`` its approvers as
    bitmasks; ``ell_d`` and ``size_d`` are its cake length and size times
    the index denominator.
    """

    mask: int
    agents: int
    approvers: tuple[int, ...]
    m_star: int
    ell_d: int
    size_d: int


def _bits(mask: int) -> list[int]:
    """Positions of the set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _runs(mask: int) -> list[tuple[int, int]]:
    """Maximal runs [a, b) of consecutive set bits, lowest first."""
    out: list[tuple[int, int]] = []
    for j in _bits(mask):
        if out and out[-1][1] == j:
            out[-1] = (out[-1][0], j + 1)
        else:
            out.append((j, j + 1))
    return out


def _endpoint_objects(inst: Instance) -> dict[int, Fraction]:
    """The distinct approval endpoint objects, keyed by ``id``; a parsed
    instance shares one object per distinct string.  The instance holds
    every object, so no key names another object while it lives."""
    return {id(p): p for b in inst.agents for pair in b.cake.intervals for p in pair}


class InstanceIndex:
    """Integer view of one instance, built once per ``Instance``.

    Atoms are the goods in instance order (bits ``0..m-1``) followed by the
    cake cells between consecutive breakpoints (bit ``m + j`` for the cell
    ``[points[j], points[j+1]]``); every approval is a union of atoms, so
    each agent's approval is an int bitmask and a common bundle is the AND
    of its members' masks.  Reading an approval pair ``[points[a],
    points[b]]`` also adds the agent to the cells it covers, ``a..b-1``,
    so ``cells[j]`` holds cell j's approvers.  Lengths are kept as ints at
    one common denominator ``D``, the lcm of the denominators of ``c``, of
    every breakpoint and of ``alpha/n``; an int at a common denominator is
    still an exact rational.  One full-pool approval closure is kept with
    the support floor it was built at (its rows with at least that many
    approvers, ``closure()``), together with each mode's tier table built
    from it and ordered by top threshold (``tiers``); a request at a lower
    floor rebuilds the closure and drops the tables, and a build that
    fails leaves what was kept.  Every tier threshold comes from
    ``thresholds``.

    The build keys each distinct endpoint object (``_endpoint_objects``)
    by value once, and looks every approval end up by its ``id``.  Equal
    but distinct objects share one value key, so they give the same index;
    the ``id``-keyed dicts are local to the build.
    """

    def __init__(self, inst: Instance):
        # endpoints keyed by their (numerator, denominator) ints: hashing
        # a Fraction costs a modular inverse, hashing two ints does not
        endpoints = {(0, 1): Fraction(0)}
        c = inst.cake_length
        endpoints.setdefault((c.numerator, c.denominator), c)
        value_of = {}
        for key, p in _endpoint_objects(inst).items():
            value_of[key] = value = p.numerator, p.denominator
            endpoints.setdefault(value, p)
        share = inst.alpha / inst.n
        D = math.lcm(share.denominator, *(d for _, d in endpoints))
        at_d = sorted((num * (D // d), (num, d)) for num, d in endpoints)
        where = {value: j for j, (_, value) in enumerate(at_d)}
        position = {key: where[value] for key, value in value_of.items()}
        points = [endpoints[value] for _, value in at_d]
        self.goods = inst.goods
        self.points = points
        self.denominator = D
        self.share_d = share.numerator * (D // share.denominator)
        self.points_d = [p_d for p_d, _ in at_d]
        m = inst.m
        good_approvers: list[list[int]] = [[] for _ in range(m)]
        cells: list[list[int]] = [[] for _ in points[1:]]
        masks = []
        for i, bundle in enumerate(inst.agents):
            mask = 0
            for g in bundle.goods:
                k = inst.good_index[g]
                good_approvers[k].append(i)
                mask |= 1 << k
            for lo, hi in bundle.cake.intervals:
                a, b = position[id(lo)], position[id(hi)]
                for j in range(a, b):
                    cells[j].append(i)
                mask |= ((1 << b) - (1 << a)) << m
            masks.append(mask)
        self.masks = masks
        self.good_approvers = [frozenset(a) for a in good_approvers]
        self.cells = [frozenset(a) for a in cells]
        self._closure: list[ClosureRow] | None = None
        self._floor: float = math.inf  # the kept closure's support floor; none kept yet
        # per mode, the tier table built from the kept closure
        self._tiers: dict[bool, list] = {}

    def closure(self, pool: Iterable[int] | None = None, floor: int = 1) -> list[ClosureRow]:
        """Closure rows of ``pool`` with at least ``floor`` approvers, in
        ``Bundle.key`` order.  Raises InvalidGroupError for a pool agent
        outside ``0..n-1``, and CapacityError when those rows number more
        than ``max(DEFAULT_CLOSURE_CAP, distinct approvals in the pool)``.

        The full pool (the default) gives the kept closure, which may hold
        rows under ``floor`` too: it is first rebuilt at ``floor``, and the
        tier tables dropped, if it was built at a higher floor or not yet;
        a build that fails leaves what was kept."""
        if pool is not None:
            pool = set(pool)
            if not pool.issubset(range(len(self.masks))):
                raise InvalidGroupError("agent index out of range")
            return self._build(pool, floor)
        if floor < self._floor:
            rows = self._build(range(len(self.masks)), floor)
            self._closure, self._floor, self._tiers = rows, floor, {}
        return self._closure

    def thresholds(self, row: ClosureRow, exact: bool) -> tuple[int, ...]:
        """The thresholds at D of the tiers (row, k), k = 1..len(row.approvers).

        A tier's cap is k*alpha/n.  Its cohesive threshold is min(cap,
        size); its exact threshold (``exact``) is ``exact_size`` of the
        row's goods count and cake length at that cap.  Both depend on the
        instance only, and both are nondecreasing in k, so the last one, the
        row's top threshold, bounds all of them; it is at most
        len(row.approvers)*alpha/n."""
        share, n = self.share_d, len(row.approvers)
        if exact:
            D = self.denominator
            return tuple(exact_size(row.m_star, row.ell_d, k * share, D) for k in range(1, n + 1))
        # k*share up to the size, then the size
        full = min(row.size_d // share, n)
        return (*range(share, full * share + 1, share), *(row.size_d,) * (n - full))

    def tiers(self, exact: bool, floor: int = 1) -> list[tuple[ClosureRow, tuple[int, ...]]]:
        """The tier table of one mode: ``(row, self.thresholds(row, exact))``
        for every full-pool closure row of positive size with at least
        ``floor`` approvers (the kept table may hold more), ordered by top
        threshold ``thresholds[-1]``, highest first, ties in closure order
        (a stable sort).  Each mode is built from ``closure(floor=floor)``
        on first request and kept until the closure is rebuilt; a failed
        closure build keeps no table.
        """
        table = self._tiers.get(exact)
        if table is None or floor < self._floor:
            rows = self.closure(floor=floor)
            table = [(row, self.thresholds(row, exact)) for row in rows if row.size_d > 0]
            table.sort(key=lambda tier: tier[1][-1], reverse=True)
            self._tiers[exact] = table
        return table

    def _build(self, pool: Iterable[int], floor: int = 1) -> list[ClosureRow]:
        """The pool's closure rows with at least ``floor`` approvers, by
        Close-by-One (Kuznetsov, 1993) on the context pool agents x atoms.
        A row is a concept: its ``agents`` (the extent) are the pool agents
        whose approval holds its ``mask`` (the intent), which is the AND of
        their approvals.  From the whole pool's concept down, a concept
        reached at atom y yields, for each atom j >= y that the intent
        lacks and some member approves, the extent ``extent & cols[j]``,
        kept only if its intent adds no atom below j (the canonicity
        test), so each concept is produced once.  Extents only shrink on
        the way down, so one under ``floor`` agents is cut with all below
        it (an iceberg lattice: Stumme et al., 2002), and CapacityError is
        raised exactly when the rows at the floor exceed the cap
        (``DEFAULT_CLOSURE_CAP``, or the pool's distinct approvals if more)."""
        masks = self.masks
        cols = [0] * (len(self.goods) + len(self.cells))  # atom -> its approvers in the pool
        top = join = 0
        meet = -1
        for i in pool:
            a, bit = masks[i], 1 << i
            top |= bit
            meet &= a
            join |= a
            while a:
                low = a & -a
                cols[low.bit_length() - 1] |= bit
                a ^= low
        cap = max(DEFAULT_CLOSURE_CAP, len({masks[i] for i in pool}))
        found: list[tuple[int, int]] = []  # (intent, extent)
        # (extent, intent, atoms its extent approves, first atom to add)
        stack = [(top, meet, join, 0)] if top.bit_count() >= floor else []
        while stack:
            extent, intent, join, y = stack.pop()
            found.append((intent, extent))
            if len(found) > cap:
                raise CapacityError(f"approval closure exceeds {DEFAULT_CLOSURE_CAP} bundles")
            free = (join & ~intent) >> y << y
            while free:
                bit = free & -free
                free ^= bit
                sub = extent & cols[bit.bit_length() - 1]
                if sub.bit_count() < floor:
                    continue
                meet, join, rest = -1, 0, sub
                while rest:
                    low = rest & -rest
                    a = masks[low.bit_length() - 1]
                    meet &= a
                    join |= a
                    rest ^= low
                if (meet ^ intent) & (bit - 1) == 0:
                    stack.append((sub, meet, join, bit.bit_length()))
        m, D, pts, names = len(self.goods), self.denominator, self.points_d, self.goods
        goods_mask = (1 << m) - 1
        keyed = []
        for mask, agents in found:
            # most rows are small: no calls for an empty part, list comprehensions
            goods = tuple([names[k] for k in _bits(mask & goods_mask)]) if mask & goods_mask else ()
            runs = tuple(_runs(mask >> m)) if mask >> m else ()
            m_star, ell_d = len(goods), sum([pts[b] - pts[a] for a, b in runs]) if runs else 0
            row = ClosureRow(mask, agents, tuple(_bits(agents)), m_star, ell_d, m_star * D + ell_d)
            keyed.append(((goods, runs), row))
        keyed.sort()
        return [row for _, row in keyed]

    def bundle(self, row: ClosureRow) -> Bundle:
        m = len(self.goods)
        goods = frozenset(self.goods[k] for k in _bits(row.mask & ((1 << m) - 1)))
        cake = tuple((self.points[a], self.points[b]) for a, b in _runs(row.mask >> m))
        return Bundle(IntervalSet(cake), goods)


def allocation_units(inst: Instance, bundle: Bundle) -> tuple[int, int, tuple[int, ...]]:
    """One integer pass over a raw bundle: ``(unit, size, utils)``.

    ``unit`` is the lcm of the index denominator and the denominators of
    the bundle's cake endpoints; ``size`` (the bundle's size) and
    ``utils[i]`` (agent i's utility) are numerators over it.  Each cake
    piece adds its overlap with an index cell to that cell's approvers,
    and each good adds ``unit`` to its approvers; goods the instance lacks
    and cake outside [0, c] count toward the size only.
    """
    index = inst.index
    intervals = bundle.cake.intervals
    unit = math.lcm(index.denominator, *(p.denominator for iv in intervals for p in iv))
    utils = [0] * inst.n
    size = len(bundle.goods) * unit
    for g in bundle.goods:
        k = inst.good_index.get(g)
        if k is not None:
            for i in index.good_approvers[k]:
                utils[i] += unit
    scale = unit // index.denominator
    points = index.points_d if scale == 1 else [p * scale for p in index.points_d]
    cells = index.cells
    for lo, hi in intervals:
        lo = lo.numerator * (unit // lo.denominator)
        hi = hi.numerator * (unit // hi.denominator)
        size += hi - lo
        # cells j with points[j] < hi and points[j + 1] > lo, inside [0, c]
        first = max(bisect_right(points, lo) - 1, 0)
        for j in range(first, min(bisect_left(points, hi), len(cells))):
            piece = min(points[j + 1], hi) - max(points[j], lo)
            for i in cells[j]:
                utils[i] += piece
    return unit, size, tuple(utils)


def approval_closure(
    inst: Instance, agents: frozenset[int] | None = None
) -> list[tuple[Bundle, frozenset[int]]]:
    """All distinct common bundles of nonempty agent groups, with approver sets.

    The returned list contains, for every nonempty X within ``agents``, the
    bundle intersection of X's approvals, deduplicated, each paired with the
    full set of agents in ``agents`` whose approval contains it, in
    ``Bundle.key`` order.  Raises InvalidGroupError if ``agents`` names an
    agent outside ``0..n-1``, and CapacityError if the closure has more
    than ``max(DEFAULT_CLOSURE_CAP, distinct approvals)`` bundles.  The
    bundles are read from the instance index (``InstanceIndex.closure``),
    which builds the closure by Close-by-One over the approval bitmasks,
    carrying each bundle's approvers; each call returns a fresh list.
    """
    index = inst.index
    return [(index.bundle(row), frozenset(row.approvers)) for row in index.closure(agents)]


def atomize(
    inst: Instance,
    remaining_cake: IntervalSet,
    remaining_goods: Iterable[str],
) -> list[Atom]:
    """Split the remaining resource into all-or-nothing units.

    Cake atoms partition ``remaining_cake`` at the agents' approval
    endpoints; good atoms carry their approver sets. Goods come first
    (in instance order), then cake atoms from left to right.  A cake atom
    takes its approvers from the index cell that encloses it (none outside
    the cake).
    """
    index = inst.index
    atoms = [
        Atom(approvers=index.good_approvers[inst.good_index[g]], good=g)
        for g in inst.sorted_goods(remaining_goods)
    ]
    points, cells = index.points, index.cells
    for lo, hi in remaining_cake.intervals:
        first, last = bisect_right(points, lo), bisect_left(points, hi)
        cuts = [lo, *points[first:last], hi]
        for j, (a, b) in enumerate(zip(cuts, cuts[1:]), first - 1):
            approvers = cells[j] if 0 <= j < len(cells) else frozenset()
            atoms.append(Atom(approvers=approvers, interval=(a, b)))
    return atoms


# ---------------------------------------------------------------------------
# Serialization


def instance_to_dict(inst: Instance) -> dict:
    return {
        "cake_length": format_rational(inst.cake_length),
        "goods": list(inst.goods),
        "alpha": format_rational(inst.alpha),
        "agents": [
            {
                "goods": inst.sorted_goods(b.goods),
                "cake": b.cake.to_json(),
            }
            for b in inst.agents
        ],
    }


def _goods_list(data: dict, default=None) -> list:
    goods = data.get("goods", default)
    if not isinstance(goods, list):
        raise DomainError(f"goods must be a list of names, got {goods!r}")
    return goods


def instance_from_dict(data: dict) -> Instance:
    # endpoints repeat across agents: parse each distinct string once
    parsed: dict[str, Fraction] = {}

    def rational(text) -> Fraction:
        if type(text) is not str:
            return parse_rational(text)
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_rational(text)
        return value

    agents = tuple(
        Bundle(
            IntervalSet(tuple([(rational(lo), rational(hi)) for lo, hi in entry.get("cake", [])])),
            frozenset(_goods_list(entry, [])),
        )
        for entry in data["agents"]
    )
    c = rational(data["cake_length"])
    goods = tuple(_goods_list(data))
    alpha = rational(data["alpha"])
    try:
        return Instance(c, goods, agents, alpha)
    except MixvoteError:
        pass
    # normalize every approval: sort and merge, and report a reversed pair before other faults
    agents = tuple(Bundle(normalize(b.cake.intervals), b.goods) for b in agents)
    return Instance(c, goods, agents, alpha)


def allocation_to_dict(inst: Instance, bundle: Bundle) -> dict:
    return {
        "goods": inst.sorted_goods(bundle.goods),
        "cake": bundle.cake.to_json(),
        "size": format_rational(bundle.size()),
    }


def allocation_from_dict(data: dict) -> Bundle:
    return Bundle(
        cake=IntervalSet.from_json(data.get("cake", [])),
        goods=frozenset(_goods_list(data, [])),
    )


def save_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def instance_digest(inst: Instance) -> str:
    """sha256 of the canonical serialization
    ``json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))``;
    stable under key reordering.

    The blob is written directly in that layout, without the dict: keys in
    sorted order, names through ``json``'s own ASCII encoder (good names
    are strings, ``Instance`` checks that), each agent's goods in instance
    order, and each distinct endpoint object (``_endpoint_objects``)
    formatted once.
    """
    names = [json.encoder.encode_basestring_ascii(g) for g in inst.goods]
    text = {key: f'"{format_rational(p)}"' for key, p in _endpoint_objects(inst).items()}
    order = inst.good_index.__getitem__
    agents = []
    for b in inst.agents:
        cake = ",".join(f"[{text[id(lo)]},{text[id(hi)]}]" for lo, hi in b.cake.intervals)
        goods = ",".join([names[k] for k in sorted(map(order, b.goods))])
        agents.append(f'{{"cake":[{cake}],"goods":[{goods}]}}')
    blob = "".join((
        '{"agents":[', ",".join(agents),
        '],"alpha":"', format_rational(inst.alpha),
        '","cake_length":"', format_rational(inst.cake_length),
        '","goods":[', ",".join(names), "]}",
    ))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
