"""Axiom checkers and proportionality-degree auditors.

The representation axioms quantify over all real thresholds t and all agent
groups.  Both quantifiers reduce to a finite exact test: the requirement is
monotone in t and the feasible t-sets are closed, so each group only needs
checking at its supremum threshold; and for a fixed common bundle B and
group size k, the hardest group consists of the k approvers of B with the
lowest utilities.  Enumerating (B, k) over the intersection closure of the
approval bundles is therefore exhaustive, and every reported witness
re-validates against the raw definition.

The closure comes from the instance index (``Instance.index``), whose rows
carry each bundle's size as ints at the index denominator D, and the
utilities from ``Instance.validate_allocation``, as ints at a unit that D
divides.  ``_scan`` widens that unit to the lcm with beta's denominator,
scaling the utilities with it.

A tier's threshold depends on the instance only, and the index alone
computes it (``InstanceIndex.thresholds``): the cohesive supremum
min(k*alpha/n, size) or the exact-witness size ``core.exact_size`` at
that cap, for each k, as ints at D.  The index keeps a tier table
(``InstanceIndex.tiers``), built once per mode on first use: each row
of positive size with its thresholds, rows ordered by top threshold,
highest first.  A call reads it at its own unit by multiplying by
scale = unit // D.  That is exact: ``exact_size`` is homogeneous in
(ell, cap, unit), since scaling all three by s scales the upper bound
ub by s and leaves floor(ub / unit) as it is, so the threshold at the
unit is the D-threshold times scale; the cohesive minimum scales the
same way.  Every tier reader goes through the table: ``_scan`` and
greedy in its order, while ``audit_degree`` and ``cohesive_profiles``
list tiers in closure order (``Bundle.key``), so the tier iterator
``_profile_tiers`` sorts the entries they read.  Closure rows themselves
carry no order, and ties in the table fall in build order; no report
depends on either.

Thresholds are nondecreasing in k in both modes (min(k*alpha/n, size)
and ``exact_size`` are monotone in the cap).  A member fails a tier when
its utility is at most the threshold minus an offset, so no tier of a row
is more violated than the row's top threshold minus its least-served
approver's utility, and the least utility of any agent bounds that
approver from below.  This is the early stop of the threshold algorithm
(Fagin, Lotem and Naor, PODS 2001): the scan visits rows by that sorted
upper bound and stops at the first row whose top threshold lies under
the floor, which is min(u) plus the offset before a failing tier is
found and min(u) plus the worst violation (threshold minus utility)
after.  The floor only rises, so every later row lies under it too; a
row exactly at the floor is still visited, since a tie on violation at
a smaller t wins.  For each row it visits, the scan sorts the approvers'
utility ints, and skips the row when the least of them cannot fail or,
once a failing tier is found, leaves every tier strictly less violated
than the worst so far.  Members are sorted by utility only for a row
with a tier that becomes a candidate witness.  The witness is the
minimum over all failing tiers ("smaller t, then smaller group" on
ties), so it does not depend on which rows are visited.  Comparisons
are on ints; ints at a common denominator are still exact rationals,
and witnesses are converted back to ``Fraction``.

The same bound decides which rows are built.  A row's top threshold is
at most len(row.approvers)*alpha/n, so ``_scan`` asks the index
(``InstanceIndex.tiers``) only for rows with at least
ceil((min(u) + offset)*n/alpha) approvers, the rest lying under the
first floor; ``audit_degree`` asks for ceil(t_min*n/alpha) and reads
only the table's prefix whose top reaches t_min.  Greedy,
``cohesive_profiles`` and ``approval_closure`` build every row.  A call
whose rows at its floor fit under the closure cap finishes where the
full closure would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Callable, Iterable, Iterator, Sequence

from .core import EMPTY_BUNDLE, Bundle, ClosureRow, Instance, as_rational, as_real, format_rational
from .errors import DomainError, UnsupportedInstanceError


@dataclass(frozen=True)
class CohesiveProfile:
    """One (common bundle, group size) tier of the cohesive-group lattice."""

    group: tuple[int, ...]
    t_cohesive_sup: Fraction
    t_exact_max: Fraction
    group_utilities: tuple[Fraction, ...]


@dataclass(frozen=True)
class Witness:
    group: tuple[int, ...]
    t: Fraction
    threshold: Fraction
    max_utility: Fraction

    def to_dict(self) -> dict:
        return {
            "group": list(self.group),
            "t": format_rational(self.t),
            "threshold": format_rational(self.threshold),
            "max_utility": format_rational(self.max_utility),
        }


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    passed: bool
    witness: Witness | None = None

    def to_dict(self) -> dict:
        data = {"axiom": self.axiom, "pass": self.passed}
        if self.witness is not None:
            data["witness"] = self.witness.to_dict()
        return data


_ONE = Fraction(1)


def _profile_tiers(
    inst: Instance,
    tiers: Iterable[tuple[ClosureRow, tuple[int, ...]]],
    u: Sequence[int],
) -> Iterator[tuple[tuple[ClosureRow, tuple[int, ...]], list[int]]]:
    """Yield (tier, approvers sorted by utility) for every tier-table entry
    (row, thresholds), in closure order: by ``Bundle.key`` of the row's
    bundle, which no two rows share.

    The sort is stable and ``row.approvers`` ascends by index, so agents
    come worst-utility-first with ties in index order; the k-th prefix is
    the hardest group of size k for that bundle.
    """
    for tier in sorted(tiers, key=lambda tier: inst.index.bundle(tier[0]).key(inst.good_index)):
        yield tier, sorted(tier[0].approvers, key=u.__getitem__)


def cohesive_profiles(inst: Instance, allocation: Bundle | None = None) -> list[CohesiveProfile]:
    """All deduplicated (common bundle, size) tiers with a positive threshold,
    ranked by the utilities of a valid ``allocation`` (none: all zero)."""
    index = inst.index
    unit, _, u = inst.validate_allocation(EMPTY_BUNDLE if allocation is None else allocation)
    D = index.denominator
    profiles = []
    # the cohesive table holds every closure row of positive size
    for (row, cohesive), members in _profile_tiers(inst, index.tiers(False), u):
        utils = [Fraction(u[i], unit) for i in members]  # ascending, as members are
        exact = index.thresholds(row, True)
        for k in range(1, len(members) + 1):
            profiles.append(
                CohesiveProfile(
                    group=tuple(sorted(members[:k])),
                    t_cohesive_sup=Fraction(cohesive[k - 1], D),
                    t_exact_max=Fraction(exact[k - 1], D),
                    group_utilities=tuple(utils[:k]),
                )
            )
    return profiles


def _scan(
    inst: Instance,
    allocation: Bundle,
    axiom: str,
    exact: bool,
    beta: Fraction = Fraction(0),
    strict: bool = False,
) -> AxiomReport:
    """Shared sup-threshold scan over (bundle, k) tiers.

    A tier's threshold t is the largest exact-witness size below the cap
    k*alpha/n (``exact``) or the cohesive supremum min(k*alpha/n, size);
    the tier holds when its best-off member gets more than (``strict``) or
    at least t - beta.  The reported witness is the most violated tier
    (ties: smaller t, then lexicographically smaller group).

    Rows come from ``tiers``, highest top threshold first.  The
    scan stops at the first row whose top lies under the floor min(u) -
    bar (the floor test), and skips a row whose least-served approver's
    gap lies above bar (the bar test), read from one sort of the row's
    utility ints; see the module docstring.  The index builds only the
    rows with enough approvers to reach the first floor.
    """
    unit, _, u = inst.validate_allocation(allocation)
    if unit % beta.denominator:  # widen the unit to the lcm with beta's denominator
        f = beta.denominator // math.gcd(unit, beta.denominator)
        unit, u = unit * f, [x * f for x in u]
    beta_units = beta.numerator * (unit // beta.denominator)
    # a member fails a tier when its utility is at most t - off
    off = beta_units + (0 if strict else 1)
    index = inst.index
    scale = unit // index.denominator
    # ((gap, t), group) of the worst failing tier; smallest wins
    worst: tuple | None = None
    # A tier's gap is its best-served member's utility minus its threshold;
    # ``bar`` is the worst gap found so far, or -off before any.
    bar = -off
    lowest = min(u)
    # a row with fewer approvers has top < lowest + off, under the floor test
    floor = max(1, -(-(lowest + off) // (index.share_d * scale)))
    for row, thresholds in index.tiers(exact, floor):
        top = thresholds[-1] * scale
        if top < lowest - bar:
            break
        utils = sorted(map(u.__getitem__, row.approvers))
        if utils[0] - top > bar:
            continue
        members = None
        for k, (v, t) in enumerate(zip(utils, thresholds), 1):
            t *= scale
            if t <= 0 or v > t - off:
                continue
            head = (v - t, t)
            if worst is not None and head > worst[0]:
                continue
            if members is None:
                members = sorted(row.approvers, key=u.__getitem__)
            candidate = (head, tuple(sorted(members[:k])))
            if worst is None or candidate < worst:
                worst = candidate
                bar = head[0]
    witness = None
    if worst is not None:
        (gap, t), group = worst
        witness = Witness(
            group=group,
            t=Fraction(t, unit),
            threshold=Fraction(t - beta_units, unit),
            max_utility=Fraction(gap + t, unit),
        )
    return AxiomReport(axiom=axiom, passed=witness is None, witness=witness)


def verify_ejr_m(inst: Instance, allocation: Bundle) -> AxiomReport:
    """Exact-witness representation: every group that is t-cohesive with a
    commonly approved sub-bundle of size exactly t must contain a member
    with utility at least t."""
    return _scan(inst, allocation, "ejr-m", exact=True)


def verify_ejr_beta(
    inst: Instance,
    allocation: Bundle,
    beta: Fraction,
    mode: str = "strict",
) -> AxiomReport:
    """Representation up to beta: some member of every t-cohesive group gets
    utility > t - beta ("strict") or >= t - beta ("weak")."""
    beta = as_rational("beta", beta)
    if beta < 0:
        raise DomainError("beta must be nonnegative")
    if mode not in ("strict", "weak"):
        raise DomainError(f"unknown mode {mode!r}")
    return _scan(
        inst,
        allocation,
        f"ejr-beta[{beta},{mode}]",
        exact=False,
        beta=beta,
        strict=mode == "strict",
    )


def verify_ejr_1(
    inst: Instance,
    allocation: Bundle,
    margin: float = 0.0,
) -> AxiomReport:
    """EJR up to one: utilities are exact rationals, so the strict compare
    is exact; ``margin`` relaxes the threshold for scores produced by
    approximate optimizers."""
    if not math.isfinite(as_real("margin", margin)):
        raise DomainError(f"margin must be finite, got {margin}")
    if margin < -1:
        raise DomainError(f"margin must be at least -1, got {margin}")
    beta = _ONE if margin == 0 else _ONE + Fraction(margin)
    return _scan(inst, allocation, "ejr-1", exact=False, beta=beta, strict=True)


def verify_cake_ejr(inst: Instance, allocation: Bundle) -> AxiomReport:
    """Cake-only representation; coincides with the exact-witness axiom on
    cake instances (any size up to the common piece is an exact witness)."""
    if inst.m > 0:
        raise UnsupportedInstanceError(
            "cake-EJR applies to instances without indivisible goods"
        )
    report = verify_ejr_m(inst, allocation)
    return AxiomReport(axiom="cake-ejr", passed=report.passed, witness=report.witness)


# ---------------------------------------------------------------------------
# Proportionality-degree audits


def degree_ejr_m(t: Fraction) -> Fraction:
    ft = math.floor(t)
    return Fraction(ft) * (1 - Fraction(ft + 1) / (2 * t))


def degree_ejr_1(t: Fraction) -> Fraction:
    return (t - 2 + 1 / Fraction(t)) / 2


def degree_gpav(t: Fraction) -> Fraction:
    return Fraction(t) - 1


def degree_mes_upper(t: Fraction) -> Fraction:
    return Fraction(math.ceil(t) + 1, 2)


DEGREE_BOUNDS: dict[str, Callable[[Fraction], Fraction]] = {
    "ejr-m": degree_ejr_m,
    "ejr-1": degree_ejr_1,
    "gpav": degree_gpav,
    "mes-upper": degree_mes_upper,
}


@dataclass(frozen=True)
class DegreeEntry:
    group: tuple[int, ...]
    t: Fraction
    average: Fraction
    bound: Fraction
    slack: Fraction


@dataclass(frozen=True)
class DegreeAuditReport:
    bound_name: str
    min_slack: Fraction | None
    witness: DegreeEntry | None
    entries: tuple[DegreeEntry, ...]

    def entry_for(self, group: tuple[int, ...]) -> DegreeEntry | None:
        for e in self.entries:
            if e.group == group:
                return e
        return None

    def to_dict(self) -> dict:
        data = {
            "bound": self.bound_name,
            "min_slack": None if self.min_slack is None else format_rational(self.min_slack),
            "entries": len(self.entries),
        }
        if self.witness is not None:
            data["witness"] = {
                "group": list(self.witness.group),
                "t": format_rational(self.witness.t),
                "average": format_rational(self.witness.average),
                "bound_value": format_rational(self.witness.bound),
            }
        return data


def audit_degree(
    inst: Instance,
    allocation: Bundle,
    bound: str | Callable[[Fraction], Fraction],
    t_min: Fraction = Fraction(1),
) -> DegreeAuditReport:
    """Minimum slack of group average satisfaction over the bound f(t).

    Scans every cohesive tier with threshold at least ``t_min``; the group
    minimizing average - f(t) is exact because, per bundle and size, the
    lowest-utility approvers minimize the average while only enlarging the
    common bundle.  Only rows with at least t_min*n/alpha approvers can
    hold such a tier, so only those are built, and only the rows of the
    cohesive tier table whose top threshold reaches ``t_min`` are read.
    """
    if isinstance(bound, str):
        if bound not in DEGREE_BOUNDS:
            raise DomainError(f"unknown degree bound {bound!r}")
        name, f = bound, DEGREE_BOUNDS[bound]
    else:
        name, f = getattr(bound, "__name__", "custom"), bound
    t_min = as_rational("t_min", t_min)
    unit, _, u = inst.validate_allocation(allocation)
    index = inst.index
    D = index.denominator
    bounds: dict[int, tuple[Fraction, Fraction] | None] = {}  # t numerator at D -> (t, f(t))
    entries: list[DegreeEntry] = []
    best: DegreeEntry | None = None
    # a row with fewer approvers has a top under t_min; so the rows that a
    # table kept from a lower floor holds under this one are never read
    floor = max(1, math.ceil(t_min * inst.n / inst.alpha))
    # the table's tops descend, so its rows reaching t_min form a prefix
    lo = t_min * D
    prefix = takewhile(lambda tier: tier[1][-1] >= lo, index.tiers(False, floor))
    for (_, thresholds), members in _profile_tiers(inst, prefix, u):
        running_sum = 0
        for k, (i, t) in enumerate(zip(members, thresholds), 1):
            running_sum += u[i]
            if t not in bounds:
                t_frac = Fraction(t, D)
                bounds[t] = None if t_frac < t_min else (t_frac, f(t_frac))
            if bounds[t] is None:
                continue
            t_frac, val = bounds[t]
            avg = Fraction(running_sum, unit * k)
            entry = DegreeEntry(
                group=tuple(sorted(members[:k])),
                t=t_frac,
                average=avg,
                bound=val,
                slack=avg - val,
            )
            entries.append(entry)
            if (
                best is None
                or entry.slack < best.slack
                or (entry.slack == best.slack and (entry.t, entry.group) < (best.t, best.group))
            ):
                best = entry
    return DegreeAuditReport(
        bound_name=name,
        min_slack=None if best is None else best.slack,
        witness=best,
        entries=tuple(entries),
    )
