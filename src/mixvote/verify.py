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
carry each bundle's goods count, cake length and size as ints at the
index denominator D.  One integer pass over the allocation
(``core.allocation_units``, run by ``Instance.validate_allocation``)
gives its validity, size and every agent's utility on a common
denominator: the lcm of D, the allocation's cake endpoints and beta.

The instance keeps the last valid pass, keyed by the bundle object and
the extra denominators, so ``verify_ejr_1`` after ``verify_ejr_m`` on the
same bundle (both at beta denominator 1) reuses it.  An identity key is
sound: the kept entry holds a strong reference to the bundle, so its
``id`` cannot be reused while the entry stands, and only bundles whose
pairs sit in tuples and whose goods are a frozenset are kept, so nothing
can change what the pass read.  The utilities are kept as a tuple, and a
failed validation is never kept.

``verify_ejr_1`` scans directly, as the strict relaxation at
beta = 1 + margin: at margin 0 it takes one module-level ``Fraction(1)``
instead of building one per call, and it skips ``verify_ejr_beta``'s
conversion, sign check and label, which its own margin checks already
cover.

A tier's threshold depends on the instance only, so the index keeps a
tier table (``InstanceIndex.tiers``), built once per mode on first use:
the cohesive supremum min(k*alpha/n, size) or the exact-witness size
``exact_size`` at that cap, for each row of positive size and each k, as
ints at D.  A call reads it at its own unit by multiplying by
scale = unit // D.  That is exact: ``exact_size`` is homogeneous in
(ell, cap, unit), since scaling all three by s scales the upper bound
ub by s and leaves floor(ub / unit) as it is, so the threshold at the
unit is the D-threshold times scale; the cohesive minimum scales the
same way.  Every reader (``_scan``, ``audit_degree``,
``cohesive_profiles``) goes through the one tier iterator
``_profile_tiers``.

Thresholds are nondecreasing in k in both modes (min(k*share, size) and
``exact_size`` are monotone in the cap).  A member fails a tier when its
utility is at most the threshold minus an offset, so when a row's
least-served approver has utility above the row's top threshold minus
that offset, every member of every tier of that row clears its
threshold, and the scan skips the row without sorting its approvers.
Comparisons are on ints; ints at a common denominator are still exact
rationals, and witnesses are converted back to ``Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

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
    table: list[tuple[ClosureRow, tuple[int, ...]]],
    u: Sequence[int],
    scale: int = 1,
    off: int | None = None,
) -> Iterator[tuple[tuple[ClosureRow, tuple[int, ...]], list[int]]]:
    """Yield ((row, thresholds), approvers sorted by utility) for every
    entry of a tier table (``InstanceIndex.tiers``).

    The sort is stable and ``row.approvers`` ascends by index, so agents
    come worst-utility-first with ties in index order; the k-th prefix is
    the hardest group of size k for that bundle, and its threshold at the
    utilities' unit is ``thresholds[k - 1] * scale``.  With ``off``, a row
    is skipped unsorted when its least-served approver has utility above
    its top threshold minus ``off``: thresholds are nondecreasing in k, so
    then no member of any of its tiers is at or below that tier's
    threshold minus ``off``.
    """
    for tier in table:
        row, thresholds = tier
        if off is not None:
            least = min(map(u.__getitem__, row.approvers))
            if least > thresholds[-1] * scale - off:
                continue
        yield tier, sorted(row.approvers, key=u.__getitem__)


def cohesive_profiles(inst: Instance, allocation: Bundle | None = None) -> list[CohesiveProfile]:
    """All deduplicated (common bundle, size) tiers with a positive threshold,
    ranked by the utilities of a valid ``allocation`` (none: all zero)."""
    index = inst.index
    unit, _, u = inst.validate_allocation(EMPTY_BUNDLE if allocation is None else allocation)
    D = index.denominator
    cohesive = index.tiers(exact=False)
    exact = index.tiers(exact=True)
    profiles = []
    # both tables hold the same rows in the same order
    for ((_, caps), members), (_, sizes) in zip(_profile_tiers(cohesive, u), exact):
        utils = [Fraction(u[i], unit) for i in members]  # ascending, as members are
        for k in range(1, len(members) + 1):
            profiles.append(
                CohesiveProfile(
                    group=tuple(sorted(members[:k])),
                    t_cohesive_sup=Fraction(caps[k - 1], D),
                    t_exact_max=Fraction(sizes[k - 1], D),
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
    """
    unit, _, u = inst.validate_allocation(allocation, beta.denominator)
    index = inst.index
    # a member fails a tier when its utility is at most t - off
    off = beta.numerator * (unit // beta.denominator) + (0 if strict else 1)
    scale = unit // index.denominator
    # ((-violation, t), group, agent with the group's max utility); smallest wins
    worst: tuple | None = None
    table = index.tiers(exact)
    for (_, thresholds), members in _profile_tiers(table, u, scale, off):
        for k, (i, t) in enumerate(zip(members, thresholds), 1):
            t *= scale
            if t <= 0 or u[i] > t - off:
                continue
            head = (u[i] - t, t)
            if worst is not None and head > worst[0]:
                continue
            candidate = (head, tuple(sorted(members[:k])), i)
            if worst is None or candidate < worst:
                worst = candidate
    witness = None
    if worst is not None:
        (_, t), group, i = worst
        t = Fraction(t, unit)
        witness = Witness(group=group, t=t, threshold=t - beta, max_utility=Fraction(u[i], unit))
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
    common bundle.
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
    table = index.tiers(exact=False)
    for (_, thresholds), members in _profile_tiers(table, u):
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
