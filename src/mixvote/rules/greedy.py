"""Greedy cohesive-group rule for mixed goods.

Each round finds the largest t* such that some remaining group is
t*-cohesive and commonly approves a sub-bundle of size exactly t*, removes
one such group, and adds its witness bundle to the allocation.  The group
search is exhaustive over common-bundle classes (exponential in the worst
case; the instance size is capped unless forced).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..core import (
    DEFAULT_CLOSURE_CAP,
    Bundle,
    EMPTY_BUNDLE,
    Instance,
    common_bundle,
)
from ..errors import CapacityError, InvariantError, ScriptError

DEFAULT_AGENT_CAP = 20


def achievable_exact_size(m_star: int, ell_star: Fraction, cap: Fraction) -> Fraction:
    """Largest exact-witness size from a bundle with ``m_star`` goods and
    cake length ``ell_star``, subject to ``t <= cap``.

    The achievable sizes form the union of [j, j + ell_star] over integer
    j = 0..m_star; the maximum at or below the cap is closed-form
    (``exact_size``).  Returns 0 when no positive size is achievable.
    """
    if m_star < 0 or ell_star < 0:
        raise ValueError("m_star and ell_star must be nonnegative")
    ell_star, cap = Fraction(ell_star), Fraction(cap)
    unit = math.lcm(ell_star.denominator, cap.denominator)
    t = exact_size(m_star, int(ell_star * unit), int(cap * unit), unit)
    return Fraction(t, unit)


def exact_size(m_star: int, ell: int, cap: int, unit: int) -> int:
    """``achievable_exact_size`` on ints: ``ell`` and ``cap`` (and the
    result) are numerators over the denominator ``unit``.  The largest
    achievable size at or below the cap is the smaller of the upper bound
    ub = min(cap, m_star + ell) and j + ell, for j = min(m_star, floor(ub))."""
    ub = min(cap, m_star * unit + ell)
    if ub <= 0:
        return 0
    return min(ub, min(m_star, ub // unit) * unit + ell)


@dataclass(frozen=True)
class GreedyRound:
    t_star: Fraction
    group: frozenset[int]
    witness: Bundle


@dataclass(frozen=True)
class GreedyTrace:
    rounds: tuple[GreedyRound, ...]

    def positive_rounds(self) -> list[GreedyRound]:
        return [r for r in self.rounds if r.t_star > 0]


def canonical_witness(inst: Instance, group: frozenset[int], t_star: Fraction) -> Bundle:
    """Witness of size exactly t_star: lowest-index goods first, then the
    leftmost piece of the group's common cake."""
    common = common_bundle(inst, group)
    goods_sorted = inst.sorted_goods(common.goods)
    j = min(len(goods_sorted), math.floor(t_star))
    cake_needed = t_star - j
    return Bundle(cake=common.cake.prefix(cake_needed), goods=frozenset(goods_sorted[:j]))


class DefaultTieBreaker:
    """Picks the lexicographically smallest inclusion-maximal group
    achieving t*, with the canonical witness."""

    def choose(
        self,
        inst: Instance,
        remaining: frozenset[int],
        t_star: Fraction,
        achieving_groups: Sequence[frozenset[int]],
    ) -> tuple[frozenset[int], Bundle]:
        maximal = [
            g for g in achieving_groups
            if not any(g < h for h in achieving_groups)
        ]
        group = min(maximal, key=lambda g: tuple(sorted(g)))
        return group, canonical_witness(inst, group, t_star)


class ScriptedTieBreaker:
    """Replays a fixed list of (group, witness) rounds, validating each
    against the computed t*; falls back to the default policy afterwards.

    Theorems about worst-case executions quantify over all admissible
    tie-breaks, so reproducing them requires steering specific rounds.
    """

    def __init__(self, steps: Sequence[tuple[Sequence[int], Bundle]]):
        self._steps = [(frozenset(g), w) for g, w in steps]
        self._cursor = 0
        self._fallback = DefaultTieBreaker()

    def choose(
        self,
        inst: Instance,
        remaining: frozenset[int],
        t_star: Fraction,
        achieving_groups: Sequence[frozenset[int]],
    ) -> tuple[frozenset[int], Bundle]:
        if self._cursor >= len(self._steps):
            return self._fallback.choose(inst, remaining, t_star, achieving_groups)
        group, witness = self._steps[self._cursor]
        self._cursor += 1
        if not group <= remaining:
            raise ScriptError("scripted group contains already-removed agents")
        if len(group) * inst.alpha < t_star * inst.n:
            raise ScriptError(
                f"scripted group of size {len(group)} is not {t_star}-cohesive"
            )
        if witness.size() != t_star:
            raise ScriptError(
                f"scripted witness has size {witness.size()}, round requires {t_star}"
            )
        if not common_bundle(inst, group).contains(witness):
            raise ScriptError("scripted witness is not commonly approved")
        return group, witness


def greedy_ejr_m(
    inst: Instance,
    tie_breaker: DefaultTieBreaker | ScriptedTieBreaker | None = None,
    force: bool = False,
    agent_cap: int = DEFAULT_AGENT_CAP,
) -> tuple[Bundle, GreedyTrace]:
    """Run the greedy rule; returns the allocation and its round trace."""
    if inst.n > agent_cap and not force:
        raise CapacityError(
            f"exhaustive group search capped at {agent_cap} agents "
            f"(instance has {inst.n}); pass force=True to override"
        )
    policy = tie_breaker or DefaultTieBreaker()
    index = inst.index
    unit = index.denominator
    rows = index.closure(DEFAULT_CLOSURE_CAP)
    remaining = frozenset(range(inst.n))
    allocation = EMPTY_BUNDLE
    rounds: list[GreedyRound] = []
    prev_t: Fraction | None = None
    while remaining:
        # The closure of the remaining pool is the full closure filtered by
        # approvers & remaining: each pool group's common bundle is the
        # largest row with that filtered approver set, and smaller rows with
        # the same set reach no larger t.  Groups are ordered by the
        # position of that largest row, as in the pool closure's key order.
        pool = sum(1 << i for i in remaining)
        best_t = 0
        achieving: dict[int, tuple[int, int]] = {}  # group mask -> (size_d, row position)
        for pos, row in enumerate(rows):
            group = row.agents & pool
            if not group:
                continue
            t = exact_size(row.m_star, row.ell_d, group.bit_count() * index.share_d, unit)
            if t > best_t:
                best_t = t
                achieving = {group: (row.size_d, pos)}
            elif t == best_t and t > 0:
                prior = achieving.get(group)
                if prior is None or prior[0] < row.size_d:
                    achieving[group] = (row.size_d, pos)
        if best_t == 0:
            # every leftover group is only 0-cohesive; nothing more to add
            rounds.append(GreedyRound(Fraction(0), remaining, EMPTY_BUNDLE))
            break
        t_star = Fraction(best_t, unit)
        groups = [
            frozenset(i for i in range(inst.n) if group >> i & 1)
            for group in sorted(achieving, key=lambda g: achieving[g][1])
        ]
        group, witness = policy.choose(inst, remaining, t_star, groups)
        if prev_t is not None and t_star > prev_t:
            raise InvariantError(f"round size {t_star} exceeds the previous round's {prev_t}")
        prev_t = t_star
        allocation = allocation.union(witness)
        rounds.append(GreedyRound(t_star, group, witness))
        remaining = remaining - group
    if allocation.size() > inst.alpha:
        raise InvariantError(
            f"greedy allocation size {allocation.size()} exceeds alpha {inst.alpha}"
        )
    return allocation, GreedyTrace(tuple(rounds))
