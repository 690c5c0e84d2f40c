"""Greedy cohesive-group rule for mixed goods.

Each round finds the largest t* such that some remaining group is
t*-cohesive and commonly approves a sub-bundle of size exactly t*, removes
one such group, and adds its witness bundle to the allocation.  A round is
one scan of the instance's exact tier table, built once from the approval
closure, so the closure cap (``CapacityError``) bounds every round; the scan
yields t* and the set of groups achieving it, as agent bitmasks.  The table
is ordered by top threshold, and no pool gets a t above a row's top, so the
scan stops at the first row whose top lies under the best t; ties still count.

Ties go to the lexicographically smallest inclusion-maximal group of that
set with its canonical witness, unless a script of (group, witness) steps
steers the round: theorems about worst-case executions quantify over all
admissible tie-breaks, so reproducing them requires steering specific rounds.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..core import Bundle, EMPTY_BUNDLE, Instance, allocation_to_dict, common_bundle, format_rational
from ..core import _bits, _valid_agents
from ..errors import InvariantError, ScriptError


@dataclass(frozen=True)
class GreedyRound:
    t_star: Fraction
    group: frozenset[int]
    witness: Bundle


@dataclass(frozen=True)
class GreedyTrace:
    rounds: tuple[GreedyRound, ...]

    def to_dict(self, inst: Instance) -> dict:
        """Each round's t*, group and witness, as JSON."""
        return {
            "rounds": [
                {
                    "t_star": format_rational(r.t_star),
                    "group": sorted(r.group),
                    "witness": allocation_to_dict(inst, r.witness),
                }
                for r in self.rounds
            ]
        }


def canonical_witness(inst: Instance, group: frozenset[int], t_star: Fraction) -> Bundle:
    """Witness of size exactly t_star: lowest-index goods first, then the
    leftmost piece of the group's common cake."""
    common = common_bundle(inst, group)
    goods_sorted = inst.sorted_goods(common.goods)
    j = min(len(goods_sorted), math.floor(t_star))
    cake_needed = t_star - j
    return Bundle(cake=common.cake.prefix(cake_needed), goods=frozenset(goods_sorted[:j]))


def _default_choice(inst: Instance, t_star: Fraction, groups: set[int]) -> tuple[frozenset[int], Bundle]:
    """The lexicographically smallest inclusion-maximal group of the set
    ``groups`` (agent bitmasks) achieving t*, with the canonical witness."""
    maximal = [g for g in groups if not any(g != h and g & h == g for h in groups)]
    group = frozenset(min(map(_bits, maximal)))
    return group, canonical_witness(inst, group, t_star)


def _scripted_choice(
    inst: Instance, remaining: frozenset[int], t_star: Fraction, k: int, step: tuple
) -> tuple[frozenset[int], Bundle]:
    """Script step ``k``'s (group, witness), checked against the round's t*."""
    members, witness = step if isinstance(step, (tuple, list)) and len(step) == 2 else (None, None)
    if not (isinstance(members, Collection) and isinstance(witness, Bundle)):
        raise ScriptError(f"script step {k} is not a (group, Bundle) pair: {step!r}")
    for i in members:
        if not _valid_agents((i,), inst.n):
            raise ScriptError(f"scripted group member {i!r} is not an agent index in 0..{inst.n - 1}")
    group = frozenset(members)
    if not group <= remaining:
        raise ScriptError("scripted group contains already-removed agents")
    if len(group) * inst.alpha < t_star * inst.n:
        raise ScriptError(f"scripted group of size {len(group)} is not {t_star}-cohesive")
    if witness.size() != t_star:
        raise ScriptError(f"scripted witness has size {witness.size()}, round requires {t_star}")
    if not common_bundle(inst, group).contains(witness):
        raise ScriptError("scripted witness is not commonly approved")
    return group, witness


def greedy_ejr_m(
    inst: Instance,
    script: Sequence[tuple[Sequence[int], Bundle]] | None = None,
) -> tuple[Bundle, GreedyTrace]:
    """Run the greedy rule; returns the allocation and its round trace.

    ``script`` steers the first rounds, one (group, witness) step each,
    checked against the round's t* (``ScriptError`` if it does not fit, or
    if steps are left after the last positive round); the default choice
    takes the rounds after the last step."""
    steps = script or ()
    unit = inst.index.denominator
    # rows of size 0 reach only t = 0, so the exact tier table has every row
    # that can achieve a round
    tiers = inst.index.tiers(exact=True)
    remaining = frozenset(range(inst.n))
    allocation = EMPTY_BUNDLE
    rounds: list[GreedyRound] = []
    while remaining:
        # The closure of the remaining pool is the full closure filtered by
        # approvers & remaining: each pool group's common bundle is the
        # largest row with that filtered approver set, and smaller rows with
        # the same set reach no larger t.
        pool = sum(1 << i for i in remaining)
        best_t = 0
        achieving: set[int] = set()  # group masks reaching best_t
        for row, thresholds in tiers:
            if thresholds[-1] < best_t:
                break
            group = row.agents & pool
            if not group:
                continue
            t = thresholds[group.bit_count() - 1]
            if t > best_t:
                best_t = t
                achieving = {group}
            elif t == best_t and t > 0:
                achieving.add(group)
        if best_t == 0:
            # every leftover group is only 0-cohesive; nothing more to add
            rounds.append(GreedyRound(Fraction(0), remaining, EMPTY_BUNDLE))
            break
        t_star = Fraction(best_t, unit)
        k = len(rounds)
        if k < len(steps):
            group, witness = _scripted_choice(inst, remaining, t_star, k, steps[k])
        else:
            group, witness = _default_choice(inst, t_star, achieving)
        if rounds and t_star > rounds[-1].t_star:
            raise InvariantError(f"round size {t_star} exceeds the previous round's {rounds[-1].t_star}")
        allocation = allocation.union(witness)
        rounds.append(GreedyRound(t_star, group, witness))
        remaining = remaining - group
    left = len(steps) - sum(r.t_star > 0 for r in rounds)
    if left > 0:
        raise ScriptError(f"script has {left} step(s) left after the last round")
    if allocation.size() > inst.alpha:
        raise InvariantError(f"greedy allocation size {allocation.size()} exceeds alpha {inst.alpha}")
    return allocation, GreedyTrace(tuple(rounds))
