"""Brute-force maximum Nash welfare over indivisible instances.

Zero products are handled lexicographically: first maximize the number of
agents with positive utility, then the product of utilities over exactly
those agents.  All optimal allocations are returned.
"""

from __future__ import annotations

import itertools
import math

from ..core import Bundle, Instance
from ..errors import CapacityError, UnsupportedInstanceError

DEFAULT_GOOD_CAP = 20


def _nash_key(masks: list[int], goods_mask: int) -> tuple[int, int]:
    """(agents with positive utility, product of those utilities) for the
    goods in ``goods_mask`` (bits in instance order, as in the index)."""
    positive = [u for mask in masks if (u := (mask & goods_mask).bit_count())]
    return len(positive), math.prod(positive) if positive else 0


def mnw_indivisible(inst: Instance, force: bool = False) -> list[Bundle]:
    """All Nash-optimal goods subsets of size at most alpha."""
    if inst.cake_length != 0:
        raise UnsupportedInstanceError(
            "Nash-welfare enumeration supports indivisible instances only"
        )
    if inst.m > DEFAULT_GOOD_CAP and not force:
        raise CapacityError(
            f"goods enumeration capped at {DEFAULT_GOOD_CAP} (instance has {inst.m})"
        )
    limit = min(inst.m, math.floor(inst.alpha))
    masks = inst.index.masks
    best_key: tuple[int, int] | None = None
    best: list[tuple[int, ...]] = []
    for size in range(limit + 1):
        for combo in itertools.combinations(range(inst.m), size):
            key = _nash_key(masks, sum(1 << k for k in combo))
            if best_key is None or key > best_key:
                best_key = key
                best = [combo]
            elif key == best_key:
                best.append(combo)
    bundles = [Bundle(goods=frozenset(inst.goods[k] for k in combo)) for combo in best]
    bundles.sort(key=lambda b: b.key(inst.good_index))
    return bundles
