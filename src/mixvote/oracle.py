"""Brute-force ground truth at desk scale.

Allocations are enumerated exhaustively over goods subsets crossed with
subsets of a discretized cake; for indivisible instances the enumeration
is exact.  The cake grid refines the agent-breakpoint atomization, so every
enumerated bundle is approved all-or-nothing per cell and representable
exactly in rationals.  Group scans here deliberately iterate over raw agent
subsets rather than reusing the verifier's closure shortcut, so the two
paths can check each other.

The enumeration sums on ints over one unit, the lcm of the cell endpoints'
denominators (1 without cake), against the budget floor((alpha - |goods|) *
unit).  The cells tile [0, c] left to right, so adjacent chosen cells extend
one run, and the runs form a canonical cake with no sort or merge.

The scoring oracles build a utility table once per call: per agent, its
goods and the cells inside its own approval intervals, as one bitmask, so
each bundle's utilities are ints at the unit (goods counts without cake).
Exact PAV adds H_u * L, L = lcm(1..most goods in a bundle), and divides by
L once; with cake, `harmonic_sum` takes the utilities over the unit.  The
verifiers' utility pass (`allocation_units`) and `gpav_score` are never
called, so a fault there cannot pass both the rule's check and the oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import Bundle, Instance, IntervalSet, as_rational
from .errors import CapacityError, DomainError, InvariantError
from .harmonic import harmonic_sum
from .verify import verify_ejr_beta

MAX_GROUP_SUBSETS = 1 << 22


@dataclass(frozen=True)
class EnumerationConfig:
    cake_grid: int = 8
    max_candidates: int = 1 << 24


def _grid_cells(inst: Instance, grid: int) -> list[tuple[Fraction, Fraction]]:
    """Cut [0, c] at every approval endpoint, read from the approvals (not
    the instance index), and refine each piece into equal cells of length
    <= c/grid."""
    if grid < 1:
        raise DomainError(f"cake_grid must be at least 1, got {grid}")
    if inst.cake_length == 0:
        return []
    target = inst.cake_length / grid
    ends = {p for agent in inst.agents for pair in agent.cake.intervals for p in pair}
    points = sorted(ends | {Fraction(0), inst.cake_length})
    cells: list[tuple[Fraction, Fraction]] = []
    for lo, hi in zip(points, points[1:]):
        pieces = max(1, math.ceil((hi - lo) / target))
        step = (hi - lo) / pieces
        cells.extend((lo + j * step, lo + (j + 1) * step) for j in range(pieces))
    return cells


def _lattice(inst: Instance, cfg: EnumerationConfig | None):
    """The cells, their unit, the weight of each mask bit at the unit (cell j's
    length, then `unit` per good), and a walk over every feasible (bundle, mask)."""
    cfg = cfg or EnumerationConfig()
    cells = _grid_cells(inst, cfg.cake_grid)
    max_goods = min(inst.m, math.floor(inst.alpha))
    good_subsets = sum(math.comb(inst.m, k) for k in range(max_goods + 1))
    candidates = good_subsets * (2 ** len(cells))
    if candidates > cfg.max_candidates:
        raise CapacityError(
            f"enumeration would visit {candidates} candidates "
            f"(cap {cfg.max_candidates})"
        )
    unit = math.lcm(*(p.denominator for cell in cells for p in cell))
    weights = [int((hi - lo) * unit) for lo, hi in cells] + [unit] * inst.m

    def walk() -> Iterator[tuple[Bundle, int]]:
        p, q = inst.alpha.numerator, inst.alpha.denominator
        for size in range(max_goods + 1):
            # an int total exceeds this floor exactly when it exceeds alpha - size
            budget = (p - size * q) * unit // q
            for combo in itertools.combinations(range(inst.m), size):
                goods = frozenset(inst.goods[i] for i in combo)
                goods_mask = sum(1 << i for i in combo) << len(cells)
                for mask in range(2 ** len(cells)):
                    total = 0
                    runs: list[tuple[Fraction, Fraction]] = []
                    last = -2
                    for j in range(mask.bit_length()):
                        if mask >> j & 1:
                            total += weights[j]
                            if total > budget:
                                break
                            # the cells tile [0, c]: cell j touches cell j - 1
                            if last == j - 1:
                                runs[-1] = (runs[-1][0], cells[j][1])
                            else:
                                runs.append(cells[j])
                            last = j
                    else:
                        yield Bundle(cake=IntervalSet(tuple(runs)), goods=goods), goods_mask | mask

    return cells, unit, weights, walk()


def enumerate_allocations(inst: Instance, cfg: EnumerationConfig | None = None) -> Iterator[Bundle]:
    """Stream all feasible bundles over the discretized lattice.

    Exact (not discretized) whenever the instance has no cake.
    """
    for bundle, _ in _lattice(inst, cfg)[3]:
        yield bundle


def _scored(inst: Instance, cfg: EnumerationConfig | None):
    """The lattice's unit, and each enumerated bundle with every agent's
    utility as an int at that unit (a goods count without cake)."""
    cells, unit, weights, walk = _lattice(inst, cfg)
    table = []  # each agent's approved cells, tested on its own intervals, and goods
    for agent in inst.agents:
        ivs = agent.cake.intervals
        inside = (j for j, (lo, hi) in enumerate(cells) if any(a <= lo and hi <= b for a, b in ivs))
        goods = (len(cells) + inst.good_index[g] for g in agent.goods)
        table.append(sum(1 << j for j in itertools.chain(inside, goods)))

    @functools.cache
    def units(hit: int) -> int:
        return sum(w for j, w in enumerate(weights) if hit >> j & 1)

    return unit, ((bundle, [units(mask & a) for a in table]) for bundle, mask in walk)


def oracle_no_ejr_beta(
    inst: Instance,
    beta: Fraction,
    mode: str = "weak",
    cfg: EnumerationConfig | None = None,
) -> bool:
    """True iff every enumerated allocation fails the beta-relaxed axiom."""
    for bundle in enumerate_allocations(inst, cfg):
        if verify_ejr_beta(inst, bundle, beta, mode).passed:
            return False
    return True


def _cohesive_groups(inst: Instance, t: Fraction) -> list[tuple[int, ...]]:
    """All t-cohesive groups by raw subset scan (independent of verify)."""
    threshold = t * inst.n / inst.alpha
    work = sum(
        math.comb(inst.n, size)
        for size in range(1, inst.n + 1)
        if size >= threshold
    )
    if work > MAX_GROUP_SUBSETS:
        raise CapacityError(
            f"group scan would visit {work} subsets (cap {MAX_GROUP_SUBSETS})"
        )
    groups: list[tuple[int, ...]] = []
    for size in range(1, inst.n + 1):
        if size < threshold:
            continue
        for combo in itertools.combinations(range(inst.n), size):
            common = inst.agents[combo[0]]
            for i in combo[1:]:
                common = common.intersect(inst.agents[i])
                if common.size() < t:
                    break
            if common.size() >= t:
                groups.append(combo)
    return groups


def oracle_min_max_avg(
    inst: Instance,
    t: Fraction | int,
    cfg: EnumerationConfig | None = None,
) -> Fraction | None:
    """max over allocations of (min over t-cohesive groups of their average
    satisfaction); None when no group is t-cohesive (vacuous minimum)."""
    t = as_rational("t", t)
    groups = _cohesive_groups(inst, t)
    if not groups:
        return None
    scale = math.lcm(*map(len, groups))  # group sums over the lcm of the group sizes
    unit, scored = _scored(inst, cfg)
    best = max(min(scale // len(g) * sum(utils[i] for i in g) for g in groups) for _, utils in scored)
    return Fraction(best, unit * scale)


def oracle_discretized_opt(
    inst: Instance,
    objective: str = "gpav",
    cfg: EnumerationConfig | None = None,
) -> tuple[Bundle, Fraction | float | tuple[int, Fraction]]:
    """Best enumerated bundle under the objective; the first one on ties.

    For indivisible instances the PAV objective is scored in exact
    rationals, so the result is the exact optimum; with cake the score is
    a float within the grid's resolution bound of the continuous optimum.
    The Nash score is (agents with positive utility, their utilities' product).
    """
    if objective not in ("gpav", "nash"):
        raise DomainError(f"unknown objective {objective!r}")
    exact = inst.cake_length == 0
    top = min(inst.m, math.floor(inst.alpha))  # the most goods a bundle holds
    scale = math.lcm(*range(1, top + 1))
    h = list(itertools.accumulate((scale // u for u in range(1, top + 1)), initial=0))  # H_u * scale
    unit, scored = _scored(inst, cfg)
    best_bundle, best = None, None
    for bundle, utils in scored:
        if objective == "nash":
            positive = [u for u in utils if u]
            score = (len(positive), math.prod(positive) if positive else 0)
        elif exact:
            score = sum(h[u] for u in utils)
        else:
            score = harmonic_sum([Fraction(u, unit) for u in utils]).value
        if best is None or score > best:
            best, best_bundle = score, bundle
    if best_bundle is None:
        raise InvariantError("the enumeration yielded no allocation")
    if objective == "nash":
        return best_bundle, (best[0], Fraction(best[1], unit ** best[0]))
    return best_bundle, Fraction(best, scale) if exact else best
