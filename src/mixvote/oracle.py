"""Brute-force ground truth at desk scale.

Allocations are enumerated exhaustively over goods subsets crossed with
subsets of a discretized cake; for indivisible instances the enumeration
is exact.  The cake grid refines the agent-breakpoint atomization, so every
enumerated bundle is approved all-or-nothing per cell and representable
exactly in rationals.  Group scans here deliberately iterate over raw agent
subsets rather than reusing the verifier's closure shortcut, so the two
paths can check each other.

The enumeration sums on ints: every cell length and each goods subset's
budget alpha - |goods| sit over one unit, the lcm of alpha's denominator
and the cell endpoints' denominators.  The cells tile [0, c] left to
right, so a chosen cell next to the previous chosen one extends its run,
and the chosen runs form a canonical cake (sorted, disjoint, not
touching) by construction, with no sort or merge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import Bundle, Instance, IntervalSet, atomize
from .errors import CapacityError, DomainError, InvariantError
from .harmonic import exact_pav_score, gpav_score
from .verify import verify_ejr_beta

MAX_GROUP_SUBSETS = 1 << 22


@dataclass(frozen=True)
class EnumerationConfig:
    cake_grid: int = 8
    max_candidates: int = 1 << 24


def _grid_cells(inst: Instance, grid: int) -> list[tuple[Fraction, Fraction]]:
    """Refine each approval atom into equal cells of length <= c/grid."""
    if grid < 1:
        raise DomainError(f"cake_grid must be at least 1, got {grid}")
    if inst.cake_length == 0:
        return []
    target = inst.cake_length / grid
    cells: list[tuple[Fraction, Fraction]] = []
    for atom in atomize(inst, inst.full_cake(), ()):
        lo, hi = atom.interval
        pieces = max(1, math.ceil((hi - lo) / target))
        step = (hi - lo) / pieces
        cells.extend((lo + j * step, lo + (j + 1) * step) for j in range(pieces))
    return cells


def enumerate_allocations(inst: Instance, cfg: EnumerationConfig | None = None) -> Iterator[Bundle]:
    """Stream all feasible bundles over the discretized lattice.

    Exact (not discretized) whenever the instance has no cake.
    """
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
    # cell lengths and budgets as ints over one unit
    unit = math.lcm(inst.alpha.denominator, *(p.denominator for cell in cells for p in cell))
    lengths = [int((hi - lo) * unit) for lo, hi in cells]
    alpha = inst.alpha.numerator * (unit // inst.alpha.denominator)
    for size in range(max_goods + 1):
        budget = alpha - size * unit
        for combo in itertools.combinations(range(inst.m), size):
            goods = frozenset(inst.goods[i] for i in combo)
            for mask in range(2 ** len(cells)):
                total = 0
                runs: list[tuple[Fraction, Fraction]] = []
                last = -2
                for j in range(mask.bit_length()):
                    if mask >> j & 1:
                        total += lengths[j]
                        if total > budget:
                            break
                        # the cells tile [0, c]: cell j touches cell j - 1
                        if last == j - 1:
                            runs[-1] = (runs[-1][0], cells[j][1])
                        else:
                            runs.append(cells[j])
                        last = j
                else:
                    yield Bundle(cake=IntervalSet(tuple(runs)), goods=goods)


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
    t: Fraction,
    cfg: EnumerationConfig | None = None,
) -> Fraction | None:
    """max over allocations of (min over t-cohesive groups of their average
    satisfaction); None when no group is t-cohesive (vacuous minimum)."""
    t = Fraction(t)
    groups = _cohesive_groups(inst, t)
    if not groups:
        return None
    best: Fraction | None = None
    for bundle in enumerate_allocations(inst, cfg):
        utils = [inst.agents[i].intersect(bundle).size() for i in range(inst.n)]
        worst = min(
            sum((utils[i] for i in group), Fraction(0)) / len(group)
            for group in groups
        )
        if best is None or worst > best:
            best = worst
    return best


def oracle_discretized_opt(
    inst: Instance,
    objective: str = "gpav",
    cfg: EnumerationConfig | None = None,
) -> tuple[Bundle, Fraction | float]:
    """Best enumerated bundle under the objective.

    For indivisible instances the PAV objective is scored in exact
    rationals, so the result is the exact optimum; with cake the score is
    a float within the grid's resolution bound of the continuous optimum.
    """
    if objective not in ("gpav", "nash"):
        raise ValueError(f"unknown objective {objective!r}")
    exact = inst.cake_length == 0
    best_bundle: Bundle | None = None
    best_score = None
    for bundle in enumerate_allocations(inst, cfg):
        utils = [inst.agents[i].intersect(bundle).size() for i in range(inst.n)]
        if objective == "gpav":
            if exact:
                score = exact_pav_score(int(u) for u in utils)
            else:
                score = gpav_score(inst, bundle).value
        else:
            positive = [u for u in utils if u > 0]
            score = (len(positive), math.prod(positive) if positive else Fraction(0))
        if best_score is None or score > best_score:
            best_score = score
            best_bundle = bundle
    if best_bundle is None:
        raise InvariantError("the enumeration yielded no allocation")
    return best_bundle, best_score
