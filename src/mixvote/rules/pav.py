"""Harmonic-score maximization over mixed bundles.

The outer search runs over goods subsets.  For each subset the cake part is
a concave maximization over the lengths taken from each class of atoms
(atoms with one approver set), under box bounds and one budget; the
objective is concave because H' is decreasing.  One primal active-set
Newton method solves it (`_active_set_newton`), and the rationalized point
is certified by its duality gap against the greedy-fill linear maximizer
(`_linmax_gap`).  The class table is built once per instance; a subset
only counts its goods per agent from the index's approval bitmasks, and
atoms are refilled for the winning subset alone.  Outputs carry rational
cake endpoints, so downstream axiom checks stay exact; only the score and
the gap are floats.

The goods subsets are searched by depth-first branch and bound.  A node
fixes some goods in and some out and leaves the rest undecided.  Its
relaxation lets every undecided good be taken in part: each becomes one
more class of length 1, with the good's approvers, in the same cake
problem, under the budget left by the goods fixed in.  Every completion of
the node is a feasible point of that relaxation, so a bound on the
relaxation bounds every leaf below it.  A leaf, where no good is left to
take, has no relaxed goods.

The one bound costs one gradient and no Newton solve: H is concave, so no
feasible point scores above f(y0) + max_z grad f(y0).(z - y0) at the
proportional fill y0 (the Newton start; all of every class when the budget
is slack).  f(y0) comes with certified error bounds from `harmonic_vec`,
and the max is the same greedy fill that certifies the solver's gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..core import Atom, Bundle, Instance, as_rational, as_real, atomize, normalize
from ..errors import CapacityError, DomainError
from ..harmonic import (
    DEFAULT_TOL,
    HarmonicValue,
    harmonic_deriv2_vec,
    harmonic_deriv_vec,
    harmonic_sum,
    harmonic_vec,
    np,
)

DEFAULT_GOOD_CAP = 16
DEFAULT_EPS = 1e-9

# slack added to every reported certificate for float evaluation error
_CERT_SLACK = 1e-12

# iteration caps of the cake solver: Newton steps, and backtracks per step
_MAX_STEPS = 200
_MAX_BACKTRACKS = 40

# error bound of one agent's H term in a score, its share of the sum's
# rounding included: DEFAULT_TOL on the series path, 2**-52 of H_u < 10 on
# the exact integer path (u <= 10**4)
_TERM_ERROR_FLOOR = 2.0**-48


@dataclass(frozen=True)
class PavSolution:
    allocation: Bundle
    score: HarmonicValue
    optimality_gap: float
    atom_lengths: dict[tuple[Fraction, Fraction], Fraction]
    # work done by the search: goods subsets solved, and leaves and nodes
    # dismissed by the first-order bound without a solve
    subsets_solved: int = 0
    screened: int = 0


def _linmax_gap(g: np.ndarray, y: np.ndarray, lengths: np.ndarray, budget: float) -> float:
    """max_z g.(z - y) over the box-plus-budget polytope (greedy fill)."""
    order = np.argsort(-g)
    remaining = budget
    best = 0.0
    for c in order:
        if remaining <= 0 or g[c] <= 0:
            break
        take = min(lengths[c], remaining)
        best += g[c] * take
        remaining -= take
    return best - float(g @ np.maximum(y, 0.0))


def _gradient(base: np.ndarray, inc: np.ndarray, y: np.ndarray) -> np.ndarray:
    return inc.T @ harmonic_deriv_vec(base + inc @ y)


def _active_set_newton(
    base: np.ndarray,
    inc: np.ndarray,
    lengths: np.ndarray,
    budget: float,
    target: float,
) -> tuple[np.ndarray, float]:
    """Maximize sum_i H(base_i + (inc y)_i) over 0 <= y <= lengths, sum y = budget.

    Primal active set: classes held at 0 or at their length form the working
    set; Newton steps on the remaining classes keep the budget tight (the
    objective strictly increases in every class, and sum(lengths) > budget).
    Returns the point and its duality gap once that is at most ``target``,
    or the last point reached when the step or iteration caps run out.
    """
    ncls = len(lengths)
    y = lengths * (budget / lengths.sum())
    bound = np.zeros(ncls, dtype=np.int8)  # -1 held at 0, +1 held at length
    gap = math.inf
    released = None  # (class, point, bounds) just before the last release
    kept = -1  # a class whose release the next step undid
    for _ in range(_MAX_STEPS):
        g = _gradient(base, inc, y)
        gap = _linmax_gap(g, y, lengths, budget)
        if gap <= target:
            break
        free = np.flatnonzero(bound == 0)
        lam = float(g[free].mean()) if len(free) else float(g.mean())
        dy = np.zeros(ncls)
        if len(free) > 1:
            # KKT system of the face; centring the gradient first keeps
            # cancellation from flipping the step near the optimum
            af = inc[:, free]
            curv = harmonic_deriv2_vec(base + inc @ y)
            k = len(free)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = af.T @ (curv[:, None] * af)
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[:k] = lam - g[free]
            dy[free] = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        slope = float((g[free] - lam) @ dy[free])
        if not slope > target / 4:
            # the face is solved: release the bound whose multiplier has the
            # wrong sign by the most, if any
            violation = np.where(bound < 0, g - lam, lam - g) * (bound != 0)
            if kept >= 0:
                violation[kept] = 0.0
            c = int(np.argmax(violation))
            if violation[c] > 0:
                released = (c, y.copy(), bound.copy())
                bound[c] = 0
                continue
        if not slope > 0 or not np.isfinite(dy).all():
            break
        # cap the step at the first blocking bound
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(dy > 0, (lengths - y) / dy, np.where(dy < 0, -y / dy, np.inf))
        blocker = int(np.argmin(room))
        step = min(1.0, float(room[blocker]))
        # backtrack until the slope at the end point is >= 0: along a line a
        # concave objective rose exactly while that slope stays >= 0, and
        # near the optimum its own differences fall below an ulp.  The first
        # retry is the secant root of the slope (Newton overshoots it by a
        # hair near the optimum), later ones halve.
        for retry in range(_MAX_BACKTRACKS):
            end = float((_gradient(base, inc, y + step * dy)[free] - lam) @ dy[free])
            if end >= 0:
                break
            step *= 0.5 if retry else slope / (slope - end)
        else:
            break  # no ascent step left at float precision
        y = np.clip(y + step * dy, 0.0, lengths)
        if step == room[blocker]:
            y[blocker] = lengths[blocker] if dy[blocker] > 0 else 0.0
            bound[blocker] = 1 if dy[blocker] > 0 else -1
        # a zero-length step that holds the class just released returns to
        # the state before the release, which would repeat until the step
        # cap: keep that class held once, so the face's own step comes next
        kept = -1
        if released is not None:
            c, before, held = released
            if np.array_equal(y, before) and np.array_equal(bound, held):
                kept = c
            released = None
    return y, gap


def _incidence(nagents: int, groups: list[frozenset[int]]) -> np.ndarray:
    """Agent-by-group 0/1 matrix: column c marks the members of ``groups[c]``."""
    inc = np.zeros((nagents, len(groups)))
    for c, members in enumerate(groups):
        for i in members:
            inc[i, c] = 1.0
    return inc


def _solve(
    base: np.ndarray,
    inc: np.ndarray,
    lengths: np.ndarray,
    class_lengths: list[Fraction],
    budget: Fraction,
    eps: float,
) -> tuple[list[Fraction], float]:
    """Maximize sum_i H(base_i + sum over approved classes) over class lengths,
    given the agent-by-class incidence matrix and the float lengths.

    Returns rational lengths summing to at most the budget and a certified
    duality gap.  Exact shortcuts when the budget is slack or zero.
    """
    nclasses = len(class_lengths)
    if nclasses == 0 or budget <= 0:
        return [Fraction(0)] * nclasses, 0.0
    total = sum(class_lengths, Fraction(0))
    if total <= budget:
        return list(class_lengths), 0.0

    bud = float(budget)
    target = eps / 4.0

    y, gap = _active_set_newton(base, inc, lengths, bud, target)
    if not gap <= eps / 2.0:
        raise DomainError(f"cake solver could not certify gap {gap} <= {eps / 2.0}")

    # exact rationalization: clip into the box, then trim any overshoot
    y_rat = [
        min(max(Fraction(float(v)).limit_denominator(10**12), Fraction(0)), cl)
        for v, cl in zip(y, class_lengths)
    ]
    excess = sum(y_rat, Fraction(0)) - budget
    if excess > 0:
        for c in sorted(range(nclasses), key=lambda c: -y_rat[c]):
            cut = min(excess, y_rat[c])
            y_rat[c] -= cut
            excess -= cut
            if excess == 0:
                break
    y_final = np.array([float(v) for v in y_rat])
    gap_final = _linmax_gap(_gradient(base, inc, y_final), y_final, lengths, bud)
    return y_rat, max(gap_final, 0.0) + _CERT_SLACK


class _CakeClasses:
    """Approved cake atoms grouped by approver set, in first-seen order, with
    each class's total length and its atoms from left to right.  The float
    side of the solver is built here once per instance: the agent-by-class
    incidence matrix and lengths, and an agent-by-good matrix whose columns
    join the bound as classes of length 1 when goods are relaxed."""

    def __init__(self, inst: Instance, atoms: list[Atom]):
        self.atoms = [a for a in atoms if not a.is_good and a.approvers]
        groups: dict[frozenset[int], list[Atom]] = {}
        for atom in self.atoms:
            groups.setdefault(atom.approvers, []).append(atom)
        self.members = list(groups)
        self.lengths = [sum((a.size() for a in g), Fraction(0)) for g in groups.values()]
        self.parts = [sorted(g, key=lambda a: a.interval) for g in groups.values()]
        self.masks = inst.index.masks
        self.inc = _incidence(inst.n, self.members)
        self.flengths = np.array([float(l) for l in self.lengths])
        self.goods_inc = _incidence(inst.n, inst.index.good_approvers)

    def solve(
        self, goods_mask: int, budget: Fraction, eps: float
    ) -> tuple[list[Fraction], HarmonicValue, float]:
        """Class lengths, score and certified gap for the goods in ``goods_mask``
        (bits in instance order, as in the index's approval masks)."""
        utils = [(mask & goods_mask).bit_count() for mask in self.masks]
        base = np.array(utils, dtype=float)
        y_rat, gap = _solve(base, self.inc, self.flengths, self.lengths, budget, eps)
        # cake sums on ints over the amounts' common denominator; one
        # Fraction per agent that gets cake, the goods count otherwise
        den = math.lcm(*(y.denominator for y in y_rat))
        cake = [0] * len(utils)
        for group, amount in zip(self.members, y_rat):
            share = amount.numerator * (den // amount.denominator)
            for i in group:
                cake[i] += share
        for i, c in enumerate(cake):
            if c:
                utils[i] = Fraction(utils[i] * den + c, den)
        return y_rat, harmonic_sum(utils), gap

    def bound(self, goods_mask: int, budget: Fraction, relaxed: Sequence[int]) -> float:
        """Certified upper bound on the best score of the goods in ``goods_mask``
        plus the cake and, taken in part, the goods in ``relaxed``: each joins
        as one more class of length 1, with the good's approvers.  H is
        concave, so no feasible point scores above
        f(y0) + max_z grad f(y0).(z - y0) at any y0; here y0 = L*min(1, B/sum(L))
        with B clamped at 0, and the max is `_linmax_gap`.  Exact when the
        budget is slack or zero; inf when there are no classes."""
        inc, lengths = self.inc, self.flengths
        if relaxed:
            inc = np.hstack([inc, self.goods_inc[:, relaxed]])
            lengths = np.concatenate([lengths, np.ones(len(relaxed))])
        if not len(lengths):
            return math.inf
        bud = float(max(budget, 0))
        y0 = lengths * min(1.0, bud / lengths.sum())
        u = np.array([(mask & goods_mask).bit_count() for mask in self.masks], dtype=float)
        u += inc @ y0
        values, bounds = harmonic_vec(u)
        gap = _linmax_gap(inc.T @ harmonic_deriv_vec(u), y0, lengths, bud)
        return math.fsum(values) + float(bounds.sum()) + gap + _CERT_SLACK

    def refill(self, y_rat: list[Fraction]) -> dict[tuple[Fraction, Fraction], Fraction]:
        """Per-atom lengths: each class's amount fills its atoms left to right."""
        atom_lengths = {a.interval: Fraction(0) for a in self.atoms}
        for atoms, left in zip(self.parts, y_rat):
            for atom in atoms:
                atom_lengths[atom.interval] = take = min(atom.size(), left)
                left -= take
        return atom_lengths


def _check_eps(eps: float) -> None:
    if not (math.isfinite(as_real("eps", eps)) and eps > 0):
        raise DomainError(f"eps must be finite and positive, got {eps}")


def concave_cake_opt(
    inst: Instance,
    atoms: list[Atom],
    fixed_goods: frozenset[str] | set[str],
    budget: Fraction,
    eps: float = DEFAULT_EPS,
) -> tuple[dict[tuple[Fraction, Fraction], Fraction], HarmonicValue, float]:
    """Best cake lengths per atom given a fixed goods selection.

    Atoms sharing an approver set are interchangeable for the score, so they
    are merged for the solve and refilled left to right afterwards.
    """
    _check_eps(eps)
    budget = as_rational("budget", budget)
    table = _CakeClasses(inst, atoms)
    goods_mask = sum(1 << k for k, g in enumerate(inst.goods) if g in fixed_goods)
    y_rat, score, gap = table.solve(goods_mask, budget, eps)
    return table.refill(y_rat), score, gap


def generalized_pav(
    inst: Instance,
    eps: float = DEFAULT_EPS,
    force: bool = False,
) -> PavSolution:
    """Best goods subset of at most floor(alpha) goods, with its cake part.

    The winner is the first subset with the highest score in enumeration
    order (by size, then in ``itertools.combinations`` order of instance
    positions).  A depth-first branch and bound finds it without solving
    most subsets: goods go most approved first (ties by position), and the
    search takes a good before it leaves the good out, so it meets a strong
    incumbent early.  Once an incumbent exists, every node and every leaf
    is dismissed when its first-order bound (see the module docstring) plus
    a float slack lies strictly below the incumbent's score.  The slack
    covers the error of a leaf's own reported score, so no dismissed subset
    could have tied or beaten the winner, and each solved leaf gets the same
    cake solve, hence the same numbers, as in a plain enumeration.

    Each cake part goes to one active-set Newton solve whose rationalized
    point carries a certified duality gap.  The reported gap covers the
    certified upper bound of every solved subset; a screened subset's bound
    lies below the winner's score.
    """
    _check_eps(eps)
    if inst.m > DEFAULT_GOOD_CAP and not force:
        raise CapacityError(
            f"goods enumeration capped at {DEFAULT_GOOD_CAP} (instance has {inst.m}); "
            "pass force=True to override"
        )
    table = _CakeClasses(inst, atomize(inst, inst.full_cake(), ()))
    approvers = inst.index.good_approvers
    most = min(inst.m, math.floor(inst.alpha))
    order = sorted(range(inst.m), key=lambda k: (-len(approvers[k]), k))
    slack = inst.n * max(DEFAULT_TOL, _TERM_ERROR_FLOOR) + _CERT_SLACK
    best = None  # (score, rank, mask, class lengths, gap) of the incumbent
    best_upper = -math.inf
    solved = screened = 0

    def visit(depth: int, mask: int) -> None:
        nonlocal best, best_upper, solved, screened
        size = mask.bit_count()
        budget = inst.alpha - size
        is_leaf = depth == inst.m or size == most
        relaxed = [] if is_leaf else [k for k in order[depth:] if approvers[k]]
        if best is not None and table.bound(mask, budget, relaxed) + slack < best[0].value:
            screened += 1
        elif not is_leaf:
            visit(depth + 1, mask | 1 << order[depth])
            visit(depth + 1, mask)
        else:
            y_rat, score, gap = table.solve(mask, budget, eps)
            solved += 1
            best_upper = max(best_upper, score.value + score.abs_error_bound + gap)
            rank = (size, [k for k in range(inst.m) if mask >> k & 1])
            # a tie goes to the subset that comes first in enumeration order
            if best is None or score.value > best[0].value or (
                score.value == best[0].value and rank < best[1]
            ):
                best = (score, rank, mask, y_rat, gap)

    visit(0, 0)
    score, _, mask, y_rat, gap = best
    atom_lengths = table.refill(y_rat)
    pieces = [(lo, lo + ln) for (lo, _hi), ln in atom_lengths.items() if ln > 0]
    global_gap = max(best_upper - score.value, 0.0) + score.abs_error_bound
    goods = frozenset(g for k, g in enumerate(inst.goods) if mask >> k & 1)
    allocation = Bundle(normalize(pieces), goods)
    return PavSolution(
        allocation, score, max(gap, global_gap), atom_lengths, solved, screened
    )
