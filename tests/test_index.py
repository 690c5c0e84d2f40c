"""The per-instance integer index and the integer allocation pass:
differential tests against naive Fraction references, index lifetime,
capacity semantics, and the invariants that must hold under ``python -O``."""

import gc
import itertools
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction as F
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixvote import (
    Atom,
    Bundle,
    Instance,
    IntervalSet,
    approval_closure,
    atomize,
    audit_degree,
    cohesive_profiles,
    generalized_pav,
    greedy_ejr_m,
    normalize,
    verify_cake_ejr,
    verify_ejr_1,
    verify_ejr_beta,
    verify_ejr_m,
)
from mixvote import core
from mixvote.cli import EXIT_INTERNAL, EXIT_USAGE, dispatch
from mixvote.core import (
    InstanceIndex,
    allocation_units,
    instance_from_dict,
    instance_to_dict,
    save_json,
    utilities,
    utility,
)
from mixvote.errors import CapacityError, InvalidAllocationError, InvariantError
from mixvote.generate import gen_random
from mixvote.oracle import EnumerationConfig, enumerate_allocations, oracle_discretized_opt
from mixvote.rules import greedy
from mixvote.verify import DEGREE_BOUNDS, _profile_tiers

SRC = str(Path(__file__).resolve().parents[1] / "src")
BIG_PRIME = 10**9 + 7

# ---------------------------------------------------------------------------
# Naive references, written from the definitions


def naive_closure(inst, pool=None):
    pool = sorted(range(inst.n) if pool is None else pool)
    closed = {inst.agents[i] for i in pool}
    while True:
        new = {a.intersect(b) for a in closed for b in closed} - closed
        if not new:
            break
        closed |= new
    rows = [
        (b, frozenset(i for i in pool if inst.agents[i].contains(b)))
        for b in closed
    ]
    return sorted(rows, key=lambda row: row[0].key(inst.good_index))


def naive_atomize(inst, cake, goods):
    atoms = [
        Atom(frozenset(i for i, b in enumerate(inst.agents) if g in b.goods), good=g)
        for g in inst.sorted_goods(goods)
    ]
    points = sorted(
        {F(0), inst.cake_length}
        | {p for b in inst.agents for iv in b.cake.intervals for p in iv}
    )
    for lo, hi in cake.intervals:
        cuts = [lo] + [p for p in points if lo < p < hi] + [hi]
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            approvers = frozenset(
                i for i, bun in enumerate(inst.agents) if bun.cake.contains_point(mid)
            )
            atoms.append(Atom(approvers, interval=(a, b)))
    return atoms


def reference_index(inst):
    """The index fields from a Fraction-keyed build: sorted Fraction
    endpoints, cell approvers by midpoint, goods approvers by scan."""
    points = sorted(
        {F(0), inst.cake_length}
        | {p for b in inst.agents for iv in b.cake.intervals for p in iv}
    )
    share = inst.alpha / inst.n
    D = math.lcm(share.denominator, *(p.denominator for p in points))
    where = {p: j for j, p in enumerate(points)}
    m = inst.m
    masks = []
    for b in inst.agents:
        mask = sum(1 << inst.good_index[g] for g in b.goods)
        for lo, hi in b.cake.intervals:
            mask |= sum(1 << (m + j) for j in range(where[lo], where[hi]))
        masks.append(mask)
    cells = [
        frozenset(i for i, b in enumerate(inst.agents) if b.cake.contains_point((a + z) / 2))
        for a, z in zip(points, points[1:])
    ]
    return {
        "points": points,
        "points_d": [int(p * D) for p in points],
        "denominator": D,
        "share_d": int(share * D),
        "masks": masks,
        "cells": cells,
        "good_approvers": [
            frozenset(i for i, b in enumerate(inst.agents) if g in b.goods) for g in inst.goods
        ],
    }


def exact_size_ref(m_star, ell, cap):
    ub = min(cap, m_star + ell)
    if ub <= 0:
        return F(0)
    return min(ub, min(m_star, ub.__floor__()) + ell)


def naive_utilities(inst, allocation):
    """Per-agent bundle intersection; shares no code with the allocation pass."""
    return [utility(inst, i, allocation) for i in range(inst.n)]


def naive_validate(inst, bundle):
    """The error ``validate_allocation`` must raise, or None, from Fractions."""
    if not bundle.goods <= set(inst.goods):
        return InvalidAllocationError("allocation contains unknown goods")
    if any(lo < 0 or hi > inst.cake_length for lo, hi in bundle.cake.intervals):
        return InvalidAllocationError("allocation cake outside [0, c]")
    if bundle.size() > inst.alpha:
        return InvalidAllocationError(
            f"allocation size {bundle.size()} exceeds alpha {inst.alpha}"
        )
    return None


def naive_tiers(inst, utils):
    """(bundle, approvers sorted worst-utility-first) per positive closure bundle."""
    for bundle, approvers in naive_closure(inst):
        if bundle.size() > 0:
            yield bundle, sorted(approvers, key=lambda i: (utils[i], i))


def naive_scan(inst, allocation, exact, beta=F(0), strict=False):
    """Most violated tier as (group, t, threshold, max utility), or None."""
    utils = naive_utilities(inst, allocation)
    worst = None
    for bundle, members in naive_tiers(inst, utils):
        for k in range(1, len(members) + 1):
            cap = F(k) * inst.alpha / inst.n
            if exact:
                t = exact_size_ref(len(bundle.goods), bundle.cake.measure(), cap)
            else:
                t = min(cap, bundle.size())
            max_u = max(utils[i] for i in members[:k])
            ok = max_u > t - beta if strict else max_u >= t - beta
            if t <= 0 or ok:
                continue
            rank = (max_u - t, t, tuple(sorted(members[:k])))
            if worst is None or rank < worst[0]:
                worst = (rank, (rank[2], t, t - beta, max_u))
    return None if worst is None else worst[1]


def naive_audit(inst, allocation, f, t_min=F(1)):
    utils = naive_utilities(inst, allocation)
    entries = []
    for bundle, members in naive_tiers(inst, utils):
        for k in range(1, len(members) + 1):
            t = min(F(k) * inst.alpha / inst.n, bundle.size())
            if t < t_min:
                continue
            avg = sum((utils[i] for i in members[:k]), F(0)) / k
            entries.append((tuple(sorted(members[:k])), t, avg, f(t), avg - f(t)))
    best = min(entries, key=lambda e: (e[4], e[1], e[0]), default=None)
    return entries, best


def naive_profiles(inst, allocation=None):
    utils = naive_utilities(inst, allocation) if allocation is not None else [F(0)] * inst.n
    out = []
    for bundle, members in naive_tiers(inst, utils):
        for k in range(1, len(members) + 1):
            cap = F(k) * inst.alpha / inst.n
            group = tuple(sorted(members[:k]))
            out.append((
                group,
                min(cap, bundle.size()),
                exact_size_ref(len(bundle.goods), bundle.cake.measure(), cap),
                tuple(sorted(utils[i] for i in group)),
            ))
    return out


def witness_tuple(report):
    w = report.witness
    return None if w is None else (w.group, w.t, w.threshold, w.max_utility)


# ---------------------------------------------------------------------------
# Instance strategy: empty approvals, duplicated agents, alpha = c + m, and
# endpoints with large prime denominators


@st.composite
def instances(draw, max_agents=5):
    m = draw(st.integers(0, 3))
    goods = tuple(f"g{k}" for k in range(m))
    denominator = draw(st.sampled_from([1, 3, 7, BIG_PRIME]))
    c = draw(st.sampled_from([F(0), F(1), F(9, 10), F(BIG_PRIME - 1, BIG_PRIME)]))
    if c == 0 and m == 0:
        c = F(1)
    grid = sorted({c * F(k, denominator) for k in range(min(denominator, 6) + 1)} | {c})

    def approval():
        picked = draw(st.lists(st.sampled_from(grid), max_size=4))
        ends = sorted(picked)
        cake = normalize(list(zip(ends[::2], ends[1::2]))) if c > 0 else normalize([])
        chosen = draw(st.sets(st.sampled_from(goods))) if goods else set()
        return Bundle(cake=cake, goods=frozenset(chosen))

    agents = [approval() for _ in range(draw(st.integers(1, max_agents)))]
    for _ in range(draw(st.integers(0, 2))):
        agents.append(agents[draw(st.integers(0, len(agents) - 1))])
    total = c + m
    alpha = draw(st.sampled_from([total, total / 2, total / 3, F(1, BIG_PRIME) * total]))
    return Instance(cake_length=c, goods=goods, agents=tuple(agents), alpha=alpha)


@st.composite
def partial_cakes(draw, inst):
    c = inst.cake_length
    if c == 0:
        return normalize([])
    ends = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=BIG_PRIME), max_size=6)))
    return normalize([(c * lo, c * hi) for lo, hi in zip(ends[::2], ends[1::2])])


def allocations(inst):
    """The greedy output plus grid-3 enumerations, whose cake denominators
    need not divide the index denominator."""
    cfg = EnumerationConfig(cake_grid=3, max_candidates=1 << 16)
    yield greedy_ejr_m(inst, force=True)[0]
    yield from itertools.islice(enumerate_allocations(inst, cfg), 6)


# ---------------------------------------------------------------------------
# Differential tests


@given(instances(), st.data())
@settings(max_examples=80, deadline=None)
def test_closure_matches_pairwise_fixpoint(inst, data):
    assert approval_closure(inst) == naive_closure(inst)
    pool = data.draw(st.sets(st.integers(0, inst.n - 1), min_size=1))
    assert approval_closure(inst, frozenset(pool)) == naive_closure(inst, pool)


@given(instances(), st.data())
@settings(max_examples=80, deadline=None)
def test_atomize_matches_midpoint_scan(inst, data):
    assert atomize(inst, inst.full_cake(), inst.goods) == naive_atomize(
        inst, inst.full_cake(), inst.goods
    )
    cake = data.draw(partial_cakes(inst))
    goods = data.draw(st.sets(st.sampled_from(inst.goods))) if inst.goods else ()
    assert atomize(inst, cake, goods) == naive_atomize(inst, cake, goods)


@given(instances(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_index_matches_fraction_keyed_build(inst, reparse):
    if reparse:
        inst = instance_from_dict(instance_to_dict(inst))
    index = inst.index
    expected = reference_index(inst)
    assert {field: getattr(index, field) for field in expected} == expected
    assert all(type(p) is F for p in index.points)
    # the points are the instance's own endpoint objects (0 may be new)
    own = {id(inst.cake_length)} | {
        id(p) for b in inst.agents for iv in b.cake.intervals for p in iv
    }
    assert all(id(p) in own or p == 0 for p in index.points)


def _fresh_endpoints(inst):
    """An equal instance whose every endpoint is a new ``Fraction`` object."""
    def fresh(p):
        return F(p.numerator, p.denominator)

    agents = tuple(
        Bundle(IntervalSet(tuple((fresh(lo), fresh(hi)) for lo, hi in b.cake.intervals)), b.goods)
        for b in inst.agents
    )
    return Instance(fresh(inst.cake_length), inst.goods, agents, fresh(inst.alpha))


@pytest.mark.parametrize("seed", range(4))
def test_index_does_not_depend_on_shared_endpoints(seed):
    """A parsed instance shares one endpoint object per distinct string; an
    equal instance built from fresh objects gets the same index."""
    inst = instance_from_dict(instance_to_dict(gen_random(
        n=60, m=6, cake_atoms=6, alpha=F(9, 4), density=0.05, seed=seed
    )))
    other = _fresh_endpoints(inst)
    assert other == inst
    assert vars(InstanceIndex(inst)) == vars(InstanceIndex(other))


@given(instances(), st.data())
@settings(max_examples=80, deadline=None)
def test_profile_tiers_order_members_by_utility_then_index(inst, data):
    """Utilities from {0, 1, 2} make ties common; each kept row's members
    come worst-served first, ties by index, and a row is skipped only when
    its least-served approver is above its top threshold minus the offset."""
    u = data.draw(st.lists(st.integers(0, 2), min_size=inst.n, max_size=inst.n))
    off = data.draw(st.none() | st.integers(-3, 12))
    table = inst.index.tiers(data.draw(st.booleans()))
    kept = [
        (tier, sorted(tier[0].approvers, key=lambda i: (u[i], i)))
        for tier in table
        if off is None or min(u[i] for i in tier[0].approvers) <= tier[1][-1] - off
    ]
    assert list(_profile_tiers(table, u, 1, off)) == kept


@given(instances(max_agents=4))
@settings(max_examples=40, deadline=None)
def test_verifiers_match_fraction_scan(inst):
    margin_beta = 1 + F(1e-6)
    for alloc in allocations(inst):
        assert witness_tuple(verify_ejr_m(inst, alloc)) == naive_scan(inst, alloc, True)
        assert witness_tuple(verify_ejr_1(inst, alloc)) == naive_scan(
            inst, alloc, False, F(1), True
        )
        assert witness_tuple(verify_ejr_1(inst, alloc, margin=1e-6)) == naive_scan(
            inst, alloc, False, margin_beta, True
        )
        for beta, mode in ((F(7, 5), "strict"), (F(7, 5), "weak"), (F(0), "weak")):
            report = verify_ejr_beta(inst, alloc, beta, mode)
            assert witness_tuple(report) == naive_scan(
                inst, alloc, False, beta, mode == "strict"
            )
        if inst.m == 0:
            assert witness_tuple(verify_cake_ejr(inst, alloc)) == naive_scan(inst, alloc, True)


@given(instances(max_agents=4))
@settings(max_examples=40, deadline=None)
def test_audit_and_profiles_match_fraction_scan(inst):
    assert [
        (p.group, p.t_cohesive_sup, p.t_exact_max, p.group_utilities)
        for p in cohesive_profiles(inst)
    ] == naive_profiles(inst)
    for alloc in allocations(inst):
        assert [
            (p.group, p.t_cohesive_sup, p.t_exact_max, p.group_utilities)
            for p in cohesive_profiles(inst, alloc)
        ] == naive_profiles(inst, alloc)
        for name, f in DEGREE_BOUNDS.items():
            for t_min in (F(1), F(1, 3)):
                report = audit_degree(inst, alloc, name, t_min=t_min)
                entries, best = naive_audit(inst, alloc, f, t_min)
                assert [
                    (e.group, e.t, e.average, e.bound, e.slack) for e in report.entries
                ] == entries
                got = report.witness
                assert (got and (got.group, got.t, got.average, got.bound, got.slack)) == best


@st.composite
def raw_allocations(draw, inst):
    """Bundles ``utilities`` must score without validating them: partial
    cakes, pieces touching 0 and c or running past c, and goods the
    instance lacks."""
    cake = draw(partial_cakes(inst))
    c = inst.cake_length
    if c > 0:
        cut = c * draw(st.fractions(0, 1, max_denominator=BIG_PRIME))
        ends = draw(st.sets(st.sampled_from(["left", "right", "past"])))
        pieces = list(cake.intervals)
        pieces += [(F(0), cut)] * ("left" in ends) + [(c - cut, c)] * ("right" in ends)
        pieces += [(cut, c + 1)] * ("past" in ends)
        cake = normalize(pieces)
    goods = draw(st.sets(st.sampled_from(inst.goods + ("x0", "x1"))))
    return Bundle(cake=cake, goods=frozenset(goods))


@given(instances(), st.data())
@settings(max_examples=80, deadline=None)
def test_utilities_match_per_agent_intersection(inst, data):
    for alloc in [Bundle(inst.full_cake(), frozenset(inst.goods)), data.draw(raw_allocations(inst))]:
        assert utilities(inst, alloc) == [utility(inst, i, alloc) for i in range(inst.n)]


@given(instances(), st.data())
@settings(max_examples=80, deadline=None)
def test_allocation_pass_matches_fraction_reference(inst, data):
    extra = data.draw(st.lists(st.sampled_from([1, 2, 5, 7, BIG_PRIME]), max_size=2))
    goods = data.draw(st.sets(st.sampled_from(inst.goods))) if inst.goods else set()
    bundles = [
        Bundle(inst.full_cake(), frozenset(inst.goods)),
        Bundle(data.draw(partial_cakes(inst)), frozenset(goods)),
        data.draw(raw_allocations(inst)),
    ]
    if inst.alpha <= inst.cake_length:
        # exactly alpha is valid; alpha + 1/BIG_PRIME**2 is not, a gap floats mostly lose
        bundles.append(Bundle(normalize([(F(0), inst.alpha)])))
        bundles.append(Bundle(normalize([(F(0), inst.alpha + F(1, BIG_PRIME**2))])))
    for alloc in bundles:
        unit, size, utils = allocation_units(inst, alloc, *extra)
        denominators = [p.denominator for iv in alloc.cake.intervals for p in iv]
        assert all(unit % q == 0 for q in [inst.index.denominator, *extra, *denominators])
        assert F(size, unit) == alloc.size()
        assert [F(u, unit) for u in utils] == naive_utilities(inst, alloc)
        expected = naive_validate(inst, alloc)
        if expected is None:
            assert inst.validate_allocation(alloc, *extra) == (unit, size, utils)
        else:
            with pytest.raises(type(expected)) as info:
                inst.validate_allocation(alloc, *extra)
            assert str(info.value) == str(expected)


@given(instances(max_agents=3))
@settings(max_examples=30, deadline=None)
def test_gpav_certified_bound_covers_grid_oracle(inst):
    sol = generalized_pav(inst)
    _, opt = oracle_discretized_opt(inst, "gpav", EnumerationConfig(cake_grid=3))
    assert sol.score.value + sol.optimality_gap + 2 * sol.score.abs_error_bound >= float(opt)
    if inst.cake_length == 0:
        assert abs(sol.score.value - float(opt)) <= 1e-9


class RecordingTieBreaker(greedy.DefaultTieBreaker):
    def __init__(self):
        self.calls = []

    def choose(self, inst, remaining, t_star, achieving_groups):
        self.calls.append((remaining, t_star, achieving_groups))
        return super().choose(inst, remaining, t_star, achieving_groups)


def naive_round(inst, remaining):
    """Best t and its achieving groups, in the remaining pool's closure order."""
    best, groups = F(0), []
    for bundle, approvers in naive_closure(inst, remaining):
        cap = F(len(approvers)) * inst.alpha / inst.n
        t = exact_size_ref(len(bundle.goods), bundle.cake.measure(), cap)
        if t > best:
            best, groups = t, [approvers]
        elif t == best and t > 0:
            groups.append(approvers)
    return best, groups


# In its second round, groups {1} and {2} first appear in the full closure
# in the opposite order to their bundles in the remaining pool's closure.
ORDER_CASE = instance_from_dict({
    "cake_length": "2",
    "goods": ["g1", "g2", "g3"],
    "alpha": "15/4",
    "agents": [
        {"goods": ["g2"], "cake": [["0", "25/16"]]},
        {"goods": ["g1"], "cake": [["0", "5/16"], ["1", "25/16"]]},
        {"goods": [], "cake": [["0", "5/16"], ["25/16", "2"]]},
        {"goods": ["g2"], "cake": [["25/16", "2"]]},
        {"goods": ["g3"], "cake": [["5/16", "1"], ["25/16", "2"]]},
    ],
})


@given(instances())
@example(ORDER_CASE)
@settings(max_examples=60, deadline=None)
def test_greedy_rounds_match_pool_closure(inst):
    policy = RecordingTieBreaker()
    greedy_ejr_m(inst, tie_breaker=policy)
    for remaining, t_star, groups in policy.calls:
        assert (t_star, groups) == naive_round(inst, remaining)


@given(instances())
@settings(max_examples=80, deadline=None)
def test_tier_tables_match_fraction_thresholds(inst):
    index = inst.index
    positive = [(b, approvers) for b, approvers in naive_closure(inst) if b.size() > 0]
    for exact in (False, True):
        table = index.tiers(exact)
        assert [(index.bundle(row), frozenset(row.approvers)) for row, _ in table] == positive
        for row, thresholds in table:
            bundle = index.bundle(row)
            caps = [F(k) * inst.alpha / inst.n for k in range(1, len(row.approvers) + 1)]
            if exact:
                expected = [
                    exact_size_ref(len(bundle.goods), bundle.cake.measure(), cap) for cap in caps
                ]
            else:
                expected = [min(cap, bundle.size()) for cap in caps]
            assert [F(t, index.denominator) for t in thresholds] == expected
            assert list(thresholds) == sorted(thresholds)
        assert index.tiers(exact) is table


# ---------------------------------------------------------------------------
# One allocation pass per bundle, kept on the instance

CHAIN = (
    verify_ejr_m,
    verify_ejr_1,
    lambda inst, alloc: verify_ejr_1(inst, alloc, margin=1e-6),
    lambda inst, alloc: audit_degree(inst, alloc, "ejr-1"),
)


def fresh(inst):
    """An equal instance with no index and no kept allocation pass."""
    return Instance(inst.cake_length, inst.goods, inst.agents, inst.alpha)


def outcome(call, *args):
    try:
        return call(*args)
    except InvalidAllocationError as exc:
        return f"InvalidAllocationError: {exc}"


def chain_on(inst, alloc):
    """The chain's reports in order, all on ``inst``."""
    return [outcome(call, inst, alloc) for call in CHAIN]


def chain_fresh(inst, alloc):
    """The chain's reports, each on its own fresh instance."""
    return [outcome(call, fresh(inst), alloc) for call in CHAIN]


@st.composite
def valid_allocations(draw, inst):
    """A goods subset within alpha and a partial cake cut to the rest."""
    goods = sorted(draw(st.sets(st.sampled_from(inst.goods)))) if inst.goods else []
    goods = goods[: math.floor(inst.alpha)]
    cake = draw(partial_cakes(inst))
    cake = cake.prefix(min(cake.measure(), inst.alpha - len(goods)))
    return Bundle(cake, frozenset(goods))


@given(instances(max_agents=4), st.data())
@settings(max_examples=60, deadline=None)
def test_kept_pass_gives_the_reports_of_fresh_instances(inst, data):
    for alloc in [data.draw(valid_allocations(inst)), *allocations(inst)]:
        expected = chain_fresh(inst, alloc)
        assert chain_on(inst, alloc) == expected
        twin = Bundle(IntervalSet(tuple(alloc.cake.intervals)), frozenset(alloc.goods))
        assert twin == alloc and twin is not alloc
        assert chain_on(inst, twin) == expected
        assert chain_on(inst, alloc) == expected


def test_kept_pass_is_keyed_by_the_extra_denominators(fig1):
    bundle = Bundle(normalize([(F(0), F(1, 2))]), frozenset({"g1"}))
    kept = fig1.validate_allocation(bundle)
    assert fig1.validate_allocation(bundle) is kept
    assert type(kept[2]) is tuple
    for extra in ((7,), (BIG_PRIME,), (7, 3), ()):
        got = fig1.validate_allocation(bundle, *extra)
        assert got == fresh(fig1).validate_allocation(bundle, *extra)
        assert all(got[0] % q == 0 for q in extra)


@given(instances(max_agents=4), st.sampled_from(["intervals", "pair", "goods"]), st.data())
@settings(max_examples=80, deadline=None)
def test_mutable_bundles_are_measured_on_every_call(inst, part, data):
    first, second = data.draw(valid_allocations(inst)), data.draw(valid_allocations(inst))
    if part == "intervals":
        pairs = list(first.cake.intervals)
        bundle = Bundle(IntervalSet(pairs), first.goods)
        after = Bundle(second.cake, first.goods)

        def mutate():
            pairs[:] = second.cake.intervals
    elif part == "pair":
        if not first.cake.intervals:
            return
        pairs = tuple(list(pair) for pair in first.cake.intervals)
        bundle = Bundle(IntervalSet(pairs), first.goods)
        lo, hi = first.cake.intervals[0]
        after = Bundle(normalize([(lo, (lo + hi) / 2), *first.cake.intervals[1:]]), first.goods)

        def mutate():
            pairs[0][1] = (lo + hi) / 2
    else:
        goods = set(first.goods)
        bundle = Bundle(first.cake, goods)
        after = Bundle(first.cake, second.goods)

        def mutate():
            goods.clear()
            goods.update(second.goods)
    assert inst.validate_allocation(bundle) == fresh(inst).validate_allocation(first)
    assert chain_on(inst, bundle) == chain_fresh(inst, first)
    mutate()
    assert outcome(inst.validate_allocation, bundle) == outcome(
        fresh(inst).validate_allocation, after
    )
    assert chain_on(inst, bundle) == chain_fresh(inst, after)


@given(instances(max_agents=4), st.data())
@settings(max_examples=40, deadline=None)
def test_invalid_bundles_raise_on_every_call(inst, data):
    valid = data.draw(valid_allocations(inst))
    invalid = [Bundle(valid.cake, valid.goods | {"zz"})]
    if inst.alpha < inst.cake_length + inst.m:
        invalid.append(Bundle(inst.full_cake(), frozenset(inst.goods)))
    c = inst.cake_length
    if c > 0:
        invalid.append(Bundle(IntervalSet(((c / 2, c / 4),))))
        invalid.append(Bundle(IntervalSet(((F(0), c / 2), (c / 4, c)))))
    for bundle in invalid:
        inst.validate_allocation(valid)
        for _ in range(2):
            with pytest.raises(InvalidAllocationError):
                inst.validate_allocation(bundle)
            for call in CHAIN:
                with pytest.raises(InvalidAllocationError):
                    call(inst, bundle)
        assert chain_on(inst, valid) == chain_fresh(inst, valid)


# ---------------------------------------------------------------------------
# Lifetime and capacity


def test_equal_instances_do_not_share_an_index(fig1):
    twin = instance_from_dict(instance_to_dict(fig1))
    assert twin == fig1
    assert twin.index is not fig1.index
    assert twin.index is twin.index


def test_index_dies_with_its_instance(fig1):
    inst = instance_from_dict(instance_to_dict(fig1))
    verify_ejr_m(inst, Bundle())
    ref = weakref.ref(inst.index)
    del inst
    gc.collect()
    assert ref() is None


def test_failed_build_is_not_cached(fig1):
    # fig1's closure has 3 bundles from 2 distinct approvals
    with patch.object(core, "DEFAULT_CLOSURE_CAP", 2):
        for _ in range(2):
            with pytest.raises(CapacityError):
                approval_closure(fig1)
            with pytest.raises(CapacityError):
                verify_ejr_m(fig1, Bundle())
    with patch.object(core, "DEFAULT_CLOSURE_CAP", 3):
        assert approval_closure(fig1) == naive_closure(fig1)


def test_kept_tier_tables_are_read_without_the_closure(fig1, monkeypatch):
    """Once both tier tables are kept, no verifier, audit or profile
    listing goes back to ``closure()``, and every report is the same."""
    bundle = Bundle(fig1.full_cake())

    def calls():
        return [
            verify_ejr_m(fig1, bundle),
            verify_ejr_1(fig1, bundle),
            audit_degree(fig1, bundle, "ejr-1"),
            cohesive_profiles(fig1, bundle),
        ]

    first = calls()

    def no_closure(*args, **kwargs):
        raise AssertionError("closure() called after both tier tables were kept")

    monkeypatch.setattr(InstanceIndex, "closure", no_closure)
    assert calls() == first
    assert not first[0].passed


def test_tier_tables_are_built_per_mode_and_not_on_failure(fig1):
    index = fig1.index
    with patch.object(core, "DEFAULT_CLOSURE_CAP", 2):
        with pytest.raises(CapacityError):
            verify_ejr_1(fig1, Bundle())
        with pytest.raises(CapacityError):
            index.tiers(True)
    assert index._tiers == {}
    audit_degree(fig1, Bundle(), "ejr-1")
    assert set(index._tiers) == {False}
    verify_ejr_m(fig1, Bundle())
    assert set(index._tiers) == {False, True}


@given(instances(), st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_capacity_error_exactly_when_closure_exceeds_cap(inst, cap, data):
    pool = data.draw(st.sets(st.integers(0, inst.n - 1), min_size=1))
    with patch.object(core, "DEFAULT_CLOSURE_CAP", cap):
        for agents in (None, frozenset(pool)):
            size = len(naive_closure(inst, agents))
            distinct = len({inst.agents[i] for i in (range(inst.n) if agents is None else agents)})
            if size > max(cap, distinct):
                with pytest.raises(CapacityError, match=f"^approval closure exceeds {cap} bundles$"):
                    approval_closure(inst, agents)
            else:
                assert len(approval_closure(inst, agents)) == size


def test_cap_is_at_least_the_distinct_approvals():
    # nested approvals: the closure is the two approvals themselves
    inst = Instance(
        F(1), (), (Bundle(normalize([(F(0), F(1, 2))])), Bundle(normalize([(F(0), F(1))]))), F(1)
    )
    with patch.object(core, "DEFAULT_CLOSURE_CAP", 1):
        assert approval_closure(inst) == naive_closure(inst)
        assert len(approval_closure(inst, frozenset({0, 1}))) == 2


# ---------------------------------------------------------------------------
# Greedy invariants


OVER_BUDGET = """
from mixvote.core import Bundle
from mixvote.errors import InvariantError
from mixvote.generate import gen_fig1
from mixvote.rules import greedy

assert False, "this script must run under python -O"

def over_budget(self, inst, remaining, t_star, groups):
    return groups[0], Bundle(inst.full_cake(), frozenset(inst.goods))

greedy.DefaultTieBreaker.choose = over_budget
try:
    greedy.greedy_ejr_m(gen_fig1()[0])
except InvariantError as exc:
    print("InvariantError:", exc)
"""


def over_budget(self, inst, remaining, t_star, groups):
    return groups[0], Bundle(inst.full_cake(), frozenset(inst.goods))


def test_budget_invariant_survives_optimize_flag():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OVER_BUDGET],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InvariantError: greedy allocation size 29/10 exceeds alpha 2")


def test_invariant_error_maps_to_internal_exit_code(tmp_path, fig1, monkeypatch):
    path = tmp_path / "fig1.json"
    save_json(str(path), instance_to_dict(fig1))
    monkeypatch.setattr(greedy.DefaultTieBreaker, "choose", over_budget)
    with pytest.raises(InvariantError):
        greedy_ejr_m(fig1)
    code = dispatch(["run", "--rule", "greedy-ejr-m", "--instance", str(path)])
    assert code == EXIT_INTERNAL


# ---------------------------------------------------------------------------
# Allocation validation under python -O


INVALID_ALLOCATIONS = """
from fractions import Fraction
from mixvote import audit_degree, verify_ejr_1, verify_ejr_m
from mixvote.core import Bundle, IntervalSet, normalize
from mixvote.errors import InvalidAllocationError
from mixvote.generate import gen_fig1

assert False, "this script must run under python -O"

inst = gen_fig1()[0]
checks = (verify_ejr_m, verify_ejr_1, lambda i, b: audit_degree(i, b, "ejr-1"))
for bundle in (
    Bundle(inst.full_cake(), frozenset(inst.goods)),
    Bundle(normalize([(Fraction(0), Fraction(1))])),
):
    for check in checks:
        try:
            check(inst, bundle)
        except InvalidAllocationError as exc:
            print("InvalidAllocationError:", exc)
# built without normalize; every call after a valid one on the same object
for bundle in (
    Bundle(IntervalSet(((Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(9, 10))))),
    Bundle(IntervalSet(((Fraction(1, 2), Fraction(1, 5)),))),
    Bundle(IntervalSet(((Fraction(0), 0.5),))),
):
    verify_ejr_m(inst, Bundle())
    for check in checks * 2:
        try:
            check(inst, bundle)
        except InvalidAllocationError as exc:
            print("InvalidAllocationError:", exc)
"""

OVERSIZE = "allocation size 29/10 exceeds alpha 2"
PAST_C = "allocation cake outside [0, c]"
OVERLAP = "allocation cake with overlapping pairs: [1/4, 9/10] starts before 1/2"
REVERSED = "allocation cake with a reversed pair [1/2, 1/5]"
FLOAT = "allocation cake with a non-rational endpoint 0.5"

REVERSED_APPROVAL = """
from fractions import Fraction as F
from mixvote import core
from mixvote.core import Bundle, Instance, IntervalSet, approval_closure
from mixvote.errors import CapacityError, InvalidGroupError, MalformedIntervalError
from mixvote.generate import gen_fig1

assert False, "this script must run under python -O"

try:
    Instance(
        F(1), (), (Bundle(IntervalSet(((F(1, 2), F(1, 4)),))), Bundle(IntervalSet(((F(0), F(1)),)))), F(1)
    )
except MalformedIntervalError as exc:
    print("MalformedIntervalError:", exc)
try:
    Instance(F(1), (), (Bundle(IntervalSet(((F(0), 0.5),))),), F(1))
except MalformedIntervalError as exc:
    print("MalformedIntervalError:", exc)
try:
    approval_closure(gen_fig1()[0], frozenset({-1}))
except InvalidGroupError as exc:
    print("InvalidGroupError:", exc)
core.DEFAULT_CLOSURE_CAP = 2
try:
    approval_closure(gen_fig1()[0])
except CapacityError as exc:
    print("CapacityError:", exc)
"""


def test_reversed_approval_rejected_under_optimize_flag():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", REVERSED_APPROVAL],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "MalformedIntervalError: agent 0 approves cake with a reversed pair [1/2, 1/4]",
        "MalformedIntervalError: agent 0 approves cake with a non-rational endpoint 0.5",
        "InvalidGroupError: agent index out of range",
        "CapacityError: approval closure exceeds 2 bundles",
    ]


def test_allocation_checks_survive_optimize_flag(tmp_path, fig1):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INVALID_ALLOCATIONS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [OVERSIZE] * 3 + [PAST_C] * 3
    expected += [OVERLAP] * 6 + [REVERSED] * 6 + [FLOAT] * 6
    assert proc.stdout.splitlines() == [f"InvalidAllocationError: {m}" for m in expected]
    inst = tmp_path / "fig1.json"
    save_json(str(inst), instance_to_dict(fig1))
    for cake, goods, message in (
        ([["0", "9/10"]], ["g1", "g2"], OVERSIZE),
        ([["0", "1"]], [], PAST_C),
    ):
        alloc = tmp_path / "alloc.json"
        save_json(str(alloc), {"cake": cake, "goods": goods})
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "mixvote.cli", "verify", "--axiom", "ejr-m",
             "--instance", str(inst), "--allocation", str(alloc)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert f"error: {message}" in proc.stderr
