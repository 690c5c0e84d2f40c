"""Oracle tests: enumeration counts, impossibility scans, discretized optima."""

import importlib
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixvote import (
    Bundle,
    Instance,
    enumerate_allocations,
    generalized_pav,
    normalize,
    oracle_discretized_opt,
    oracle_min_max_avg,
    oracle_no_ejr_beta,
)
from mixvote.errors import CapacityError, DomainError
from mixvote.generate import gen_appendix, gen_prop1, gen_prop4, gen_random
from mixvote.harmonic import exact_pav_score, gpav_score, harmonic
from mixvote.oracle import EnumerationConfig, _cohesive_groups, _grid_cells

from conftest import make_mixed
from test_index import instances


class TestEnumerationCounts:
    def test_three_goods_budget_two(self):
        inst = gen_random(n=2, m=3, cake_atoms=0, alpha=F(2), density=0.5, seed=1)
        assert sum(1 for _ in enumerate_allocations(inst)) == 7

    def test_prop4_counts(self):
        inst, _ = gen_prop4(1)
        assert sum(1 for _ in enumerate_allocations(inst)) == 57

    def test_fig1_grid_nine(self, fig1):
        cfg = EnumerationConfig(cake_grid=9)
        # 9 cells of length 1/10: all masks fit alpha for 0 or 1 good,
        # only the empty mask fits alongside both goods
        count = sum(1 for _ in enumerate_allocations(fig1, cfg))
        assert count == 512 + 2 * 512 + 1

    def test_capacity_guard(self, fig1):
        with pytest.raises(CapacityError):
            list(enumerate_allocations(fig1, EnumerationConfig(cake_grid=9, max_candidates=10)))

    def test_cells_align_with_breakpoints(self):
        inst = make_mixed(7, atoms_max=3)
        cfg = EnumerationConfig(cake_grid=4, max_candidates=1 << 22)
        for bundle in enumerate_allocations(inst, cfg):
            assert bundle.size() <= inst.alpha
            break


def enumerate_ref(inst, cfg):
    """Reference enumeration on Fractions: cell lengths summed against the
    budget alpha - |goods|, chosen cells merged by ``normalize``."""
    cells = _grid_cells(inst, cfg.cake_grid)
    max_goods = min(inst.m, math.floor(inst.alpha))
    good_subsets = sum(math.comb(inst.m, k) for k in range(max_goods + 1))
    candidates = good_subsets * (2 ** len(cells))
    if candidates > cfg.max_candidates:
        raise CapacityError(
            f"enumeration would visit {candidates} candidates "
            f"(cap {cfg.max_candidates})"
        )
    cell_lengths = [hi - lo for lo, hi in cells]
    for size in range(max_goods + 1):
        for combo in itertools.combinations(range(inst.m), size):
            goods = frozenset(inst.goods[i] for i in combo)
            budget = inst.alpha - size
            for mask in range(2 ** len(cells)):
                total = F(0)
                chosen = []
                feasible = True
                for j in range(len(cells)):
                    if mask >> j & 1:
                        total += cell_lengths[j]
                        if total > budget:
                            feasible = False
                            break
                        chosen.append(cells[j])
                if not feasible:
                    continue
                yield Bundle(cake=normalize(chosen), goods=goods)


def _listed(enumeration):
    try:
        return list(enumeration)
    except CapacityError as exc:
        return str(exc)


@given(instances(max_agents=4), st.integers(1, 4), st.sampled_from([None, 1, 2, 3, 5]), st.data())
@settings(max_examples=80, deadline=None)
def test_enumeration_matches_fraction_reference(inst, grid, share, data):
    if share is not None:
        # alpha a fraction of c + m with a small denominator
        total = inst.cake_length + inst.m
        k = data.draw(st.integers(1, 2 * share))
        inst = Instance(inst.cake_length, inst.goods, inst.agents, total * F(k, 2 * share))
    cfg = EnumerationConfig(cake_grid=grid, max_candidates=1 << 12)
    got = _listed(enumerate_allocations(inst, cfg))
    assert got == _listed(enumerate_ref(inst, cfg))
    if not isinstance(got, str):
        assert len(got) > 0
        for bundle in got:
            assert normalize(bundle.cake.intervals) == bundle.cake
            assert bundle.size() <= inst.alpha


class TestNoEjrBeta:
    def test_prop1_impossibility(self):
        inst, _ = gen_prop1(F(1, 2), 4)
        assert oracle_no_ejr_beta(inst, F(2, 5), "weak") is True

    def test_prop1_relaxed_to_one_is_satisfiable(self):
        inst, _ = gen_prop1(F(1, 2), 4)
        assert oracle_no_ejr_beta(inst, F(1), "weak") is False

    def test_universal_good_weak_zero_satisfiable(self):
        inst = Instance(
            cake_length=F(0),
            goods=("g1",),
            agents=tuple(Bundle(goods=frozenset({"g1"})) for _ in range(3)),
            alpha=F(1),
        )
        assert oracle_no_ejr_beta(inst, F(0), "weak") is False


class TestMinMaxAvg:
    def test_appendix_value(self):
        inst, _ = gen_appendix(F(3, 2), F(1, 4), F(1, 4), 4)
        assert oracle_min_max_avg(inst, F(3, 2)) == F(5, 6)

    def test_covering_allocation_reaches_sup(self):
        inst = Instance(
            cake_length=F(0),
            goods=("g1",),
            agents=tuple(Bundle(goods=frozenset({"g1"})) for _ in range(3)),
            alpha=F(1),
        )
        assert oracle_min_max_avg(inst, F(1)) == 1

    def test_vacuous_when_no_cohesive_group(self):
        inst = gen_prop1(F(1, 2), 4)[0]
        assert oracle_min_max_avg(inst, F(2)) is None


class TestDiscretizedOpt:
    def test_fig1_gpav_grid_nine(self, fig1):
        bundle, score = oracle_discretized_opt(
            fig1, "gpav", EnumerationConfig(cake_grid=9)
        )
        expected = harmonic(F(19, 10)).value + harmonic(F(9, 10)).value
        assert abs(score - expected) < 1e-9
        assert len(bundle.goods) == 1
        assert bundle.cake.measure() == F(9, 10)

    def test_exact_on_indivisible(self):
        inst = gen_random(n=3, m=5, cake_atoms=0, alpha=F(2), density=0.6, seed=11)
        _, score = oracle_discretized_opt(inst, "gpav")
        sol = generalized_pav(inst)
        assert abs(float(score) - sol.score.value) <= 1e-9

    def test_identical_approvals_take_max_size(self):
        inst = gen_random(n=3, m=2, cake_atoms=0, alpha=F(2), density=1.0, seed=3)
        bundle, _ = oracle_discretized_opt(inst, "gpav")
        assert bundle.goods == frozenset(inst.goods)

    @pytest.mark.parametrize("seed", [0, 5, 10])
    def test_grid_resolution_bound_versus_solver(self, seed):
        inst = make_mixed(seed, n_max=4, m_max=2, atoms_max=2)
        grid = 6
        _, score = oracle_discretized_opt(
            inst, "gpav", EnumerationConfig(cake_grid=grid, max_candidates=1 << 22)
        )
        sol = generalized_pav(inst)
        # the objective is at most pi^2/6-Lipschitz per unit of cake
        bound = (math.pi**2 / 6) * float(inst.cake_length) / grid * inst.n + 1e-6
        assert sol.score.value >= score - 1e-9
        assert abs(sol.score.value - score) <= bound

    def test_nash_objective(self):
        inst, _ = gen_prop4(1)
        bundle, score = oracle_discretized_opt(inst, "nash")
        assert score[0] == 12  # all agents covered


def reference_opt(inst, objective, cfg):
    """The scorer before the utility table: each agent's ``intersect().size()``
    per bundle, scored by ``exact_pav_score``, ``gpav_score`` or the Nash key."""
    best_bundle, best_score = None, None
    for bundle in enumerate_allocations(inst, cfg):
        utils = [agent.intersect(bundle).size() for agent in inst.agents]
        if objective == "nash":
            positive = [u for u in utils if u > 0]
            score = (len(positive), math.prod(positive) if positive else F(0))
        elif inst.cake_length == 0:
            score = exact_pav_score(int(u) for u in utils)
        else:
            score = gpav_score(inst, bundle).value
        if best_score is None or score > best_score:
            best_bundle, best_score = bundle, score
    return best_bundle, best_score


def reference_min_max_avg(inst, t, cfg):
    """min-max-avg on ``Fraction`` utilities from per-agent intersections."""
    groups = _cohesive_groups(inst, F(t))
    if not groups:
        return None
    best = None
    for bundle in enumerate_allocations(inst, cfg):
        utils = [agent.intersect(bundle).size() for agent in inst.agents]
        worst = min(sum((utils[i] for i in g), F(0)) / len(g) for g in groups)
        if best is None or worst > best:
            best = worst
    return best


def _outcome(call, *args):
    try:
        return call(*args)
    except CapacityError as exc:
        return str(exc)


@given(instances(max_agents=4), st.integers(1, 4), st.sampled_from([F(1, 2), F(1), F(2)]))
@settings(max_examples=100, deadline=None)
def test_scoring_matches_reference(inst, grid, t):
    cfg = EnumerationConfig(cake_grid=grid, max_candidates=1 << 10)
    pairs = [
        (_outcome(oracle_discretized_opt, inst, objective, cfg), _outcome(reference_opt, inst, objective, cfg))
        for objective in ("gpav", "nash")
    ]
    pairs.append((_outcome(oracle_min_max_avg, inst, t, cfg), _outcome(reference_min_max_avg, inst, t, cfg)))
    for got, want in pairs:
        assert got == want
        # the same type, and for a float the same bits
        score = got[1] if isinstance(got, tuple) else got
        assert repr(score) == repr(want[1] if isinstance(want, tuple) else want)


def test_scoring_reads_no_verifier_pass(fig1, monkeypatch):
    """The oracles build their own utilities: the index's utility pass and
    ``gpav_score``, which the verifiers and gpav share, are never called."""
    indivisible = gen_random(n=4, m=4, cake_atoms=0, alpha=F(2), density=0.6, seed=11)

    def shared(*args, **kwargs):
        raise AssertionError("the oracle called a verifier's utility pass")

    # the package exports a function named harmonic, so reach the module itself
    monkeypatch.setattr(importlib.import_module("mixvote.core"), "allocation_units", shared)
    monkeypatch.setattr(importlib.import_module("mixvote.harmonic"), "gpav_score", shared)
    cfg = EnumerationConfig(cake_grid=3)
    for inst in (fig1, indivisible):
        for objective in ("gpav", "nash"):
            oracle_discretized_opt(inst, objective, cfg)
        oracle_min_max_avg(inst, F(1), cfg)


def test_grid_reads_no_index(fig1, monkeypatch):
    """The grid is cut at the approvals' own endpoints, so no oracle builds
    the instance index that the verifiers and rules read."""
    def no_index(inst):
        raise AssertionError("the oracle built the instance index")

    monkeypatch.setattr(importlib.import_module("mixvote.core"), "InstanceIndex", no_index)
    assert sum(1 for _ in enumerate_allocations(fig1)) > 0
    for objective in ("gpav", "nash"):
        oracle_discretized_opt(fig1, objective)
    assert oracle_min_max_avg(fig1, F(1)) is not None


def _tenth_pair():
    """Two agents who approve [0, 1/10] of a cake of length 1, alpha 1."""
    cake = normalize([(F(0), F(1, 10))])
    return Instance(F(1), (), (Bundle(cake), Bundle(cake)), F(1))


def test_min_max_avg_at_an_exact_t():
    assert oracle_min_max_avg(_tenth_pair(), F(1, 10)) == F(1, 10)


@pytest.mark.parametrize("t", [0.1, True, 1.0])
def test_min_max_avg_rejects_an_inexact_t(t):
    with pytest.raises(DomainError, match=f"^t must be an int or a Fraction, got {t!r}$"):
        oracle_min_max_avg(_tenth_pair(), t)


@pytest.mark.parametrize("objective", ["foo", "GPAV", "", None])
def test_discretized_opt_rejects_an_unknown_objective(fig1, objective):
    with pytest.raises(DomainError, match=f"^unknown objective {objective!r}$"):
        oracle_discretized_opt(fig1, objective)
