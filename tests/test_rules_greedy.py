"""Greedy rule tests: exact-size search, traces, and the subset-scan oracle."""

import hashlib
import json
import re
import time
from fractions import Fraction as F

import pytest

from mixvote import (
    Bundle,
    Instance,
    common_bundle,
    gen_random,
    greedy_ejr_m,
    normalize,
    utilities,
    verify_cake_ejr,
    verify_ejr_m,
)
from mixvote.core import allocation_to_dict
from mixvote.errors import ScriptError
from mixvote.rules import achievable_exact_size

from conftest import brute_max_round_t, make_mixed


class TestAchievableExactSize:
    def test_one_good_with_cake_caps_at_one(self):
        assert achievable_exact_size(1, F(9, 10), F(1)) == 1

    def test_goods_only_floors_at_cap(self):
        assert achievable_exact_size(2, F(0), F(3, 2)) == 1

    def test_pure_cake_takes_cap(self):
        assert achievable_exact_size(0, F(5), F(7, 3)) == F(7, 3)

    def test_gap_between_intervals(self):
        # achievable sizes are [0,1/4] u [1,5/4] u [2,9/4]; cap 3/2 lands on 5/4
        assert achievable_exact_size(2, F(1, 4), F(3, 2)) == F(5, 4)

    def test_zero_cap(self):
        assert achievable_exact_size(3, F(1), F(0)) == 0

    @pytest.mark.parametrize("m,num,den,cnum,cden", [
        (0, 1, 3, 1, 2), (1, 0, 1, 5, 4), (2, 1, 3, 7, 4),
        (3, 1, 2, 9, 4), (1, 3, 4, 2, 1), (4, 2, 3, 10, 3),
    ])
    def test_against_candidate_scan(self, m, num, den, cnum, cden):
        ell, cap = F(num, den), F(cnum, cden)
        result = achievable_exact_size(m, ell, cap)
        candidates = {cap} | {F(j) for j in range(m + 1)} | {F(j) + ell for j in range(m + 1)}
        feasible = [
            t for t in candidates
            if 0 <= t <= cap and any(j <= t <= j + ell for j in range(m + 1))
        ]
        assert result == max(feasible, default=F(0))
        assert any(j <= result <= j + ell for j in range(m + 1)) or result == 0


class TestFig1Execution:
    def test_paper_trace(self, fig1):
        alloc, trace = greedy_ejr_m(fig1)
        assert alloc.goods == frozenset({"g1", "g2"})
        assert alloc.cake.is_empty
        assert [(r.t_star, set(r.group)) for r in trace.rounds] == [
            (F(1), {0}),
            (F(1), {1}),
        ]
        assert trace.rounds[0].witness.goods == frozenset({"g1"})
        assert utilities(fig1, alloc) == [F(1), F(1)]

    def test_single_agent_cake(self):
        inst = Instance(
            cake_length=F(1),
            goods=(),
            agents=(Bundle(cake=normalize([(F(0), F(1))])),),
            alpha=F(1),
        )
        alloc, trace = greedy_ejr_m(inst)
        assert alloc.cake.measure() == 1
        assert utilities(inst, alloc) == [F(1)]


@pytest.mark.parametrize("seed", range(40))
def test_rounds_match_subset_scan_oracle_and_invariants(seed):
    inst = make_mixed(seed, n_max=6, m_max=4, atoms_max=3)
    alloc, trace = greedy_ejr_m(inst)
    assert alloc.size() <= inst.alpha
    remaining = set(range(inst.n))
    prev = None
    rebuilt = Bundle()
    for r in trace.rounds:
        assert r.t_star == brute_max_round_t(inst, remaining)
        if r.t_star > 0:
            assert len(r.group) * inst.alpha >= r.t_star * inst.n
            common = common_bundle(inst, r.group)
            assert common.contains(r.witness)
            assert r.witness.size() == r.t_star
        assert prev is None or r.t_star <= prev
        prev = r.t_star
        rebuilt = rebuilt.union(r.witness)
        assert set(r.group) <= remaining
        remaining -= set(r.group)
    assert not remaining
    assert rebuilt == alloc
    assert verify_ejr_m(inst, alloc).passed


# sha256 of every allocation and round (t*, sorted group, witness) over
# make_mixed(0..39); the group order and the witnesses depend on tie-breaks
GOLDEN_GREEDY = "baccc67279e9d7ae198a3b62689da49c5cbb6fe8b214a47f121732d5c5df499f"


def test_golden_greedy():
    digest = hashlib.sha256()
    for seed in range(40):
        inst = make_mixed(seed)
        alloc, trace = greedy_ejr_m(inst)
        rounds = [
            [str(r.t_star), sorted(r.group), allocation_to_dict(inst, r.witness)]
            for r in trace.rounds
        ]
        blob = json.dumps([allocation_to_dict(inst, alloc), rounds], sort_keys=True)
        digest.update(blob.encode())
    assert digest.hexdigest() == GOLDEN_GREEDY


@pytest.mark.parametrize("seed", [3, 9, 15, 21, 33])
def test_pure_cake_output_satisfies_cake_ejr(seed):
    inst = make_mixed(seed, m_max=0, atoms_max=4)
    assert inst.m == 0
    alloc, _ = greedy_ejr_m(inst)
    assert verify_cake_ejr(inst, alloc).passed


def test_no_agent_cap():
    # n=21 was refused without force=True, which greedy no longer takes
    inst = gen_random(n=21, m=2, cake_atoms=0, alpha=F(1), density=0.4, seed=0)
    alloc, _ = greedy_ejr_m(inst)
    assert alloc.size() <= inst.alpha
    assert verify_ejr_m(inst, alloc).passed
    with pytest.raises(TypeError):
        greedy_ejr_m(inst, force=True)


def rounds_digest(inst, trace) -> tuple[int, str]:
    """The number of rounds and the sha256 of their (t*, sorted group, witness)."""
    rounds = [
        [str(r.t_star), sorted(r.group), allocation_to_dict(inst, r.witness)]
        for r in trace.rounds
    ]
    return len(rounds), hashlib.sha256(json.dumps(rounds, sort_keys=True).encode()).hexdigest()


# the rounds' digest at n=300, m=30, 30 atoms, pinned from the rule as it
# ran under force=True before the agent cap went
GOLDEN_GREEDY_300 = "5489be003c4d6a1cb9e267007d0dec0bbcf743ad906a1a7a280de373c6633a1f"


def test_mes_scale_rounds_pinned():
    inst = gen_random(n=300, m=30, cake_atoms=30, alpha=F(45, 4), density=0.05, seed=7)
    started = time.perf_counter()
    alloc, trace = greedy_ejr_m(inst)
    elapsed = time.perf_counter() - started
    assert rounds_digest(inst, trace) == (31, GOLDEN_GREEDY_300)
    assert verify_ejr_m(inst, alloc).passed
    assert elapsed < 1.0


# the rounds' digest at mes-scale's n=1000 row (m=100, 100 atoms), pinned
# from the rule as it ran when each round still ordered its groups by row
GOLDEN_GREEDY_1000 = "99e7e4cc21a07ab01463314bce0f7b34f761177cd5b6909e2c5648e156f1866f"


def test_mes_scale_rounds_pinned_at_n1000():
    inst = gen_random(n=1000, m=100, cake_atoms=100, alpha=F(75, 2), density=0.05, seed=7)
    _, trace = greedy_ejr_m(inst)
    assert rounds_digest(inst, trace) == (69, GOLDEN_GREEDY_1000)


class TestScriptedPolicy:
    def test_wrong_witness_size_rejected(self, fig1):
        script = [([0], Bundle(goods=frozenset({"g1", "g2"})))]
        with pytest.raises(ScriptError):
            greedy_ejr_m(fig1, script=script)

    def test_unapproved_witness_rejected(self, fig1):
        script = [([0], Bundle(goods=frozenset({"g2"})))]
        with pytest.raises(ScriptError):
            greedy_ejr_m(fig1, script=script)

    @pytest.mark.parametrize("member", [0.0, True, "0", 7, -1])
    def test_group_member_must_be_an_agent_index(self, fig1, member):
        # 0.0 failed with a TypeError, True ran as agent 1, and "0", 7 and -1
        # were reported as already removed
        script = [([member], Bundle(goods=frozenset({"g2"})))]
        message = rf"^scripted group member {re.escape(repr(member))} is not an agent index in 0\.\.1$"
        with pytest.raises(ScriptError, match=message):
            greedy_ejr_m(fig1, script=script)

    @pytest.mark.parametrize("script, k", [
        ([([1], {"g2"})], 0),  # an AttributeError before
        ([([1],)], 0),  # a ValueError before
        ([5], 0),  # a TypeError before
        ([(1, Bundle(goods=frozenset({"g2"})))], 0),
        ([([1], Bundle(goods=frozenset({"g2"}))), [[0], {"g1"}, None]], 1),
    ])
    def test_step_that_is_not_a_group_bundle_pair_rejected(self, fig1, script, k):
        message = rf"^script step {k} is not a \(group, Bundle\) pair: {re.escape(repr(script[k]))}$"
        with pytest.raises(ScriptError, match=message):
            greedy_ejr_m(fig1, script=script)

    def test_removed_agent_rejected(self, fig1):
        step = ([0], Bundle(goods=frozenset({"g1"})))
        script = [step, step]
        with pytest.raises(ScriptError, match="^scripted group contains already-removed agents$"):
            greedy_ejr_m(fig1, script=script)

    def test_steps_left_after_the_last_round_rejected(self, fig1):
        # fig1 has two positive rounds; the third step is never reached
        script = [
            ([1], Bundle(goods=frozenset({"g2"}))),
            ([0], Bundle(goods=frozenset({"g1"}))),
            ([0], Bundle(goods=frozenset({"g1"}))),
        ]
        with pytest.raises(ScriptError, match=r"^script has 1 step\(s\) left after the last round$"):
            greedy_ejr_m(fig1, script=script)
        alloc, trace = greedy_ejr_m(fig1, script=script[:2])
        assert [set(r.group) for r in trace.rounds] == [{1}, {0}]

    def test_valid_script_steers_the_round(self, fig1):
        # pick agent 2's good first, then fall back to the default policy
        script = [([1], Bundle(goods=frozenset({"g2"})))]
        alloc, trace = greedy_ejr_m(fig1, script=script)
        assert alloc.goods == frozenset({"g1", "g2"})
        assert set(trace.rounds[0].group) == {1}
