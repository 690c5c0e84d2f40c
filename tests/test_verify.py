"""Verifier tests: definitional oracles, witnesses, reductions, and audits."""

import hashlib
import itertools
import json
import re
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixvote import (
    Bundle,
    Instance,
    cohesive_profiles,
    common_bundle,
    generalized_mes,
    greedy_ejr_m,
    normalize,
    utilities,
    verify_cake_ejr,
    verify_ejr_1,
    verify_ejr_beta,
    verify_ejr_m,
)
from mixvote.core import format_rational
from mixvote.errors import (
    DomainError,
    InvalidAllocationError,
    UnsupportedInstanceError,
)
from mixvote.generate import gen_prop4, gen_random
from mixvote import verify as verify_module
from mixvote.oracle import enumerate_allocations, EnumerationConfig, oracle_no_ejr_beta
from mixvote.verify import (
    AxiomReport,
    audit_degree,
    degree_ejr_1,
    degree_ejr_m,
    degree_gpav,
    degree_mes_upper,
)

from conftest import (
    brute_ejr_beta_violation,
    brute_ejr_m_violation,
    make_mixed,
)


def some_allocations(inst, limit=24):
    cfg = EnumerationConfig(cake_grid=2, max_candidates=1 << 20)
    out = []
    for bundle in enumerate_allocations(inst, cfg):
        out.append(bundle)
        if len(out) >= limit:
            break
    return out


class TestFig1Anchors:
    def test_both_goods_pass_exact_witness(self, fig1):
        assert verify_ejr_m(fig1, Bundle(goods=frozenset({"g1", "g2"}))).passed

    def test_cake_only_fails_with_witness(self, fig1):
        report = verify_ejr_m(fig1, Bundle(cake=fig1.full_cake()))
        assert not report.passed
        assert report.witness.group == (0,)
        assert report.witness.t == 1
        assert report.witness.max_utility == F(9, 10)

    def test_cake_only_passes_up_to_one(self, fig1):
        assert verify_ejr_1(fig1, Bundle(cake=fig1.full_cake())).passed

    def test_profiles_report_supremum_thresholds(self, fig1):
        profiles = cohesive_profiles(fig1)
        sups = {(p.group, p.t_cohesive_sup) for p in profiles}
        assert ((0, 1), F(9, 10)) in sups
        assert ((0,), F(1)) in sups
        for p in profiles:
            assert p.t_exact_max <= p.t_cohesive_sup
            assert len(p.group_utilities) == len(p.group)

    def test_oversize_allocation_rejected(self, fig1):
        big = Bundle(cake=fig1.full_cake(), goods=frozenset({"g1", "g2"}))
        with pytest.raises(InvalidAllocationError):
            verify_ejr_m(fig1, big)

    @pytest.mark.parametrize("bundle, message", [
        (Bundle(goods=frozenset({"g1", "zz"})), "unknown goods"),
        (Bundle(cake=normalize([(F(0), F(5))]), goods=frozenset({"g1"})), r"outside \[0, c\]"),
        (Bundle(cake=normalize([(F(0), F(1, 2))]), goods=frozenset({"g1", "g2"})), "exceeds alpha"),
    ])
    def test_profiles_reject_what_the_audit_rejects(self, fig1, bundle, message):
        with pytest.raises(InvalidAllocationError, match=message):
            audit_degree(fig1, bundle, "ejr-m")
        with pytest.raises(InvalidAllocationError, match=message):
            cohesive_profiles(fig1, bundle)

    @pytest.mark.parametrize("check", [
        verify_ejr_m,
        verify_ejr_1,
        lambda inst, bundle: verify_ejr_beta(inst, bundle, 1),
        lambda inst, bundle: audit_degree(inst, bundle, "ejr-m"),
        cohesive_profiles,
    ], ids=["ejr-m", "ejr-1", "ejr-beta", "audit", "profiles"])
    @pytest.mark.parametrize("goods", [["g1"], "g1"])
    def test_goods_not_a_set_rejected(self, fig1, check, goods):
        # a bare TypeError: '<=' not supported between 'list' and 'dict_keys'
        with pytest.raises(InvalidAllocationError, match="^allocation goods must be a set, got"):
            check(fig1, Bundle(goods=goods))


class TestAgainstDefinitionalOracle:
    @pytest.mark.parametrize("seed", range(16))
    def test_ejr_m_matches_subset_grid_scan(self, seed):
        inst = make_mixed(seed, n_max=5, m_max=4, atoms_max=2)
        for alloc in some_allocations(inst, limit=12):
            fast = verify_ejr_m(inst, alloc)
            brute = brute_ejr_m_violation(inst, alloc)
            assert fast.passed == (brute is None)

    @pytest.mark.parametrize("seed", range(16))
    def test_ejr_1_matches_subset_scan(self, seed):
        inst = make_mixed(seed, n_max=5, m_max=4, atoms_max=2)
        for alloc in some_allocations(inst, limit=12):
            fast = verify_ejr_1(inst, alloc)
            brute = brute_ejr_beta_violation(inst, alloc, F(1), "strict")
            assert fast.passed == (brute is None)

    @pytest.mark.parametrize("seed,beta,mode", [
        (1, F(1, 2), "weak"), (4, F(1, 3), "strict"), (7, F(0), "weak"),
    ])
    def test_ejr_beta_matches_subset_scan(self, seed, beta, mode):
        inst = make_mixed(seed, n_max=5, m_max=4, atoms_max=2)
        for alloc in some_allocations(inst, limit=10):
            fast = verify_ejr_beta(inst, alloc, beta, mode)
            brute = brute_ejr_beta_violation(inst, alloc, beta, mode)
            assert fast.passed == (brute is None)


class TestWitnessReValidation:
    @pytest.mark.parametrize("seed", range(10))
    def test_failing_witness_satisfies_raw_inequality(self, seed):
        inst = make_mixed(seed, n_max=5, m_max=4, atoms_max=2)
        for alloc in some_allocations(inst, limit=10):
            report = verify_ejr_m(inst, alloc)
            if report.passed:
                continue
            w = report.witness
            utils = utilities(inst, alloc)
            assert max(utils[i] for i in w.group) == w.max_utility
            assert w.max_utility < w.t
            # the group is t-cohesive and t is an exact witness size
            assert len(w.group) * inst.alpha >= w.t * inst.n
            common = common_bundle(inst, w.group)
            assert common.size() >= w.t
            m_star, ell = len(common.goods), common.cake.measure()
            assert any(j <= w.t <= j + ell for j in range(m_star + 1))


class TestImplicationAndReductions:
    @pytest.mark.parametrize("seed", range(12))
    def test_exact_witness_pass_implies_up_to_one_pass(self, seed):
        inst = make_mixed(seed, n_max=6, m_max=4, atoms_max=2)
        for alloc in some_allocations(inst, limit=16):
            if verify_ejr_m(inst, alloc).passed:
                assert verify_ejr_1(inst, alloc).passed

    @pytest.mark.parametrize("seed", range(10))
    def test_floor_guarantee_under_exact_witness_pass(self, seed):
        # in any passing allocation, every cohesive tier has a member with
        # utility at least floor(t_sup)
        inst = make_mixed(seed, n_max=5, m_max=4, atoms_max=2)
        alloc, _ = greedy_ejr_m(inst)
        assert verify_ejr_m(inst, alloc).passed
        utils = utilities(inst, alloc)
        for p in cohesive_profiles(inst, alloc):
            floor_t = p.t_cohesive_sup.__floor__()
            assert max(utils[i] for i in p.group) >= floor_t

    @pytest.mark.parametrize("seed", range(10))
    def test_indivisible_up_to_one_equals_integer_ejr(self, seed):
        m = 2 + seed % 5
        inst = gen_random(
            n=2 + seed % 5, m=m, cake_atoms=0,
            alpha=F(1 + seed % min(3, m)), density=0.5, seed=300 + seed,
        )

        def integer_ejr(alloc):
            utils = utilities(inst, alloc)
            for t in range(1, int(inst.alpha) + 1):
                for size in range(1, inst.n + 1):
                    if size * inst.alpha < t * inst.n:
                        continue
                    for combo in combinations(range(inst.n), size):
                        common = common_bundle(inst, combo)
                        if common.size() >= t and max(utils[i] for i in combo) < t:
                            return False
            return True

        for alloc in some_allocations(inst, limit=12):
            assert verify_ejr_1(inst, alloc).passed == integer_ejr(alloc)

    def test_staggered_cake_passes_up_to_one_but_fails_cake_ejr(self):
        from mixvote.generate import gen_thm4

        inst, meta = gen_thm4(F(2), 32, F(1, 100), F(1, 4))
        alloc = Bundle(cake=normalize([(F(2), F(4))]))
        assert verify_ejr_1(inst, alloc).passed
        report = verify_cake_ejr(inst, alloc)
        assert not report.passed
        # the full group is 2-cohesive with every utility below 2
        utils = utilities(inst, alloc)
        assert max(utils) < 2

    def test_disjoint_singletons_each_one_cohesive_at_full_budget(self):
        inst = Instance(
            cake_length=F(0),
            goods=("g1", "g2", "g3"),
            agents=tuple(
                Bundle(goods=frozenset({f"g{i + 1}"})) for i in range(3)
            ),
            alpha=F(3),
        )
        profiles = cohesive_profiles(inst)
        singles = {p.group: p.t_cohesive_sup for p in profiles if len(p.group) == 1}
        assert singles == {(0,): F(1), (1,): F(1), (2,): F(1)}

    @pytest.mark.parametrize("seed", [3, 9, 15])
    def test_weak_zero_equals_cake_ejr_on_cake_instances(self, seed):
        inst = make_mixed(seed, m_max=0, atoms_max=3)
        for alloc in some_allocations(inst, limit=12):
            weak0 = verify_ejr_beta(inst, alloc, F(0), "weak")
            cake = verify_cake_ejr(inst, alloc)
            assert weak0.passed == cake.passed


class TestModesAndErrors:
    def test_prop4_cohesive_tier(self):
        inst, _ = gen_prop4(beta=1)
        profiles = cohesive_profiles(inst)
        first_nine = tuple(range(9))
        assert any(
            p.group == first_nine and p.t_cohesive_sup == 3 for p in profiles
        )

    def test_huge_beta_accepts_anything(self, fig1):
        assert verify_ejr_beta(fig1, Bundle(), F(10), "strict").passed

    def test_all_thresholds_below_one_pass_up_to_one(self):
        # every group's supremum threshold is below 1, so t - 1 < 0 <= u
        inst = Instance(
            cake_length=F(1, 2),
            goods=(),
            agents=tuple(
                Bundle(cake=normalize([(F(0), F(1, 2))])) for _ in range(3)
            ),
            alpha=F(1, 2),
        )
        assert verify_ejr_1(inst, Bundle()).passed

    def test_negative_beta_rejected(self, fig1):
        with pytest.raises(DomainError):
            verify_ejr_beta(fig1, Bundle(), F(-1), "strict")

    def test_beta_takes_only_exact_rationals(self):
        # a float beta moved the strict verdict: 0.1 lies above 1/10
        inst = Instance(F(1), (), (Bundle(cake=normalize([(F(0), F(1))])),), F(1))
        alloc = Bundle(cake=normalize([(F(0), F(9, 10))]))
        assert not verify_ejr_beta(inst, alloc, F(1, 10)).passed
        for beta in (0.1, True):
            with pytest.raises(DomainError, match=r"^beta must be an int or a Fraction, got"):
                verify_ejr_beta(inst, alloc, beta)
            with pytest.raises(DomainError, match=r"^beta must be an int or a Fraction, got"):
                oracle_no_ejr_beta(inst, beta)

    def test_margin_below_minus_one_names_margin(self, fig1):
        with pytest.raises(DomainError, match=r"^margin must be at least -1, got -2\.0$"):
            verify_ejr_1(fig1, Bundle(), margin=-2.0)
        # margin -1 is beta 0, still a valid relaxation
        assert verify_ejr_1(fig1, Bundle(), margin=-1.0).axiom == "ejr-1"

    @pytest.mark.parametrize("margin", [True, False])
    def test_bool_margin_rejected(self, fig1, margin):
        # True ran EJR-2 (beta 1 + 1) under the label ejr-1
        with pytest.raises(DomainError, match=rf"^margin must be a number, got {margin}$"):
            verify_ejr_1(fig1, Bundle(), margin=margin)

    def test_bad_mode_rejected(self, fig1):
        with pytest.raises(DomainError):
            verify_ejr_beta(fig1, Bundle(), F(1), "sorta")

    def test_cake_ejr_needs_cake_instance(self, fig1):
        with pytest.raises(UnsupportedInstanceError):
            verify_cake_ejr(fig1, Bundle())


class TestDegreeAudit:
    def test_builtin_bounds(self):
        assert degree_ejr_m(F(5, 2)) == F(4, 5)
        assert degree_ejr_1(F(2)) == F(1, 4)
        assert degree_gpav(F(3)) == 2
        assert degree_mes_upper(F(5, 2)) == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_witness_allocations_clear_their_bound(self, seed):
        inst = make_mixed(seed, n_max=6, m_max=4, atoms_max=2)
        alloc, _ = greedy_ejr_m(inst)
        report = audit_degree(inst, alloc, "ejr-m")
        if report.min_slack is not None:
            assert report.min_slack >= 0

    def test_min_slack_matches_subset_scan(self):
        inst = make_mixed(5, n_max=5, m_max=3, atoms_max=2)
        alloc, _ = greedy_ejr_m(inst)
        report = audit_degree(inst, alloc, "ejr-1")
        utils = utilities(inst, alloc)
        best = None
        for size in range(1, inst.n + 1):
            for combo in combinations(range(inst.n), size):
                common = common_bundle(inst, combo)
                t = min(F(size) * inst.alpha / inst.n, common.size())
                if t < 1:
                    continue
                avg = sum((utils[i] for i in combo), F(0)) / size
                slack = avg - degree_ejr_1(t)
                if best is None or slack < best:
                    best = slack
        assert report.min_slack == best

    def test_custom_bound_callable(self, fig1):
        alloc = Bundle(goods=frozenset({"g1", "g2"}))
        report = audit_degree(fig1, alloc, lambda t: F(0))
        # with f == 0 the minimum slack is the smallest group average
        assert report.min_slack == min(e.average for e in report.entries)

    def test_unknown_bound_rejected(self, fig1):
        with pytest.raises(DomainError):
            audit_degree(fig1, Bundle(), "nope")


# ---------------------------------------------------------------------------
# EJR-1 scans directly; it must stay the strict beta relaxation at 1 + margin


def _ejr_1_by_definition(inst, alloc, margin):
    report = verify_ejr_beta(inst, alloc, F(1) + F(margin), "strict")
    return AxiomReport(axiom="ejr-1", passed=report.passed, witness=report.witness)


@pytest.fixture(scope="module")
def ejr_1_cases():
    cfg = EnumerationConfig(cake_grid=3, max_candidates=1 << 16)
    cases = []
    for seed in range(0, 40, 3):
        inst = make_mixed(seed)
        allocs = [greedy_ejr_m(inst)[0], generalized_mes(inst)[0]]
        allocs += itertools.islice(enumerate_allocations(inst, cfg), 6)
        cases += [(inst, alloc) for alloc in allocs]
    return cases


@pytest.mark.parametrize("margin", [0, 0.0, -0.0, 1e-6, 0.5, -1, -1.0, 3])
def test_ejr_1_equals_strict_beta_at_one_plus_margin(ejr_1_cases, margin):
    failing = 0
    for inst, alloc in ejr_1_cases:
        report = verify_ejr_1(inst, alloc, margin)
        assert report == _ejr_1_by_definition(inst, alloc, margin)
        failing += not report.passed
    if margin <= 0.5:
        assert failing > 0  # the witnesses are compared too


@given(st.floats(-1, 10), st.integers(0, 39))
@settings(max_examples=60, deadline=None)
def test_ejr_1_equals_strict_beta_at_any_margin(margin, seed):
    inst = make_mixed(seed)
    for alloc in [Bundle(), greedy_ejr_m(inst)[0], *some_allocations(inst, 6)]:
        assert verify_ejr_1(inst, alloc, margin) == _ejr_1_by_definition(inst, alloc, margin)


@pytest.mark.parametrize("margin, message", [
    (float("nan"), "margin must be finite, got nan"),
    (float("inf"), "margin must be finite, got inf"),
    (float("-inf"), "margin must be finite, got -inf"),
    (-2.0, "margin must be at least -1, got -2.0"),
    (-2, "margin must be at least -1, got -2"),
])
def test_ejr_1_margin_errors(fig1, margin, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        verify_ejr_1(fig1, Bundle(), margin)


@pytest.mark.parametrize("seed", range(5))
def test_approvers_are_sorted_only_for_a_row_that_is_scanned(monkeypatch, seed):
    """A scan whose rows are all skipped sorts nothing; a listing that
    keeps its rows sorts their tiers into closure order once, and then each
    row's approvers by utility once, in that order."""
    keyed, tier_sorts = [], []

    def counting(iterable, **kwargs):
        items = tuple(iterable)
        if "key" in kwargs:
            if items and type(items[0]) is int:
                keyed.append(items)
            else:
                tier_sorts.append(len(items))
        return sorted(items, **kwargs)

    monkeypatch.setattr(verify_module, "sorted", counting, raising=False)
    inst = make_mixed(seed)
    everything = Bundle(inst.full_cake(), frozenset(inst.goods))
    big = Instance(inst.cake_length, inst.goods, inst.agents, inst.cake_length + inst.m)
    assert verify_ejr_m(big, everything).passed
    assert verify_ejr_1(big, everything).passed
    assert keyed == tier_sorts == []
    assert cohesive_profiles(inst)
    index = inst.index
    rows = sorted(index.closure(), key=lambda row: index.bundle(row).key(inst.good_index))
    assert keyed == [row.approvers for row in rows if row.size_d > 0]
    assert tier_sorts == [len(keyed)]


def test_violation_tie_goes_to_the_smaller_t():
    """Agent 0 approves the whole cake and gets 3/8, so it fails t = 1/2
    by 1/8; agent 1 approves [7/8, 1] and gets nothing, so it fails
    t = 1/8 by 1/8.  The scan meets the t = 1/2 row first; the later row
    ties on violation and must still be scanned, since its smaller t wins."""
    inst = Instance(F(1), (), (
        Bundle(cake=normalize([(F(0), F(1))])),
        Bundle(cake=normalize([(F(7, 8), F(1))])),
    ), F(1))
    alloc = Bundle(cake=normalize([(F(0), F(3, 8))]))
    for exact in (True, False):
        assert [row.approvers for row, _ in inst.index.tiers(exact)] == [(0,), (0, 1)]
    reports = [
        verify_ejr_m(inst, alloc),
        verify_cake_ejr(inst, alloc),
        verify_ejr_1(inst, alloc, margin=-1),
        verify_ejr_beta(inst, alloc, F(0), "weak"),
    ]
    for report in reports:
        w = report.witness
        assert (w.group, w.t, w.max_utility) == ((1,), F(1, 8), F(0)), report.axiom


def test_a_row_at_the_floor_is_scanned():
    """Rows come by top threshold: [0, 1] (top 1/2), then [3/4, 1] (top
    1/4).  Agent 0 gets 3/8 and fails t = 1/2 by 1/8, so the floor
    becomes min(u) + 1/8 = 1/8 + 1/8, the second row's top.  That row is
    not under the floor: agent 1 gets 1/8 and fails t = 1/4 by 1/8 too,
    and the tie goes to its smaller t."""
    inst = Instance(F(1), (), (
        Bundle(cake=normalize([(F(0), F(1))])),
        Bundle(cake=normalize([(F(3, 4), F(1))])),
    ), F(1))
    alloc = Bundle(cake=normalize([(F(1, 2), F(7, 8))]))
    assert utilities(inst, alloc) == [F(3, 8), F(1, 8)]
    D = inst.index.denominator
    for exact in (True, False):
        by_top = inst.index.tiers(exact)
        assert [row.approvers for row, _ in by_top] == [(0,), (0, 1)]
        assert [F(thresholds[-1], D) for _, thresholds in by_top] == [F(1, 2), F(1, 4)]
    reports = [
        verify_ejr_m(inst, alloc),
        verify_cake_ejr(inst, alloc),
        verify_ejr_1(inst, alloc, margin=-1),
        verify_ejr_beta(inst, alloc, F(0), "weak"),
    ]
    for report in reports:
        w = report.witness
        assert (w.group, w.t, w.threshold, w.max_utility) == ((1,), F(1, 4), F(1, 4), F(1, 8))


def test_closure_capacity_error(fig1, monkeypatch):
    from mixvote import cohesive_profiles, core
    from mixvote.errors import CapacityError

    # fig1's closure has 3 bundles from 2 distinct approvals
    monkeypatch.setattr(core, "DEFAULT_CLOSURE_CAP", 2)
    with pytest.raises(CapacityError, match="^approval closure exceeds 2 bundles$"):
        cohesive_profiles(fig1)


def test_audit_t_min_takes_only_exact_rationals():
    # both tiers of the common bundle [0, 1/10] sit at t = 1/10; a float
    # t_min of 0.1 lies above 1/10 and dropped them
    inst = Instance(F(1), (), (Bundle(cake=normalize([(F(0), F(1, 10))])),) * 2, F(1))
    report = audit_degree(inst, Bundle(), "gpav", t_min=F(1, 10))
    assert (len(report.entries), report.min_slack) == (2, F(9, 10))
    for t_min in (0.1, True):
        with pytest.raises(DomainError, match=r"^t_min must be an int or a Fraction, got"):
            audit_degree(inst, Bundle(), "gpav", t_min=t_min)


# ---------------------------------------------------------------------------
# Golden report pins: sha256 of every report's exact text over make_mixed(0..39)
# and, per instance, the greedy and gmes outputs and the first 10 cake-grid-3
# enumerated allocations; pins the verdicts, witnesses, entries and profiles


def _profile_texts(inst, alloc):
    return [
        [list(p.group), format_rational(p.t_cohesive_sup), format_rational(p.t_exact_max),
         [format_rational(u) for u in p.group_utilities]]
        for p in cohesive_profiles(inst, alloc)
    ]


def _audit_text(inst, alloc):
    report = audit_degree(inst, alloc, "ejr-1")
    entries = [
        [list(e.group), format_rational(e.t), format_rational(e.average), format_rational(e.bound), format_rational(e.slack)]
        for e in report.entries
    ]
    return [report.to_dict(), entries]


GOLDEN_REPORTS = {
    "verify_ejr_m": (
        lambda inst, a: verify_ejr_m(inst, a).to_dict(),
        "13a5266146fe9e9e37f029cde4d9ec0df7991d599c32c66bbfc5cb5ae096bd98",
    ),
    "verify_ejr_1(margin=0)": (
        lambda inst, a: verify_ejr_1(inst, a).to_dict(),
        "7487e987f3984386636fac5f0f8e9e2fb68b948b950636701f2ea9ef71e5b463",
    ),
    "verify_ejr_1(margin=1e-6)": (
        lambda inst, a: verify_ejr_1(inst, a, margin=1e-6).to_dict(),
        "e8cb0159bb470f38cda66072c663b77865556fc6ab0c686bf996f00539093cd5",
    ),
    "verify_ejr_beta(1/2, weak)": (
        lambda inst, a: verify_ejr_beta(inst, a, F(1, 2), "weak").to_dict(),
        "1cc25f44051eb45a79ea9f9cbf8c6abf447ee781a1c6457f3959d878890791e0",
    ),
    "audit_degree(ejr-1)": (_audit_text, "fcde502cc66dd093c6afcb09363353ff48309fe094da2bc826ec8220d46c4970"),
    "cohesive_profiles": (_profile_texts, "2bdf730410a6b6489ce17d0636e6c08374a2e1c43f5acf5673186e32c11900e6"),
}


def _golden_allocations():
    cfg = EnumerationConfig(cake_grid=3, max_candidates=1 << 16)
    for seed in range(40):
        inst = make_mixed(seed)
        allocs = [greedy_ejr_m(inst)[0], generalized_mes(inst)[0]]
        allocs += itertools.islice(enumerate_allocations(inst, cfg), 10)
        yield from ((inst, alloc) for alloc in allocs)


@pytest.fixture(scope="module")
def golden_allocations():
    return list(_golden_allocations())


@pytest.mark.parametrize("name", list(GOLDEN_REPORTS))
def test_golden_reports(golden_allocations, name):
    check, expected = GOLDEN_REPORTS[name]
    text = "\n".join(
        json.dumps(check(inst, alloc), sort_keys=True) for inst, alloc in golden_allocations
    )
    assert hashlib.sha256(text.encode()).hexdigest() == expected
