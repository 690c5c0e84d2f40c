"""Model-layer tests: intervals, bundles, utilities, atoms, serialization."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixvote import (
    Bundle,
    Instance,
    IntervalSet,
    atomize,
    bundle_size,
    common_bundle,
    instance_digest,
    intersect,
    measure,
    normalize,
    utility,
)
from mixvote.core import (
    allocation_from_dict,
    allocation_to_dict,
    instance_from_dict,
    instance_to_dict,
    utilities,
)
from mixvote.errors import (
    InvalidAllocationError,
    InvalidGroupError,
    MalformedIntervalError,
)

from conftest import make_mixed


def iv(*pairs):
    return normalize([(F(a), F(b)) for a, b in pairs])


class TestNormalize:
    def test_overlapping_merge(self):
        assert iv((0, F(1, 2)), (F(1, 4), F(3, 4))) == iv((0, F(3, 4)))

    def test_degenerate_dropped(self):
        assert iv((0, 0)) == IntervalSet()

    def test_sorting(self):
        assert iv((F(1, 2), 1), (0, F(1, 4))).intervals == (
            (F(0), F(1, 4)),
            (F(1, 2), F(1)),
        )

    def test_reversed_pair_rejected(self):
        with pytest.raises(MalformedIntervalError):
            normalize([(F(1), F(0))])


class TestMeasure:
    def test_cake_of_fig1(self):
        assert measure(iv((0, F(9, 10)))) == F(9, 10)

    def test_empty(self):
        assert measure(IntervalSet()) == 0

    def test_additivity(self):
        assert measure(iv((0, F(1, 3)), (F(1, 2), F(5, 6)))) == F(2, 3)


class TestIntersect:
    def test_basic(self):
        assert intersect(iv((0, 1)), iv((F(1, 2), 2))) == iv((F(1, 2), 1))

    def test_idempotent(self):
        s = iv((0, F(1, 3)), (F(1, 2), 1))
        assert intersect(s, s) == s

    def test_touching_closed_intervals_have_measure_zero_overlap(self):
        assert intersect(iv((0, F(1, 2))), iv((F(1, 2), 1))) == IntervalSet()


class TestBundleAndUtility:
    def test_fig1_bundle_sizes(self, fig1):
        assert bundle_size(fig1.agents[0]) == F(19, 10)
        assert bundle_size(Bundle()) == 0
        assert bundle_size(Bundle(goods=frozenset({"g1", "g2"}))) == 2

    def test_fig1_utilities_for_both_goods(self, fig1):
        both = Bundle(goods=frozenset({"g1", "g2"}))
        assert utility(fig1, 0, both) == 1
        assert utility(fig1, 1, both) == 1

    def test_empty_allocation(self, fig1):
        assert utility(fig1, 0, Bundle()) == 0

    def test_entire_cake(self, fig1):
        cake = Bundle(cake=fig1.full_cake())
        assert utility(fig1, 0, cake) == F(9, 10)

    def test_out_of_range_agent(self, fig1):
        with pytest.raises(InvalidGroupError):
            utility(fig1, 5, Bundle())

    def test_common_bundle_pair(self, fig1):
        common = common_bundle(fig1, {0, 1})
        assert common.goods == frozenset()
        assert common.cake == fig1.full_cake()

    def test_common_bundle_singleton(self, fig1):
        assert common_bundle(fig1, {0}) == fig1.agents[0]

    def test_common_bundle_disjoint(self):
        inst = Instance(
            cake_length=F(0),
            goods=("g1", "g2"),
            agents=(
                Bundle(goods=frozenset({"g1"})),
                Bundle(goods=frozenset({"g2"})),
            ),
            alpha=F(1),
        )
        assert common_bundle(inst, {0, 1}).is_empty

    def test_common_bundle_empty_group(self, fig1):
        with pytest.raises(InvalidGroupError):
            common_bundle(fig1, set())


class TestAtomize:
    def test_fig1_atoms(self, fig1):
        atoms = atomize(fig1, fig1.full_cake(), fig1.goods)
        by_kind = {(a.good, a.interval): a.approvers for a in atoms}
        assert by_kind[("g1", None)] == frozenset({0})
        assert by_kind[("g2", None)] == frozenset({1})
        assert by_kind[(None, (F(0), F(9, 10)))] == frozenset({0, 1})
        assert len(atoms) == 3

    def test_goods_only(self):
        inst = Instance(
            cake_length=F(0),
            goods=("g1",),
            agents=(Bundle(goods=frozenset({"g1"})),),
            alpha=F(1),
        )
        atoms = atomize(inst, IntervalSet(), inst.goods)
        assert [a.good for a in atoms] == ["g1"]

    def test_breakpoint_construction(self):
        inst = Instance(
            cake_length=F(1),
            goods=(),
            agents=(
                Bundle(cake=iv((0, F(1, 2)))),
                Bundle(cake=iv((F(1, 4), 1))),
            ),
            alpha=F(1),
        )
        atoms = atomize(inst, inst.full_cake(), ())
        assert [a.interval for a in atoms] == [
            (F(0), F(1, 4)),
            (F(1, 4), F(1, 2)),
            (F(1, 2), F(1)),
        ]
        assert [a.approvers for a in atoms] == [
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({1}),
        ]

    @pytest.mark.parametrize("seed", range(12))
    def test_atom_sizes_cover_resource(self, seed):
        inst = make_mixed(seed)
        atoms = atomize(inst, inst.full_cake(), inst.goods)
        total = sum((a.size() for a in atoms), F(0))
        assert total == inst.cake_length + inst.m


fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=40)


@given(st.lists(st.tuples(fractions_01, fractions_01), max_size=8))
@settings(max_examples=80, deadline=None)
def test_normalize_is_canonical_and_measure_preserving(pairs):
    pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    result = normalize(pairs)
    for (lo1, hi1), (lo2, hi2) in zip(result.intervals, result.intervals[1:]):
        assert lo1 < hi1 < lo2 < hi2
    # same point set up to measure zero: symmetric difference has measure 0
    again = normalize(list(result.intervals))
    assert again == result


@given(
    st.lists(st.tuples(fractions_01, fractions_01), max_size=6),
    st.lists(st.tuples(fractions_01, fractions_01), max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_measure_additive_on_disjoint_sets(pairs_a, pairs_b):
    a = normalize([(min(x, y), max(x, y)) for x, y in pairs_a])
    b0 = normalize([(min(x, y), max(x, y)) for x, y in pairs_b])
    b = b0.subtract(a)
    assert intersect(a, b).is_empty
    assert measure(a.union(b)) == measure(a) + measure(b)


@pytest.mark.parametrize("seed", range(10))
def test_utility_bounded_by_both_sizes(seed):
    inst = make_mixed(seed)
    alloc = Bundle(cake=inst.full_cake().prefix(min(inst.alpha, inst.cake_length)))
    for i in range(inst.n):
        u = utility(inst, i, alloc)
        assert 0 <= u <= min(bundle_size(inst.agents[i]), bundle_size(alloc))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 8, 9, 10, 11])
def test_common_bundle_antitone(seed):
    inst = make_mixed(seed)
    assert inst.n >= 3
    small = common_bundle(inst, {0, 1})
    large = common_bundle(inst, {0, 1, 2})
    assert small.contains(large)
    assert bundle_size(large) <= bundle_size(small)


@pytest.mark.parametrize("seed", range(15))
def test_instance_round_trip_field_exact(seed):
    inst = make_mixed(seed)
    again = instance_from_dict(instance_to_dict(inst))
    assert again == inst
    assert instance_digest(again) == instance_digest(inst)


def test_allocation_round_trip(fig1):
    alloc = Bundle(cake=iv((0, F(1, 2))), goods=frozenset({"g2"}))
    data = allocation_to_dict(fig1, alloc)
    assert data["size"] == "3/2"
    assert allocation_from_dict(json.loads(json.dumps(data))) == alloc


def test_digest_stable_under_key_order(fig1):
    data = instance_to_dict(fig1)
    scrambled = json.loads(
        json.dumps({k: data[k] for k in sorted(data, reverse=True)})
    )
    assert instance_digest(instance_from_dict(scrambled)) == instance_digest(fig1)


class TestValidation:
    def test_approval_outside_cake_rejected(self):
        with pytest.raises(MalformedIntervalError):
            Instance(
                cake_length=F(1, 2),
                goods=(),
                agents=(Bundle(cake=iv((0, 1))),),
                alpha=F(1, 2),
            )

    def test_alpha_bounds(self):
        with pytest.raises(InvalidAllocationError):
            Instance(
                cake_length=F(0),
                goods=("g1",),
                agents=(Bundle(goods=frozenset({"g1"})),),
                alpha=F(2),
            )

    def test_unknown_good_rejected(self):
        with pytest.raises(InvalidAllocationError):
            Instance(
                cake_length=F(0),
                goods=("g1",),
                agents=(Bundle(goods=frozenset({"zzz"})),),
                alpha=F(1),
            )

    @pytest.mark.parametrize("c, pairs", [(1, [(-1, "-1/2"), (0, 1)]), (1, [(0, "1/2"), (1, 2)]), (0, [(0, 1)])])
    def test_approval_ends_checked(self, c, pairs):
        with pytest.raises(MalformedIntervalError, match=rf"agent 0 approves cake outside \[0, {c}\]"):
            Instance(
                cake_length=F(c), goods=("g1",), agents=(Bundle(cake=iv(*pairs)),), alpha=F(1)
            )

    @pytest.mark.parametrize("bundle, message", [
        (Bundle(cake=iv((0, 1))), "allocation cake outside"),
        (Bundle(cake=iv((-1, 0), ("1/2", "3/5"))), "allocation cake outside"),
        (Bundle(goods=frozenset({"g1", "zzz"})), "allocation contains unknown goods"),
    ])
    def test_allocation_outside_instance_rejected(self, fig1, bundle, message):
        with pytest.raises(InvalidAllocationError, match=message):
            fig1.validate_allocation(bundle)
        fig1.validate_allocation(Bundle(cake=fig1.full_cake(), goods=frozenset({"g1"})))

    def test_oversize_allocation_rejected(self, fig1):
        big = Bundle(cake=fig1.full_cake(), goods=frozenset({"g1", "g2"}))
        with pytest.raises(InvalidAllocationError):
            fig1.validate_allocation(big)
