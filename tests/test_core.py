"""Model-layer tests: intervals, bundles, utilities, atoms, serialization."""

import hashlib
import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixvote import (
    Bundle,
    Instance,
    IntervalSet,
    approval_closure,
    atomize,
    bundle_size,
    common_bundle,
    instance_digest,
    intersect,
    measure,
    normalize,
    utility,
    verify_ejr_m,
)
from mixvote.cli import EXIT_USAGE, dispatch
from mixvote.core import (
    achievable_exact_size,
    allocation_from_dict,
    allocation_to_dict,
    format_rational,
    instance_from_dict,
    instance_to_dict,
    parse_rational,
    save_json,
    utilities,
)
from mixvote.errors import (
    DomainError,
    InvalidAllocationError,
    InvalidGroupError,
    MalformedIntervalError,
)
from mixvote.generate import gen_fig1, gen_random

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

    @pytest.mark.parametrize("pool", [{-1}, {2}, {0, 2}, {0, -1}])
    def test_closure_pool_out_of_range(self, fig1, pool):
        with pytest.raises(InvalidGroupError, match="^agent index out of range$"):
            common_bundle(fig1, pool)
        # raised ValueError (negative shift) or IndexError before
        with pytest.raises(InvalidGroupError, match="^agent index out of range$"):
            approval_closure(fig1, pool)


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


def merge_reference(pairs):
    """The sort-and-merge normalization, written out without a fast path."""
    cleaned = []
    for lo, hi in pairs:
        lo, hi = F(lo), F(hi)
        if lo > hi:
            raise MalformedIntervalError(f"reversed interval [{lo}, {hi}]")
        if lo < hi:
            cleaned.append((lo, hi))
    merged = []
    for lo, hi in sorted(cleaned):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


grid_points = st.sampled_from([F(k, 6) for k in range(7)])


@st.composite
def pair_lists(draw):
    """Raw pair lists (touching, degenerate, unsorted, reversed, int-typed)
    and canonical ones, some of them with int endpoints."""
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(grid_points, grid_points), max_size=6))
    else:
        ends = sorted(draw(st.lists(grid_points, max_size=8)))
        pairs = list(zip(ends[::2], ends[1::2]))
    if draw(st.booleans()):
        pairs = [
            tuple(int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in pair)
            for pair in pairs
        ]
    return pairs


@given(pair_lists())
@settings(max_examples=300, deadline=None)
def test_normalize_matches_sort_and_merge(pairs):
    try:
        expected = merge_reference(pairs)
    except MalformedIntervalError as exc:
        with pytest.raises(MalformedIntervalError, match=re.escape(str(exc))):
            normalize(pairs)
        return
    got = normalize(iter(pairs)).intervals
    assert got == expected
    assert all(type(pair) is tuple and all(type(x) is F for x in pair) for pair in got)


def test_normalize_keeps_canonical_pairs():
    pairs = [(F(0), F(1, 3)), (F(1, 2), F(1))]
    assert all(a is b for a, b in zip(normalize(pairs).intervals, pairs))


def parse_reference(text):
    try:
        return F(text)
    except (TypeError, ValueError, ArithmeticError):
        return DomainError


def parse_or_error(text):
    try:
        return parse_rational(text)
    except DomainError:
        return DomainError


@given(st.integers(0, 10**40), st.integers(1, 10**40), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_parse_fast_path_matches_fraction(p, q, zeros):
    for text in (f"{p}/{q}", str(p), format_rational(F(p, q)), "0" * zeros + f"{p}/{q}"):
        value = parse_rational(text)
        assert value == F(text) and type(value) is F


FALLBACK_CORPUS = [
    "1/0", "0/0", "1/-2", "-3/4", "+1/2", " 1/2 ", " 1/2", "1_0/2_0", "1e-1", "0.1",
    "1.5/2", "١/٢", "²/3", "", "/", "1/", "/2", "-", "1//2", "1/2/3", "1" * 5000,
]


@pytest.mark.parametrize("text", FALLBACK_CORPUS)
def test_parse_fallback_matches_fraction(text):
    assert parse_or_error(text) == parse_reference(text)


@given(st.text(alphabet="0123456789/-+ ._e١", max_size=8))
@settings(max_examples=300, deadline=None)
def test_parse_matches_fraction_on_any_text(text):
    assert parse_or_error(text) == parse_reference(text)


@pytest.mark.parametrize("value", [0.1, 1.0, float("nan"), True, False, None, [1, 2]])
def test_parse_rejects_floats_bools_and_non_numbers(value):
    with pytest.raises(DomainError, match="not a rational number"):
        parse_rational(value)


@pytest.mark.parametrize("value", [0.1, True])
def test_lengths_take_only_exact_rationals(value):
    piece = IntervalSet(((F(0), F(1)),))
    assert piece.prefix(F(1, 10)) == IntervalSet(((F(0), F(1, 10)),))
    assert achievable_exact_size(1, F(1, 10), F(1, 2)) == F(1, 10)
    with pytest.raises(DomainError, match=r"^length must be an int or a Fraction, got"):
        piece.prefix(value)
    with pytest.raises(DomainError, match=r"^ell_star must be an int or a Fraction, got"):
        achievable_exact_size(1, value, F(1, 2))
    with pytest.raises(DomainError, match=r"^cap must be an int or a Fraction, got"):
        achievable_exact_size(1, F(1, 10), value)


@pytest.mark.parametrize("m_star, ell_star, message", [
    (1.5, F(1, 2), r"m_star must be an int, got 1\.5"),
    (True, F(1, 2), "m_star must be an int, got True"),
    (-1, F(1, 2), "m_star and ell_star must be nonnegative"),
    (1, F(-1, 2), "m_star and ell_star must be nonnegative"),
], ids=["fractional-count", "bool-count", "negative-count", "negative-length"])
def test_achievable_exact_size_rejects_a_bad_goods_count_or_length(m_star, ell_star, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        achievable_exact_size(m_star, ell_star, F(2))


def test_parse_keeps_integers_and_decimal_strings():
    assert parse_rational(3) == F(3)
    assert parse_rational("0.1") == F(1, 10)
    assert parse_rational("-3/6") == F(-1, 2)


@pytest.mark.parametrize("value, text", [
    (F(3, 6), "1/2"), (F(4), "4"), (F(-2, 3), "-2/3"), (7, "7"), (F(0), "0"),
])
def test_format_rational(value, text):
    assert format_rational(value) == text


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


def test_approvals_with_touching_or_degenerate_pairs_round_trip():
    """Such an approval is stored in its normalized form, as a parsed one
    is, so the instance survives a round trip through its dict; a canonical
    approval is kept as the same object."""
    touching = Bundle(IntervalSet(((F(0), F(1, 2)), (F(1, 2), F(1)))))
    degenerate = Bundle(IntervalSet(((F(1, 4), F(1, 4)), (F(1, 2), F(3, 4)))), frozenset({"g1"}))
    canonical = Bundle(iv((0, F(1, 3))), frozenset({"g1"}))
    inst = Instance(F(1), ("g1",), (touching, degenerate, canonical), F(1))
    assert inst.agents[0].cake == iv((0, 1))
    assert inst.agents[1] == Bundle(iv((F(1, 2), F(3, 4))), frozenset({"g1"}))
    assert inst.agents[2] is canonical
    again = instance_from_dict(instance_to_dict(inst))
    assert again == inst
    assert instance_digest(again) == instance_digest(inst)


def test_allocation_round_trip(fig1):
    alloc = Bundle(cake=iv((0, F(1, 2))), goods=frozenset({"g2"}))
    data = allocation_to_dict(fig1, alloc)
    assert data["size"] == "3/2"
    assert allocation_from_dict(json.loads(json.dumps(data))) == alloc


# Pinned digests of the canonical serialization: a change to the parse,
# the formatting or the index must leave every one of them as it is.
DIGEST_PINS = {
    "fig1": (
        lambda: gen_fig1()[0],
        "50dafe1e3f8eef5667e1d165ecb8e72b366ab65812a2be018c3e1c820b1da66f",
    ),
    "random-n8-m3-atoms5-seed11": (
        lambda: gen_random(n=8, m=3, cake_atoms=5, alpha=F(3), density=0.5, seed=11),
        "cdb8f46c53a0cc743fc6de4cc047c2446d5256f369ff986dc576263a1f0f1169",
    ),
    "mes-scale-n60-seed1": (
        lambda: gen_random(n=60, m=6, cake_atoms=6, alpha=F(9, 4), density=0.05, seed=1),
        "ae702d804ec7864d2c9a9d968b8ad0a9341a247e8674dedfdc67678215143218",
    ),
}


@pytest.mark.parametrize("name", list(DIGEST_PINS))
def test_digest_pins(name):
    build, digest = DIGEST_PINS[name]
    inst = build()
    assert instance_digest(inst) == digest
    assert instance_digest(instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))) == digest


def reference_digest(inst):
    """The digest's definition: sha256 of the dict's sorted-key compact JSON."""
    blob = json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_NAMES = st.text(st.characters(blacklist_categories=()), max_size=3) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\u00e9", "\u2603", "\ud800", "\x00\n"]
)


@st.composite
def digest_instances(draw):
    """Directly built instances: names with quotes, backslashes, non-ASCII
    and lone surrogates; endpoints on a quarter grid that are ints or fresh
    ``Fraction`` objects (so equal endpoints are distinct objects); and
    touching or degenerate approval pairs, which ``Instance`` normalizes."""
    goods = draw(st.lists(_NAMES, unique=True, max_size=4))
    c = draw(st.integers(0 if goods else 1, 3))
    as_int = draw(st.booleans())

    def point(k):
        return k // 4 if as_int and k % 4 == 0 else F(k, 4)

    agents = []
    for _ in range(draw(st.integers(1, 4))):
        ends = sorted(draw(st.lists(st.integers(0, 4 * c), max_size=6)))
        pairs = tuple((point(a), point(b)) for a, b in zip(ends[::2], ends[1::2]))
        chosen = draw(st.sets(st.sampled_from(goods))) if goods else set()
        agents.append(Bundle(IntervalSet(pairs), frozenset(chosen)))
    alpha = F(draw(st.integers(1, 4 * (c + len(goods)))), 4)
    return Instance(cake_length=c, goods=tuple(goods), agents=tuple(agents), alpha=alpha)


@given(digest_instances())
@settings(max_examples=300, deadline=None)
def test_digest_matches_its_definition(inst):
    assert instance_digest(inst) == reference_digest(inst)


@pytest.mark.parametrize("seed", range(5))
def test_digest_of_parsed_instances_matches_its_definition(seed):
    inst = instance_from_dict(instance_to_dict(gen_random(
        n=60, m=6, cake_atoms=6, alpha=F(9, 4), density=0.05, seed=seed
    )))
    assert instance_digest(inst) == reference_digest(inst)


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

    @pytest.mark.parametrize(
        "goods, entry", [((1,), "good 0"), (("g1", None), "good 1"), ((["g1"],), "good 0")]
    )
    def test_good_names_must_be_strings(self, goods, entry):
        with pytest.raises(DomainError, match=f"^{entry} must be named by a string"):
            Instance(cake_length=F(1), goods=goods, agents=(Bundle(),), alpha=F(1))
        data = {"cake_length": "1", "goods": list(goods), "alpha": "1", "agents": [{}]}
        with pytest.raises(DomainError, match=f"^{entry} must be named by a string"):
            instance_from_dict(data)

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

    @given(
        st.lists(st.fractions(-2, 3, max_denominator=60), max_size=6),
        st.fractions(0, 2, max_denominator=60),
    )
    @example([F(0), F(2, 3)], F(1, 2))  # hi - c = 1/6: the cross products differ by 1
    @settings(max_examples=150, deadline=None)
    def test_cake_containment_matches_fraction_comparison(self, ends, c):
        ends = sorted(ends)
        cake = normalize(list(zip(ends[::2], ends[1::2])))
        outside = any(lo < 0 or hi > c for lo, hi in cake.intervals)
        goods = frozenset({"g1"})
        if outside:
            with pytest.raises(MalformedIntervalError, match="agent 0 approves cake outside"):
                Instance(cake_length=c, goods=("g1",), agents=(Bundle(cake, goods),), alpha=c + 1)
        else:
            Instance(cake_length=c, goods=("g1",), agents=(Bundle(cake, goods),), alpha=c + 1)
        inst = Instance(cake_length=c, goods=("g1",), agents=(Bundle(goods=goods),), alpha=c + 1)
        if outside:
            with pytest.raises(InvalidAllocationError, match="allocation cake outside"):
                inst.validate_allocation(Bundle(cake))
        else:
            inst.validate_allocation(Bundle(cake))

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

    def test_reversed_approval_rejected(self):
        # accepted before, with index mask -2, on which greedy_ejr_m never returned
        with pytest.raises(
            MalformedIntervalError,
            match=r"^agent 0 approves cake with a reversed pair \[1/2, 1/4\]$",
        ):
            Instance(
                cake_length=F(1),
                goods=(),
                agents=(
                    Bundle(IntervalSet(((F(1, 2), F(1, 4)),))),
                    Bundle(IntervalSet(((F(0), F(1)),))),
                ),
                alpha=F(1),
            )

    @pytest.mark.parametrize("pair, text", [
        # accepted before, with AttributeError from the index and verifiers
        ((F(0), 0.5), "0.5"),
        # AttributeError from the constructor itself
        ((0.5, F(1)), "0.5"),
        ((F(0), True), "True"),
        (("1/2", F(1)), "'1/2'"),
    ])
    def test_non_rational_approval_endpoint_rejected(self, pair, text):
        with pytest.raises(
            MalformedIntervalError,
            match=rf"^agent 0 approves cake with a non-rational endpoint {re.escape(text)}$",
        ):
            Instance(F(1), (), (Bundle(IntervalSet((pair,))),), F(1))

    def test_non_rational_allocation_endpoint_rejected(self, fig1):
        bundle = Bundle(IntervalSet(((F(0), 0.5),)))
        message = r"allocation cake with a non-rational endpoint 0\.5"
        for _ in range(2):
            with pytest.raises(InvalidAllocationError, match=rf"^{message}$"):
                fig1.validate_allocation(bundle)
            with pytest.raises(InvalidAllocationError, match=message):
                verify_ejr_m(fig1, bundle)

    @pytest.mark.parametrize("field, value", [
        # taken through Fraction(float) before
        ("cake_length", 0.1), ("alpha", 0.5), ("alpha", True), ("alpha", "1/2"),
    ])
    def test_non_rational_cake_length_or_alpha_rejected(self, field, value):
        fields = dict(
            cake_length=F(1), goods=("g",), agents=(Bundle(goods=frozenset({"g"})),), alpha=F(1)
        )
        fields[field] = value
        with pytest.raises(DomainError, match=rf"^{field} must be an int or a Fraction, got "):
            Instance(**fields)

    @pytest.mark.parametrize("pairs, text", [
        ([(0, 0.1)], "0.1"),  # gave [0, 3602879701896397/36028797018963968] before
        ([(F(1, 2), F(1)), (0.25, F(1, 2))], "0.25"),
        ([(F(0), True)], "True"),
        ([("0", F(1))], "'0'"),
    ])
    def test_normalize_rejects_non_rational_endpoints(self, pairs, text):
        with pytest.raises(
            MalformedIntervalError,
            match=rf"^interval with a non-rational endpoint {re.escape(text)}$",
        ):
            normalize(pairs)

    def test_int_approval_endpoints_become_fractions(self):
        inst = Instance(F(1), (), (Bundle(IntervalSet(((0, 1),))),), F(1))
        assert inst.agents[0].cake == iv((0, 1))
        assert all(type(x) is F for x in inst.agents[0].cake.intervals[0])

    @pytest.mark.parametrize("pairs, message", [
        # measured 23/20 for both agents, above c = 9/10, and passed EJR-M
        (
            ((F(0), F(1, 2)), (F(1, 4), F(9, 10))),
            r"overlapping pairs: \[1/4, 9/10\] starts before 1/2",
        ),
        (((F(1, 2), F(1, 5)),), r"a reversed pair \[1/2, 1/5\]"),
    ])
    def test_unordered_allocation_rejected(self, fig1, pairs, message):
        bundle = Bundle(IntervalSet(pairs))
        for _ in range(2):
            with pytest.raises(InvalidAllocationError, match=rf"^allocation cake with {message}$"):
                fig1.validate_allocation(bundle)
            with pytest.raises(InvalidAllocationError, match=message):
                verify_ejr_m(fig1, bundle)


@given(pair_lists(), st.sampled_from([F(5, 6), F(1)]))
@settings(max_examples=300, deadline=None)
def test_cake_pairs_are_ordered_or_rejected(pairs, c):
    """Cakes built without ``normalize``: a reversed pair, or one that
    starts before the previous pair ends, is rejected in an approval and
    in an allocation; sorted touching and degenerate pairs are accepted
    and measure like their normalization."""
    cake = IntervalSet(tuple(pairs))
    ordered = all(lo <= hi for lo, hi in pairs) and all(
        a[1] <= b[0] for a, b in zip(pairs, pairs[1:])
    )
    inside = not pairs or (pairs[0][0] >= 0 and pairs[-1][1] <= c)
    other = Bundle(iv((0, F(1, 2))), frozenset({"g1"}))
    host = Instance(c, ("g1",), (other,), c + 1)
    if not (ordered and inside):
        fault = "with" if not ordered else "outside"
        with pytest.raises(MalformedIntervalError, match=f"^agent 0 approves cake {fault} "):
            Instance(c, ("g1",), (Bundle(cake), other), c + 1)
        with pytest.raises(InvalidAllocationError, match=f"^allocation cake {fault} "):
            host.validate_allocation(Bundle(cake))
        return
    canonical = normalize(pairs)
    raw = Instance(c, ("g1",), (Bundle(cake), other), c + 1)
    expected = Instance(c, ("g1",), (Bundle(canonical), other), c + 1)
    assert raw == expected
    assert approval_closure(raw) == approval_closure(expected)
    for alloc in (Bundle(cake), Bundle(canonical), other, Bundle(raw.full_cake())):
        assert utilities(raw, alloc) == utilities(expected, alloc)
    unit, size, utils = host.validate_allocation(Bundle(cake))
    assert F(size, unit) == canonical.measure()
    assert [F(u, unit) for u in utils] == utilities(host, Bundle(canonical))


def endpoint_json(x):
    """An endpoint as an instance file writes it: an int-typed one as a
    JSON integer, any other as a "p/q" string."""
    return x if type(x) is int else format_rational(x)


def reference_parse(c, cakes):
    """The instance a file describes: every approval through ``normalize``
    (which sorts, merges and rejects a reversed pair), then the constructor;
    or the error that either raises."""
    try:
        agents = tuple(
            Bundle(normalize(pairs), frozenset({"g1"} if k % 2 else ()))
            for k, pairs in enumerate(cakes)
        )
        return Instance(c, ("g1",), agents, c + 1)
    except MalformedIntervalError as exc:
        return exc


@given(st.lists(pair_lists(), min_size=1, max_size=3), st.sampled_from([F(5, 6), F(1)]))
@example([[(F(0), F(1, 2))], [(F(1), F(1))]], F(5, 6))  # degenerate, outside
@example([[(F(1, 2), F(1, 4))], [(F(0), F(1))]], F(5, 6))  # reversed, then outside
@example([[(F(0), F(1))], [(F(1, 2), F(1, 4))]], F(5, 6))  # outside, then reversed
@example([[(F(1, 2), F(5, 6)), (F(0), F(1, 3))]], F(5, 6))  # unsorted
@settings(max_examples=300, deadline=None)
def test_parse_gives_the_normalized_instance_or_its_error(cakes, c):
    """A file's approvals may be unsorted, overlapping, touching or
    degenerate: the parse sorts and merges them, and a reversed pair or a
    pair outside [0, c] raises the error of the normalized build."""
    data = json.loads(json.dumps({
        "cake_length": format_rational(c),
        "goods": ["g1"],
        "alpha": format_rational(c + 1),
        "agents": [
            {
                "goods": ["g1"] if k % 2 else [],
                "cake": [[endpoint_json(x) for x in pair] for pair in pairs],
            }
            for k, pairs in enumerate(cakes)
        ],
    }))
    expected = reference_parse(c, cakes)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            instance_from_dict(data)
        return
    got = instance_from_dict(data)
    assert got == expected
    assert instance_digest(got) == instance_digest(expected)
    pairs = [pair for b in got.agents for pair in b.cake.intervals]
    assert all(type(pair) is tuple and all(type(x) is F for x in pair) for pair in pairs)


def test_parse_reports_an_unparseable_endpoint_before_a_reversed_pair(tmp_path):
    """A file with two faults, a reversed pair in agent 0 and an endpoint
    that is no rational in agent 1: every endpoint is parsed before the
    pairs are checked, so the endpoint is reported; both exit 2."""
    data = {
        "cake_length": "1",
        "goods": [],
        "alpha": "1",
        "agents": [{"cake": [["1/2", "1/4"]]}, {"cake": [["0", "one"]]}],
    }
    with pytest.raises(DomainError, match=r"^not a rational number: 'one'$"):
        instance_from_dict(data)
    path = tmp_path / "two-faults.json"
    save_json(str(path), data)
    assert dispatch(["run", "--rule", "gmes", "--instance", str(path)]) == EXIT_USAGE


def test_parse_shares_one_fraction_per_endpoint_string():
    """The index and the digest read each distinct endpoint object once;
    the parse gives equal endpoint strings one shared ``Fraction``."""
    inst = gen_random(n=300, m=30, cake_atoms=30, alpha=F(15), density=0.05)
    data = instance_to_dict(inst)
    again = instance_from_dict(data)
    assert again == inst
    strings = {x for agent in data["agents"] for pair in agent["cake"] for x in pair}
    objects = {id(x) for b in again.agents for pair in b.cake.intervals for x in pair}
    assert len(strings) > 30
    assert len(objects) == len(strings)
