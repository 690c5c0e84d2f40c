"""Support floors: the closure build cut at a minimum number of approvers,
and the floors the verifiers and the audit pass down to it.  Each caller's
reports must be those it gives with the full closure kept."""

from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixvote import (
    Bundle,
    Instance,
    audit_degree,
    cohesive_profiles,
    generalized_mes,
    normalize,
    verify_ejr_1,
    verify_ejr_beta,
    verify_ejr_m,
)
from mixvote import core
from mixvote import verify as verify_module
from mixvote.cli import EXIT_CAPACITY, EXIT_FAIL, EXIT_OK, dispatch
from mixvote.core import EMPTY_BUNDLE, InstanceIndex, allocation_to_dict, instance_to_dict, save_json
from mixvote.errors import CapacityError
from mixvote.generate import gen_random
from mixvote.verify import DEGREE_BOUNDS
from test_index import allocations, disjoint_instances, fresh, instances, naive_closure

# ---------------------------------------------------------------------------
# The build at every floor


@st.composite
def nested_instances(draw):
    """Each agent approves a prefix [0, x] of the cake and a prefix of the
    goods, so any two approvals are nested."""
    m = draw(st.integers(0, 3))
    goods = tuple(f"g{k}" for k in range(m))
    agents = []
    for _ in range(draw(st.integers(1, 7))):
        x = draw(st.sampled_from([F(k, 4) for k in range(5)]))
        cake = normalize([(F(0), x)] if x else [])
        agents.append(Bundle(cake, frozenset(goods[:draw(st.integers(0, m))])))
    return Instance(F(1), goods, tuple(agents), F(1))


build_instances = st.one_of(instances(max_agents=6), disjoint_instances(), nested_instances())


@given(build_instances, st.integers(1, 12), st.data())
@settings(max_examples=120, deadline=None)
def test_build_at_every_floor_is_the_fixpoint_filtered_by_support(inst, cap, data):
    """At floor f the build gives exactly the fixpoint's rows with at least
    f approvers in the pool, in closure order, and raises CapacityError
    exactly when those rows exceed the cap."""
    pool = data.draw(st.sets(st.integers(0, inst.n - 1), min_size=1))
    for agents in (range(inst.n), frozenset(pool)):
        naive = naive_closure(inst, agents)
        distinct = len({inst.agents[i] for i in agents})
        for floor in range(1, inst.n + 2):
            index = InstanceIndex(inst)
            expected = [row for row in naive if len(row[1]) >= floor]
            rows = index._build(agents, floor)
            assert [(index.bundle(row), frozenset(row.approvers)) for row in rows] == expected
            assert all(row.agents == sum(1 << i for i in row.approvers) for row in rows)
            with patch.object(core, "DEFAULT_CLOSURE_CAP", cap):
                if len(expected) > max(cap, distinct):
                    with pytest.raises(CapacityError, match=f"^approval closure exceeds {cap} bundles$"):
                        index._build(agents, floor)
                else:
                    assert index._build(agents, floor) == rows


def test_kept_closure_is_rebuilt_only_for_a_lower_floor(fig1):
    index = InstanceIndex(fig1)
    high = index.tiers(False, 2)
    assert (index._floor, len(index._closure)) == (2, 1)
    assert index.tiers(False, 3) is high  # a higher floor reads the kept table
    with patch.object(core, "DEFAULT_CLOSURE_CAP", 2):
        with pytest.raises(CapacityError):
            index.tiers(True, 1)
    assert (index._floor, set(index._tiers)) == (2, {False})  # the failed build kept nothing
    full = index.tiers(True, 1)
    assert (index._floor, len(index._closure), set(index._tiers)) == (1, 3, {True})
    assert index.closure() is index._closure
    assert index.tiers(True, 2) is full


# ---------------------------------------------------------------------------
# Every caller's floor gives the reports of the full closure


def battery(inst, alloc):
    """(name, call) for each verifier, audit and profile listing whose
    report must not depend on the floor it builds at."""
    calls = [
        ("ejr-m", lambda: verify_ejr_m(inst, alloc)),
        ("cohesive", lambda: cohesive_profiles(inst, alloc)),
    ]
    for margin in (0, 1e-6, -0.5):
        calls.append((f"ejr-1 {margin}", lambda margin=margin: verify_ejr_1(inst, alloc, margin)))
    for beta, mode in ((F(0), "weak"), (F(0), "strict"), (F(1, 2), "strict"), (F(3), "weak")):
        calls.append((
            f"ejr-beta {beta} {mode}",
            lambda beta=beta, mode=mode: verify_ejr_beta(inst, alloc, beta, mode),
        ))
    for bound in DEGREE_BOUNDS:
        for t_min in (F(1), F(5, 2), F(1, 3), F(0), F(-1)):
            calls.append((
                f"audit {bound} {t_min}",
                lambda bound=bound, t_min=t_min: repr(audit_degree(inst, alloc, bound, t_min)),
            ))
    return calls


@given(instances(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_floors_give_the_reports_of_the_full_closure(inst, rnd):
    """Each call of the battery, run in a shuffled order on a fresh
    instance, reports as it does once the full closure and both tier
    tables are kept."""
    for alloc in allocations(inst):
        kept = fresh(inst)
        kept.index.tiers(True)
        kept.index.tiers(False)
        expected = {name: call() for name, call in battery(kept, alloc)}
        assert kept.index._floor == 1
        shuffled = battery(fresh(inst), alloc)
        rnd.shuffle(shuffled)
        assert {name: call() for name, call in shuffled} == expected


@given(instances(), st.sampled_from([F(1), F(5, 2), F(1, 3), F(0), F(-1)]))
@settings(max_examples=60, deadline=None)
def test_audit_sorts_no_row_under_t_min(inst, t_min):
    """The audit sorts the approvers of exactly the closure rows of positive
    size whose top cohesive threshold min(approvers*alpha/n, size) reaches
    ``t_min``, in closure order."""
    for alloc in allocations(inst):
        sorted_rows = []

        def counting(items, **kwargs):
            if "key" in kwargs:  # a row's approvers, not an entry's group
                sorted_rows.append(items)
            return sorted(items, **kwargs)

        with patch.object(verify_module, "sorted", counting, create=True):
            audit_degree(inst, alloc, "ejr-1", t_min)
        index = inst.index
        share, D = index.share_d, index.denominator
        assert sorted_rows == [
            row.approvers
            for row in index.closure()
            if row.size_d > 0 and F(min(len(row.approvers) * share, row.size_d), D) >= t_min
        ]


# ---------------------------------------------------------------------------
# Verification past the cap


def mes_shape(n, alpha):
    """gmes's output on a mes-scale shape (m = cake atoms = n/10, density 0.05)."""
    inst = gen_random(n=n, m=n // 10, cake_atoms=n // 10, alpha=alpha, density=0.05, seed=7)
    return inst, generalized_mes(inst)[0]


def test_ejr_1_finishes_where_the_full_closure_passes_the_cap(tmp_path):
    """At n=300 the full closure has 543 rows; under a cap of 300, EJR-1
    reads few enough rows to finish with the uncapped report, and EJR-M,
    at floor 1, still raises (exit 3)."""
    inst, gmes = mes_shape(300, F(45, 4))
    path = tmp_path / "inst.json"
    save_json(str(path), instance_to_dict(inst))
    for alloc in (gmes, EMPTY_BUNDLE):
        uncapped = verify_ejr_1(fresh(inst), alloc)
        alloc_path = tmp_path / "alloc.json"
        save_json(str(alloc_path), allocation_to_dict(inst, alloc))
        with patch.object(core, "DEFAULT_CLOSURE_CAP", 300):
            assert verify_ejr_1(fresh(inst), alloc) == uncapped
            with pytest.raises(CapacityError):
                verify_ejr_m(fresh(inst), alloc)
            args = ["--instance", str(path), "--allocation", str(alloc_path)]
            code = dispatch(["verify", "--axiom", "ejr-1", *args])
            assert code == (EXIT_OK if uncapped.passed else EXIT_FAIL)
            assert dispatch(["verify", "--axiom", "ejr-m", *args]) == EXIT_CAPACITY
    assert len(fresh(inst).index.closure()) == 543


def test_ejr_1_at_n1000_builds_only_the_rows_over_its_floor():
    """Even with an agent at utility 0, EJR-1's offset of 1 at alpha/n =
    3/80 sets a floor of 27 approvers on gmes's n=1000 output: the check
    builds 201 rows, never the full closure's 20,073."""
    inst, alloc = mes_shape(1000, F(75, 2))
    floors = []
    build = InstanceIndex._build

    def recording(index, pool, floor=1):
        floors.append(floor)
        return build(index, pool, floor)

    with patch.object(InstanceIndex, "_build", recording):
        assert verify_ejr_1(inst, alloc).passed
    assert floors == [27]
    assert len(inst.index._closure) == 201


def test_cli_verifies_ejr_1_at_n3000(tmp_path, capsys):
    """The full closure at n=3000 passes the 2^17 cap; EJR-1's floor leaves
    few enough rows to build, so the check passes (exit 0)."""
    inst, alloc = mes_shape(3000, F(225, 2))
    save_json(str(tmp_path / "inst.json"), instance_to_dict(inst))
    save_json(str(tmp_path / "alloc.json"), allocation_to_dict(inst, alloc))
    code = dispatch([
        "verify", "--axiom", "ejr-1",
        "--instance", str(tmp_path / "inst.json"), "--allocation", str(tmp_path / "alloc.json"),
    ])
    assert code == EXIT_OK
    assert '"pass": true' in capsys.readouterr().out
