"""Harmonic-score rule tests: exact anchors, oracle agreement, swap optimality,
the branch and bound over goods against a plain enumeration, and the cake
solver's certificate on hard and independently solved inputs."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixvote import (
    Bundle,
    Instance,
    generalized_pav,
    gpav_score,
    normalize,
    verify_ejr_1,
    verify_ejr_m,
)
from mixvote.core import atomize, utilities
from mixvote.errors import CapacityError, DomainError
from mixvote.generate import gen_fig1, gen_random
from mixvote.harmonic import HarmonicValue, exact_pav_score, harmonic
from mixvote.oracle import oracle_discretized_opt
from mixvote.rules import concave_cake_opt, pav
from mixvote.rules.pav import _CERT_SLACK, _incidence, _solve

from conftest import make_mixed
from test_index import instances


class TestFig1:
    def test_selects_cake_plus_one_good(self, fig1):
        sol = generalized_pav(fig1)
        assert len(sol.allocation.goods) == 1
        assert sol.allocation.cake == fig1.full_cake()
        expected = harmonic(F(19, 10)).value + harmonic(F(9, 10)).value
        assert abs(sol.score.value - expected) <= 1e-9
        assert sol.optimality_gap <= 1e-9

    def test_fails_exact_witness_axiom_but_passes_up_to_one(self, fig1):
        sol = generalized_pav(fig1)
        assert not verify_ejr_m(fig1, sol.allocation).passed
        assert verify_ejr_1(fig1, sol.allocation, margin=1e-6).passed


def test_dominant_subset_taken_whole():
    agents = tuple(
        Bundle(goods=frozenset({"g1", "g2"})) for _ in range(3)
    )
    inst = Instance(cake_length=F(0), goods=("g1", "g2", "g3"), agents=agents, alpha=F(2))
    sol = generalized_pav(inst)
    assert sol.allocation.goods == frozenset({"g1", "g2"})


class TestConcaveCakeOpt:
    def test_single_atom_fully_taken(self):
        inst = Instance(
            cake_length=F(1),
            goods=(),
            agents=(Bundle(cake=normalize([(F(0), F(1))])),),
            alpha=F(1),
        )
        atoms = atomize(inst, inst.full_cake(), ())
        lengths, score, gap = concave_cake_opt(inst, atoms, frozenset(), F(1))
        assert lengths[(F(0), F(1))] == 1
        assert gap == 0.0

    def test_symmetric_split(self):
        inst = Instance(
            cake_length=F(2),
            goods=(),
            agents=(
                Bundle(cake=normalize([(F(0), F(1))])),
                Bundle(cake=normalize([(F(1), F(2))])),
            ),
            alpha=F(1),
        )
        atoms = atomize(inst, inst.full_cake(), ())
        lengths, score, gap = concave_cake_opt(inst, atoms, frozenset(), F(1))
        assert abs(float(lengths[(F(0), F(1))]) - 0.5) < 1e-7
        assert abs(float(lengths[(F(1), F(2))]) - 0.5) < 1e-7
        assert sum(lengths.values(), F(0)) <= 1
        assert gap <= 1e-9

    def test_budget_takes_only_exact_rationals(self):
        # a float budget of 0.3 gave lengths summing to 3/10, above 0.3
        inst = gen_random(n=6, m=2, cake_atoms=4, alpha=F(2), density=0.6, seed=3)
        atoms = atomize(inst, inst.full_cake(), ())
        lengths, _, _ = concave_cake_opt(inst, atoms, frozenset(), F(3, 10))
        assert sum(lengths.values()) == F(3, 10)
        for budget in (0.3, True):
            with pytest.raises(DomainError, match=r"^budget must be an int or a Fraction, got"):
                concave_cake_opt(inst, atoms, frozenset(), budget)

    def test_fig1_fixed_good_takes_whole_cake(self, fig1):
        atoms = [a for a in atomize(fig1, fig1.full_cake(), fig1.goods) if not a.is_good]
        lengths, score, gap = concave_cake_opt(fig1, atoms, frozenset({"g1"}), F(1))
        assert lengths[(F(0), F(9, 10))] == F(9, 10)
        assert gap == 0.0

    @pytest.mark.parametrize("eps, message", [
        (True, r"^eps must be a number, got True$"),
        (float("nan"), "^eps must be finite and positive, got nan$"),
        (-1.0, "^eps must be finite and positive, got -1.0$"),
        (0.0, "^eps must be finite and positive, got 0.0$"),
    ])
    def test_eps_checked_as_in_generalized_pav(self, fig1, eps, message):
        # each of these returned gap 0.0 on fig1's cake
        atoms = [a for a in atomize(fig1, fig1.full_cake(), fig1.goods) if not a.is_good]
        with pytest.raises(DomainError, match=message):
            concave_cake_opt(fig1, atoms, frozenset({"g1"}), F(1), eps=eps)


@pytest.mark.parametrize("seed", range(12))
def test_indivisible_score_equals_exact_oracle(seed):
    n = 2 + seed % 5
    m = 2 + seed % 7
    inst = gen_random(
        n=n, m=m, cake_atoms=0, alpha=F(1 + seed % m), density=0.5, seed=900 + seed
    )
    sol = generalized_pav(inst)
    _, opt = oracle_discretized_opt(inst, "gpav")
    assert abs(sol.score.value - float(opt)) <= 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_mixed_gap_certificate_and_axiom(seed):
    inst = make_mixed(seed, n_max=6, m_max=4, atoms_max=3)
    sol = generalized_pav(inst)
    assert 0 <= sol.optimality_gap <= 1e-9 + 1e-11
    assert sol.allocation.size() <= inst.alpha
    assert verify_ejr_1(inst, sol.allocation, margin=1e-6).passed


@pytest.mark.parametrize("seed", [0, 4, 8])
def test_no_profitable_swaps(seed):
    """Exchange optimality: swapping a selected good for an unselected one,
    or shifting cake between atoms, never gains more than the certified gap."""
    inst = make_mixed(seed, n_max=5, m_max=4, atoms_max=2)
    sol = generalized_pav(inst)
    base = sol.score.value
    slack = sol.optimality_gap + 2 * sol.score.abs_error_bound + 1e-11
    selected = sol.allocation.goods
    unselected = [g for g in inst.goods if g not in selected]
    for out in selected:
        for inc in unselected:
            swapped = Bundle(
                cake=sol.allocation.cake,
                goods=(selected - {out}) | {inc},
            )
            assert gpav_score(inst, swapped).value <= base + slack
    lam = F(1, 100)
    taken = [iv for iv, ln in sol.atom_lengths.items() if ln >= lam]
    free = [
        (iv, ln) for iv, ln in sol.atom_lengths.items()
        if (iv[1] - iv[0]) - ln >= lam
    ]
    for take_iv in taken:
        for free_iv, used in free[:3]:
            if take_iv == free_iv:
                continue
            cake = sol.allocation.cake.subtract(
                normalize([(take_iv[0], take_iv[0] + lam)])
            ).union(normalize([(free_iv[0] + used, free_iv[0] + used + lam)]))
            cand = Bundle(cake=cake, goods=selected)
            if cand.size() > inst.alpha:
                continue
            assert gpav_score(inst, cand).value <= base + slack


# ---------------------------------------------------------------------------
# The branch and bound over goods subsets against a plain enumeration

ANCHOR = dict(seed=1, n=40, m=10, cake_atoms=12, alpha=F(5), density=0.4)


def enumerate_pav(inst):
    """Every goods subset of at most floor(alpha) goods, each with its own
    cake solve: the first highest score wins.  Returns the winner's goods,
    atom lengths, score and gap, and the gap that covers every subset."""
    atoms = atomize(inst, inst.full_cake(), ())
    best, upper = None, -math.inf
    for size in range(min(inst.m, math.floor(inst.alpha)) + 1):
        for combo in itertools.combinations(inst.goods, size):
            lengths, score, gap = concave_cake_opt(
                inst, atoms, frozenset(combo), inst.alpha - size
            )
            upper = max(upper, score.value + score.abs_error_bound + gap)
            if best is None or score.value > best[2].value:
                best = (frozenset(combo), lengths, score, gap)
    goods, lengths, score, gap = best
    global_gap = max(gap, max(upper - score.value, 0.0) + score.abs_error_bound)
    return goods, lengths, score, gap, global_gap


def assert_matches_enumeration(inst, sol):
    goods, lengths, score, own_gap, global_gap = enumerate_pav(inst)
    assert sol.allocation.goods == goods
    assert list(sol.atom_lengths.items()) == list(lengths.items())
    assert sol.score == score
    assert own_gap <= sol.optimality_gap <= global_gap


def pin(inst, sol):
    """Digest of the goods and the atom lengths in order."""
    goods = [g for g in inst.goods if g in sol.allocation.goods]
    lengths = [(str(lo), str(hi), str(ln)) for (lo, hi), ln in sol.atom_lengths.items()]
    return hashlib.sha256(repr((goods, lengths)).encode()).hexdigest()[:16]


# outputs of the plain enumeration that the branch and bound replaced
GOLDEN_PINS = {
    "fig1": "1cb7a414b4079c63",
    "anchor": "7ec9dbf0e2a17f1d",
    **{f"mixed{s}": h for s, h in enumerate([
        "bff77f72a8ffe9f0", "1391876e63685b7d", "6eeace22260fb063", "bff77f72a8ffe9f0",
        "fe8891b5fccb5a27", "0000d78e2a2be107", "b4531d5bc9db6236", "f351b7a85fda0e7f",
        "275c56cf162a5f3f", "3b908cca4722a29c", "4799fbd331b62988", "8fd88cbdb3491e0c",
        "e0efed09a165c228", "1b09098e86165842", "f84d31bb2b9597ba", "1391876e63685b7d",
        "9f63ea463537c124", "13cc4aba93f5afb9", "a5b6f39edfb8d1b8", "18686041fe7ff5d0",
        "fabee7040d5b02c2", "1c2d9dcbd19ed116", "7fd138a92be28293", "815f96c6cc6628a9",
        "1ec31c6ca000026c", "c84f869656fdb621", "a77d322dab90ec9d", "bec745e7248841f9",
        "2bc7aef16faf74f4", "0a6f94ad7c08bb36", "1391876e63685b7d", "9f63ea463537c124",
        "0dc409023abfd4b6", "27bf428898af1530", "442f531d2ebd519e", "bff77f72a8ffe9f0",
        "526dd3d6d46c612c", "d61b951c1eb1bcaf", "623157ec2ef47173", "34e6681dc425d352",
    ])},
}


def pinned_instances():
    yield "fig1", gen_fig1()[0]
    yield "anchor", gen_random(**ANCHOR)
    for s in range(40):
        yield f"mixed{s}", make_mixed(s)


def mpmath_score(inst, allocation):
    """Sum of H at the exact utilities, at 40 digits."""
    with mp.workdps(40):
        utils = utilities(inst, allocation)
        return sum(mp.harmonic(mp.mpf(u.numerator) / u.denominator) for u in utils)


def test_golden_pins():
    """The search picks the pinned goods and cake, and each score lies
    within its bound of the exact sum."""
    got = {}
    for name, inst in pinned_instances():
        sol = generalized_pav(inst)
        got[name] = pin(inst, sol)
        error = abs(mp.mpf(sol.score.value) - mpmath_score(inst, sol.allocation))
        assert error <= sol.score.abs_error_bound, name
    assert got == GOLDEN_PINS


@pytest.mark.parametrize("seed", range(12))
def test_score_bound_covers_the_exact_score(seed):
    """The reported bound covers the distance to the exact rational score,
    the rounding of the sum across 200 agents included."""
    inst = gen_random(n=200, m=8, cake_atoms=0, alpha=F(4), density=0.6, seed=seed)
    sol = generalized_pav(inst)
    exact = exact_pav_score(utilities(inst, sol.allocation))
    assert abs(F(sol.score.value) - exact) <= F(sol.score.abs_error_bound)


@pytest.mark.parametrize("seed", [253, 1634])
def test_undone_release_does_not_stall_the_solver(seed):
    """On one goods subset of each instance, the solver released a bound and
    the next step, of length zero, held the same class again.  That returns
    to the state before the release, so the loop used to repeat it until the
    step cap and raise an uncertified gap (1.2e-7 for seed 253, 1.3e-6 for
    seed 1634); the class now stays held once, and the face's own step
    comes next."""
    inst = gen_random(n=7, m=4, cake_atoms=5, alpha=F(3, 2), density=0.5, seed=seed)
    sol = generalized_pav(inst)
    assert sol.optimality_gap <= pav.DEFAULT_EPS
    error = abs(mp.mpf(sol.score.value) - mpmath_score(inst, sol.allocation))
    assert error <= sol.score.abs_error_bound


def test_huge_cake_gets_a_certified_score():
    """Utilities of 10**12 are certified at the default tolerance."""
    c = F(10**12)
    inst = Instance(c, (), tuple(Bundle(normalize([(F(0), c)])) for _ in range(3)), c)
    sol = generalized_pav(inst)
    assert sol.allocation.cake == inst.full_cake()
    assert sol.score.abs_error_bound <= 3 * pav.DEFAULT_TOL
    error = abs(mp.mpf(sol.score.value) - mpmath_score(inst, sol.allocation))
    assert error <= sol.score.abs_error_bound


def test_exact_tie_goes_to_the_first_subset():
    """{g1, g2} and {g1, g4} with the same cake give the same multiset of
    utilities, so their scores are equal in any agent order, and the
    documented rule picks the one that comes first."""
    inst = gen_random(n=6, m=4, cake_atoms=4, alpha=F(5, 2), density=0.7, seed=249)
    sol = generalized_pav(inst)
    assert sol.allocation.goods == {"g1", "g2"}
    other = Bundle(sol.allocation.cake, frozenset({"g1", "g4"}))
    assert sorted(utilities(inst, other)) == sorted(utilities(inst, sol.allocation))


def test_anchor_solves_few_subsets():
    sol = generalized_pav(gen_random(**ANCHOR))
    assert sol.subsets_solved <= 8
    assert sol.screened > 0


def test_slack_budget_subsets_are_screened():
    """The bound is exact, not inf, when the budget covers all the cake: a
    bound that dismissed nothing here would solve all 4,096 subsets."""
    sol = generalized_pav(gen_random(n=20, m=12, cake_atoms=4, alpha=F(14), seed=2))
    assert sol.subsets_solved <= 16
    assert sol.screened > 0


def test_uncertified_relaxation_expands_the_node(monkeypatch):
    monkeypatch.setattr(pav._CakeClasses, "bound", lambda self, *args: math.inf)
    inst = gen_random(n=12, m=7, cake_atoms=3, alpha=F(4), density=0.4, seed=5)
    sol = generalized_pav(inst)
    assert (sol.subsets_solved, sol.screened) == (sum(math.comb(7, k) for k in range(5)), 0)
    assert_matches_enumeration(inst, sol)


@st.composite
def instances_with_copies(draw):
    """Instances with a copied good (exact score ties) or a good nobody
    approves, on top of the index tests' instances (c = 0 included)."""
    inst = draw(instances())
    copies = draw(st.lists(st.sampled_from(inst.goods), max_size=2)) if inst.goods else []
    extra = [(f"c{k}", g) for k, g in enumerate(copies)]
    if draw(st.booleans()):
        extra.append(("nobody", None))
    agents = tuple(
        Bundle(a.cake, a.goods | {name for name, g in extra if g in a.goods})
        for a in inst.agents
    )
    goods = inst.goods + tuple(name for name, _ in extra)
    return Instance(inst.cake_length, goods, agents, inst.alpha)


@settings(max_examples=100, deadline=None)
@given(inst=instances_with_copies(), data=st.data())
def test_first_order_bound_covers_the_solved_score(inst, data):
    """A node's first-order bound plus the search's slack is at least the
    solved score of every leaf below it, for goods fixed in, goods relaxed
    and a budget as the search sets them, or any budget from zero to slack."""
    def subset(ks, max_size=None):
        if not ks:
            return []
        return data.draw(st.lists(st.sampled_from(ks), unique=True, max_size=max_size))

    table = pav._CakeClasses(inst, atomize(inst, inst.full_cake(), ()))
    taken = subset(range(inst.m), min(inst.m, math.floor(inst.alpha)))
    relaxed = subset([k for k in range(inst.m) if k not in taken and inst.index.good_approvers[k]])
    budget = inst.alpha - len(taken)
    if data.draw(st.booleans()):
        total = sum(table.lengths, F(0)) + len(relaxed)
        budget = total * F(data.draw(st.integers(0, 150)), 100)
    mask = sum(1 << k for k in taken)
    upper = table.bound(mask, budget, relaxed)
    slack = inst.n * max(pav.DEFAULT_TOL, pav._TERM_ERROR_FLOOR) + _CERT_SLACK
    for _ in range(3):
        completion = subset(relaxed, math.floor(budget))
        leaf = mask | sum(1 << k for k in completion)
        _, score, _ = table.solve(leaf, budget - len(completion), pav.DEFAULT_EPS)
        assert upper + slack >= score.value


pav_harmonic_sum = pav.harmonic_sum


def exact_harmonic_sum(xs):
    """A score with its error bound dropped, as if computed exactly: a leaf's
    score then meets, up to the last bits, a bound that is exact for it (a
    slack or zero budget)."""
    return HarmonicValue(pav_harmonic_sum(xs).value, 0.0)


@pytest.mark.parametrize("exact_scores", [False, True])
@settings(max_examples=60, deadline=None)
@given(inst=instances_with_copies())
def test_branch_and_bound_matches_enumeration(exact_scores, inst):
    with pytest.MonkeyPatch.context() as mp:
        if exact_scores:
            mp.setattr(pav, "harmonic_sum", exact_harmonic_sum)
        assert_matches_enumeration(inst, generalized_pav(inst))


@settings(max_examples=60, deadline=None)
@given(inst=instances_with_copies())
def test_unscreened_search_matches_enumeration(inst):
    """With no certified bound the search visits every subset, so its
    branching order and tie-break alone must pick the enumeration's leaf."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pav._CakeClasses, "bound", lambda self, *args: math.inf)
        sol = generalized_pav(inst)
    assert sol.screened == 0
    assert_matches_enumeration(inst, sol)


def test_goods_cap_enforced():
    inst = gen_random(n=3, m=17, cake_atoms=0, alpha=F(2), density=0.4, seed=1)
    with pytest.raises(CapacityError):
        generalized_pav(inst)
    sol = generalized_pav(inst, force=True)
    assert sol.allocation.size() <= 2


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("with_cake", [False, True])
def test_eps_checked_before_solving(fig1, eps, with_cake):
    inst = fig1 if with_cake else gen_random(n=3, m=3, cake_atoms=0, alpha=F(2), seed=1)
    with pytest.raises(DomainError, match="eps must be finite and positive"):
        generalized_pav(inst, eps=eps)


@pytest.mark.parametrize("name", ["eps"])
def test_bool_eps_or_tol_rejected(fig1, name):
    # eps=True ran at eps 1.0
    with pytest.raises(DomainError, match=rf"^{name} must be a number, got True$"):
        generalized_pav(fig1, **{name: True})


@pytest.mark.parametrize("solve", [
    lambda inst: generalized_pav(inst, tol=1e-9),
    lambda inst: concave_cake_opt(inst, atomize(inst, inst.full_cake(), ()), frozenset(), F(1), tol=1e-9),
], ids=["generalized_pav", "concave_cake_opt"])
def test_tol_is_not_a_parameter(fig1, solve):
    # tol only widened the screening slack above its default and raised
    # below about 3e-14; the scores are certified to harmonic's DEFAULT_TOL
    with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
        solve(fig1)


# ---------------------------------------------------------------------------
# The cake solver on its own: maximize sum_i H(base_i + approved lengths)
# over class lengths in [0, L] summing to at most the budget.

EPS = 1e-9


def assert_certified(base, classes, lengths, budget):
    inc = _incidence(len(base), classes)
    flengths = np.array([float(l) for l in lengths])
    y, gap = _solve(np.array([float(b) for b in base]), inc, flengths, lengths, budget, EPS)
    assert all(isinstance(v, F) and 0 <= v <= cl for v, cl in zip(y, lengths))
    assert sum(y, F(0)) <= budget
    assert 0 <= gap <= EPS / 2 + _CERT_SLACK
    return y


@st.composite
def cake_subproblems(draw):
    n = draw(st.integers(1, 6))
    # distinct nonempty approver sets; with few agents there are more
    # classes than agents, so the incidence matrix is rank-deficient
    classes = draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1),
        min_size=1, max_size=2 * n + 2, unique=True,
    ))
    for dup in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        classes = [c | {n} if dup in c else c for c in classes]  # a copy of agent dup
        n += 1
    base = [F(b) for b in draw(st.lists(st.integers(0, 200), min_size=n, max_size=n))]
    scale = draw(st.sampled_from([F(1), F(1, 10**9)]))
    lengths = [scale * F(draw(st.integers(1, 1000)), 1000) for _ in classes]
    total = sum(lengths, F(0))
    if draw(st.booleans()):
        budget = total - F(draw(st.integers(1, 10)), 10**13)
    else:
        budget = total * F(draw(st.integers(1, 99)), 100)
    return base, classes, lengths, budget


@settings(max_examples=150, deadline=None)
@given(cake_subproblems())
def test_solver_certifies_edge_cases(problem):
    assert_certified(*problem)


def test_two_classes_match_psi1_bisection():
    """Lengths agree with bisection on the exact slope, H'(x) = psi_1(x + 1)."""
    base = [0, 1, 3, 2]
    classes = [frozenset({0, 1}), frozenset({1, 2, 3})]
    lengths = [F(3, 2), F(2)]
    budget = F(2)
    y = assert_certified([F(b) for b in base], classes, lengths, budget)

    def slope(t):  # d/dt of the score at class lengths (t, budget - t)
        u = [mp.mpf(b) for b in base]
        for i in classes[0]:
            u[i] += t
        for i in classes[1]:
            u[i] += 2 - t
        return (sum(mp.psi(1, u[i] + 1) for i in classes[0])
                - sum(mp.psi(1, u[i] + 1) for i in classes[1]))

    with mp.workdps(30):
        lo, hi = mp.mpf(0), mp.mpf(3) / 2  # t = budget - L2 and t = L1
        assert slope(lo) > 0 > slope(hi)  # an interior optimum
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        t = float(lo)
    assert abs(float(y[0]) - t) <= 1e-7
    assert abs(float(y[1]) - (2 - t)) <= 1e-7


# Two subproblems of the gpav-medium benchmark workload on which the earlier
# SLSQP + Newton chain could not certify the gap and fell back to FISTA.
HARD_SUBPROBLEMS = [
    (
        [2, 0, 1, 0, 2, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 2, 0, 0, 0, 0, 1, 2, 1, 2],
        [[1, 4, 5, 9, 12, 14, 15, 16, 18, 19, 20, 21], [0, 4, 9, 10, 12, 13, 19, 20, 22],
         [1, 3, 6, 7, 11, 12, 17, 18, 20, 23], [0, 2, 4, 5, 7, 12, 19, 22], [4, 8, 12, 13],
         [2, 8, 14, 16, 20, 22]],
        ["1/16", "25/16", "5/8", "9/16", "1/8", "1/16"],
        "1",
    ),
    (
        [2, 0, 0, 1, 1, 0, 1, 0, 2, 2, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0],
        [[2, 5, 6, 12, 14, 15], [1, 2, 9, 11], [5, 6, 9, 10, 11, 14, 16, 17],
         [1, 2, 4, 10, 12, 13, 17, 18], [0, 3, 4, 8, 12, 14, 18, 19]],
        ["5/16", "13/16", "9/16", "3/16", "5/8"],
        "5/6",
    ),
]


@pytest.mark.parametrize("base, classes, lengths, budget", HARD_SUBPROBLEMS)
def test_former_fista_subproblems_certified(base, classes, lengths, budget):
    assert_certified(
        [F(b) for b in base], [frozenset(c) for c in classes],
        [F(x) for x in lengths], F(budget),
    )


def test_import_leaves_scipy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mixvote; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
