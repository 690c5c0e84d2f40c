"""Harmonic-score rule tests: exact anchors, oracle agreement, swap optimality,
and the cake solver's certificate on hard and independently solved inputs."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
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
from mixvote.core import atomize
from mixvote.errors import CapacityError, DomainError
from mixvote.generate import gen_random
from mixvote.harmonic import harmonic
from mixvote.oracle import oracle_discretized_opt
from mixvote.rules import concave_cake_opt
from mixvote.rules.pav import _CERT_SLACK, _solve_classes

from conftest import make_mixed


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

    def test_fig1_fixed_good_takes_whole_cake(self, fig1):
        atoms = [a for a in atomize(fig1, fig1.full_cake(), fig1.goods) if not a.is_good]
        lengths, score, gap = concave_cake_opt(fig1, atoms, frozenset({"g1"}), F(1))
        assert lengths[(F(0), F(9, 10))] == F(9, 10)
        assert gap == 0.0


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


# ---------------------------------------------------------------------------
# The cake solver on its own: maximize sum_i H(base_i + approved lengths)
# over class lengths in [0, L] summing to at most the budget.

EPS = 1e-9


def assert_certified(base, classes, lengths, budget):
    y, gap = _solve_classes(base, classes, lengths, budget, EPS)
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
