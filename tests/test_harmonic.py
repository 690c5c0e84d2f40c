"""Harmonic-number tests: exact anchors, certified bounds, growth properties.

Two independent oracles check the series evaluation: mpmath's digamma
(H_x = psi(x+1) + euler) and a plain partial sum with integral brackets
for the tail.
"""

import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixvote import Bundle, gpav_score, harmonic
from mixvote.errors import DomainError
from mixvote.harmonic import (
    HARMONIC_DERIV_AT_ZERO,
    _exact_integer_harmonic,
    exact_pav_score,
    harmonic_deriv_vec,
    harmonic_sum,
    harmonic_vec,
)

from test_rules_pav import GOLDEN_PINS, pin

mp.mp.dps = 40
TOL = 1e-12


def mpmath_h(x: F, float_result: bool = True):
    h = mp.digamma(mp.mpf(x.numerator) / x.denominator + 1) + mp.euler
    return float(h) if float_result else h


def bracket_h(x: F, terms: int = 4000) -> tuple[float, float]:
    """Partial sum plus integral brackets for the tail (independent oracle)."""
    xf = float(x)
    partial = sum(xf / (k * (xf + k)) for k in range(1, terms + 1))
    return partial + math.log1p(xf / (terms + 1)), partial + math.log1p(xf / terms)


class TestExactValues:
    def test_h0_h1_h2(self):
        assert harmonic(0).value == 0.0
        assert harmonic(1).value == 1.0
        assert harmonic(2).value == 1.5

    def test_exact_integer_sum(self):
        assert _exact_integer_harmonic(4) == F(25, 12)
        assert _exact_integer_harmonic(10) == F(7381, 2520)

    def test_large_integer_matches_mpmath(self):
        hv = harmonic(10_000)
        assert abs(hv.value - mpmath_h(F(10_000))) <= 1e-11

    def test_integer_beyond_exact_limit_is_fast_and_certified(self):
        # the exact rational sum at 10**6 takes about a minute; the series
        # takes microseconds and certifies its bound
        started = time.perf_counter()
        hv = harmonic(10**6)
        assert time.perf_counter() - started < 1.0
        assert abs(hv.value - mpmath_h(F(10**6))) <= hv.abs_error_bound <= TOL

    def test_paper_growth_anchor(self):
        assert harmonic(F(19, 10)).value + harmonic(F(9, 10)).value > 1.45 + 0.93


class TestCertifiedBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_error_bound_holds_against_mpmath(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            x = F(rng.randint(0, 5000), rng.randint(1, 200))
            hv = harmonic(x, TOL)
            assert hv.abs_error_bound <= TOL
            assert abs(hv.value - mpmath_h(x)) <= hv.abs_error_bound

    def test_bracket_oracle_contains_value(self):
        rng = random.Random(7)
        for _ in range(40):
            x = F(rng.randint(1, 300), rng.randint(1, 60))
            hv = harmonic(x, TOL)
            lo, hi = bracket_h(x)
            assert lo - hv.abs_error_bound <= hv.value <= hi + hv.abs_error_bound

    @pytest.mark.parametrize("x", [F(27, 10) * 10**8, 10**10, 10**12, F(10**15 + 1, 3), 1e15])
    def test_large_arguments_certified_at_default_tol(self, x):
        hv = harmonic(x)
        q = F(x)
        exact = mp.harmonic(mp.mpf(q.numerator) / q.denominator)
        assert abs(mp.mpf(hv.value) - exact) <= hv.abs_error_bound <= TOL

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False))
    def test_drawn_arguments_certified_at_default_tol(self, x):
        hv = harmonic(x)
        assert abs(mp.mpf(hv.value) - mp.harmonic(mp.mpf(x))) <= hv.abs_error_bound <= TOL

    def test_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="beyond the float range"):
            harmonic(10**400)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            harmonic(F(-1, 2))

    def test_uncertifiable_tolerance_rejected(self):
        with pytest.raises(DomainError):
            harmonic(F(1, 3), tol=1e-16)
        with pytest.raises(DomainError, match="cannot certify tolerance"):
            harmonic_sum([1, 2, F(1, 3)], tol=1e-16)
        assert harmonic_sum([1, 2], tol=1e-16).value == 2.5  # exact terms

    @pytest.mark.parametrize("x", [F(1, 2), 0.5, 3])
    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12])
    def test_non_positive_or_nan_tolerance_rejected(self, x, tol):
        with pytest.raises(DomainError):
            harmonic(x, tol)

    def test_bools_rejected(self):
        # tol=True certified only to 1.0, and harmonic(True) returned H_1
        with pytest.raises(DomainError, match="^tol must be a number, got True$"):
            harmonic(2, tol=True)
        for x in (True, False):
            with pytest.raises(DomainError, match=f"^x must be a number, got {x}$"):
                harmonic(x)
        with pytest.raises(DomainError, match="^x must be a number, got True$"):
            harmonic_sum([2, True])
        assert harmonic(2, tol=1).value == harmonic(2).value == 1.5


def assert_vec_certified(xs) -> None:
    """Every element of harmonic_vec lies within its bound of mpmath's H_x."""
    values, bounds = harmonic_vec(np.array(xs, dtype=float))
    assert values.shape == bounds.shape == (len(xs),)
    for x, value, bound in zip(xs, values, bounds):
        exact = mp.harmonic(mp.mpf(float(x)))
        assert abs(mp.mpf(float(value)) - exact) <= bound, (x, value, bound)


class TestCertifiedVector:
    def test_bound_holds_at_anchor_points(self):
        assert_vec_certified([0.0, 1e-300, 0.5, *range(1, 51), 1e6, 1e12, 1e15])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.floats(min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=8,
    ))
    def test_bound_holds_on_drawn_floats(self, xs):
        assert_vec_certified(xs)

    def test_bound_holds_on_log_uniform_points(self):
        rng = random.Random(5)
        assert_vec_certified([2.0 ** rng.uniform(-40, 53) for _ in range(3000)])

    @pytest.mark.parametrize("x", [-0.5, float("nan"), float("inf")])
    def test_outside_domain_rejected(self, x):
        with pytest.raises(DomainError):
            harmonic_vec(np.array([1.0, x]))
        with pytest.raises(DomainError):
            harmonic(x)


class TestHarmonicSum:
    """The bound of a sum covers its terms and the rounding across them."""

    def test_bound_covers_integer_sums(self):
        rng = random.Random(11)
        for _ in range(300):
            xs = [rng.randint(0, 12) for _ in range(rng.randint(5, 300))]
            hv = harmonic_sum(xs)
            exact = sum((c * _exact_integer_harmonic(x) for x, c in Counter(xs).items()), F(0))
            assert abs(F(hv.value) - exact) <= F(hv.abs_error_bound)

    def test_bound_covers_mixed_sums(self):
        rng = random.Random(12)
        for _ in range(40):
            size = rng.randint(1, 60)
            xs = [F(rng.randint(0, 10**6), rng.choice([1, 3, 1000])) for _ in range(size)]
            hv = harmonic_sum(xs, TOL)
            exact = mp.fsum(mpmath_h(x, float_result=False) for x in xs)
            assert abs(mp.mpf(hv.value) - exact) <= hv.abs_error_bound

    def test_order_does_not_change_the_sum(self):
        rng = random.Random(13)
        xs = [F(rng.randint(0, 500), rng.randint(1, 7)) for _ in range(50)]
        hv = harmonic_sum(xs)
        rng.shuffle(xs)
        assert harmonic_sum(xs) == hv


class TestGrowthProperties:
    def test_recurrence_on_random_points(self):
        rng = random.Random(1)
        for _ in range(1000):
            x = F(rng.randint(0, 10000), 100)
            lhs = harmonic(x + 1, TOL).value - harmonic(x, TOL).value
            assert abs(lhs - 1.0 / float(x + 1)) <= 2 * TOL

    def test_strict_monotonicity(self):
        rng = random.Random(2)
        for _ in range(300):
            y = F(rng.randint(0, 9000), 100)
            x = y + F(rng.randint(1, 900), 100)
            if float(x - y) <= 10 * TOL:
                continue
            assert harmonic(x, TOL).value > harmonic(y, TOL).value

    def test_bounded_growth_rate(self):
        # H_{x+y} - H_x <= y/(x+y) for y in [0, 1]
        rng = random.Random(3)
        for _ in range(1000):
            x = F(rng.randint(1, 10000), 100)
            y = F(rng.randint(0, 100), 100)
            lhs = harmonic(x + y, TOL).value - harmonic(x, TOL).value
            assert lhs <= float(y / (x + y)) + 2 * TOL

    def test_derivative_at_zero_approaches_basel_constant(self):
        h = F(1, 100000)
        slope = harmonic(h, TOL).value / float(h)
        assert abs(slope - math.pi**2 / 6) <= 1e-4
        assert abs(harmonic_deriv_vec(np.zeros(1))[0] - HARMONIC_DERIV_AT_ZERO) <= 1e-12


class TestGpavScore:
    def test_fig1_two_goods_scores_two(self, fig1):
        hv = gpav_score(fig1, Bundle(goods=frozenset({"g1", "g2"})))
        assert hv.value == 2.0

    def test_fig1_cake_plus_good(self, fig1):
        alloc = Bundle(cake=fig1.full_cake(), goods=frozenset({"g1"}))
        hv = gpav_score(fig1, alloc)
        expected = mpmath_h(F(19, 10)) + mpmath_h(F(9, 10))
        assert abs(hv.value - expected) <= hv.abs_error_bound + 1e-13

    def test_empty_allocation(self, fig1):
        assert gpav_score(fig1, Bundle()).value == 0.0

    def test_exact_pav_score_matches_float_path(self):
        exact = exact_pav_score([1, 2, 5])
        approx = sum(harmonic(k).value for k in (1, 2, 5))
        assert abs(float(exact) - approx) < 1e-12


EXACT_WORK_THEN_GPAV = """
import pickle, sys, tempfile
from fractions import Fraction as F
from pathlib import Path

import mixvote
from mixvote import Bundle, cli
from mixvote.core import allocation_to_dict, instance_to_dict, save_json
from mixvote.generate import gen_fig1, gen_random

def numpy_modules():
    return sorted(name for name in sys.modules if name.startswith("numpy."))

fig1 = gen_fig1()[0]
goods = gen_random(n=4, m=4, cake_atoms=0, alpha=F(2), density=0.5, seed=3)
for inst in (fig1, goods):
    alloc, _ = mixvote.greedy_ejr_m(inst)
    mixvote.generalized_mes(inst)
    mixvote.verify_ejr_m(inst, alloc)
    mixvote.verify_ejr_1(inst, alloc)
    mixvote.verify_ejr_beta(inst, alloc, F(1, 2))
    mixvote.audit_degree(inst, alloc, "ejr-m")
    mixvote.cohesive_profiles(inst, alloc)
    sum(1 for _ in mixvote.enumerate_allocations(inst))
    mixvote.oracle_discretized_opt(inst, "nash")
    mixvote.oracle_min_max_avg(inst, 1)
mixvote.oracle_discretized_opt(goods, "gpav")
mixvote.mnw_indivisible(goods)
mixvote.harmonic(3)
with tempfile.TemporaryDirectory() as tmp:
    inst_path, alloc_path = str(Path(tmp, "inst.json")), str(Path(tmp, "alloc.json"))
    save_json(inst_path, instance_to_dict(fig1))
    save_json(alloc_path, allocation_to_dict(fig1, Bundle(cake=fig1.full_cake())))
    for argv in (["run", "--rule", "gmes"], ["run", "--rule", "greedy-ejr-m"],
                 ["verify", "--axiom", "ejr-m", "--allocation", alloc_path],
                 ["audit", "--bound", "ejr-m", "--allocation", alloc_path]):
        assert cli.dispatch([*argv, "--instance", inst_path, "--out", str(Path(tmp, "out.json"))]) in (0, 1)
print(numpy_modules())
solution = mixvote.generalized_pav(fig1)
print(bool(numpy_modules()))
print(pickle.dumps(solution).hex())
"""


def test_exact_paths_start_without_numpy(fig1):
    """The exact rules, verifiers, oracles, integer harmonic numbers and CLI
    commands run in a fresh process without loading numpy; the first gpav
    solve loads it and gives the pinned fig1 solution."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", EXACT_WORK_THEN_GPAV],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    before, after, solution = proc.stdout.splitlines()[-3:]
    assert before == "[]"
    assert after == "True"
    assert pin(fig1, pickle.loads(bytes.fromhex(solution))) == GOLDEN_PINS["fig1"]


def test_numpy_imported_first_is_shared():
    """A numpy imported before the package is the one the series uses; it
    is not executed a second time."""
    script = (
        "import importlib, numpy, mixvote\n"
        "assert importlib.import_module('mixvote.harmonic').np is numpy\n"
        "print(mixvote.harmonic(0.5).value)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == harmonic(F(1, 2)).value
