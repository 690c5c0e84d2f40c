"""Harmonic-number tests: exact anchors, certified bounds, growth properties.

Two independent oracles check the series evaluation: mpmath's digamma
(H_x = psi(x+1) + euler) and a plain partial sum with integral brackets
for the tail.
"""

import math
import random
import time
from fractions import Fraction as F

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
    harmonic_vec,
)

mp.mp.dps = 40
TOL = 1e-12


def mpmath_h(x: F) -> float:
    return float(mp.digamma(mp.mpf(x.numerator) / x.denominator + 1) + mp.euler)


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

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            harmonic(F(-1, 2))

    def test_uncertifiable_tolerance_rejected(self):
        with pytest.raises(DomainError):
            harmonic(F(1, 3), tol=1e-16)

    @pytest.mark.parametrize("x", [F(1, 2), 0.5, 3])
    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12])
    def test_non_positive_or_nan_tolerance_rejected(self, x, tol):
        with pytest.raises(DomainError):
            harmonic(x, tol)


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

    @pytest.mark.parametrize("x", [-0.5, float("nan"), float("inf")])
    def test_outside_domain_rejected(self, x):
        with pytest.raises(DomainError):
            harmonic_vec(np.array([1.0, x]))


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
