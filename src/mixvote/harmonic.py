"""Generalized harmonic numbers H_x for real x >= 0, with certified error bounds.

H_x is the value of the series sum_{k>=1} x/(k(x+k)); it extends the integer
harmonic numbers 1 + 1/2 + ... + 1/x continuously and strictly monotonically.
Integer arguments short-circuit to the exact rational sum, so score
comparisons between indivisible allocations carry no tolerance slack.

For non-integer arguments the series is truncated after K terms and the tail
is evaluated in closed form with a bracketed correction: the tail equals a
difference of two logarithmic asymptotic expansions whose remainders are
bounded by the first omitted term.  The resulting absolute error bound is
reported alongside the value and is far below the default tolerance 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import Bundle, Instance, utilities
from .errors import DomainError

DEFAULT_TOL = 1e-12

_K = 48  # truncation point of the direct series
_EXACT_INTEGER_LIMIT = 10**6

# float-arithmetic slack: ~K additions of O(1) terms plus the tail formula
_ROUNDING_SLACK = 5.0e-14


@dataclass(frozen=True)
class HarmonicValue:
    """A float approximation together with a certified absolute error bound."""

    value: float
    abs_error_bound: float

    def __float__(self) -> float:
        return self.value


@lru_cache(maxsize=4096)
def _exact_integer_harmonic(n: int) -> Fraction:
    """Exact sum_{k=1}^{n} 1/k via divide-and-conquer."""

    def split(a: int, b: int) -> tuple[int, int]:
        # returns (num, den) for sum_{k=a}^{b} 1/k, reduced at each merge
        if a == b:
            return 1, a
        mid = (a + b) // 2
        n1, d1 = split(a, mid)
        n2, d2 = split(mid + 1, b)
        num, den = n1 * d2 + n2 * d1, d1 * d2
        g = math.gcd(num, den)
        return num // g, den // g

    if n == 0:
        return Fraction(0)
    num, den = split(1, n)
    return Fraction(num, den)


def _tail_log_term(z1: float, z0: float) -> tuple[float, float]:
    """psi(z1) - psi(z0) for z1 >= z0 >= _K, via the asymptotic expansion.

    Returns (value, error bound).  The expansion remainder after the z^-6
    term is bounded by the first omitted term 1/(240 z^8).
    """

    def expansion(z: float) -> float:
        inv = 1.0 / z
        inv2 = inv * inv
        return -0.5 * inv - inv2 / 12.0 + inv2 * inv2 / 120.0 - inv2 * inv2 * inv2 / 252.0

    value = math.log1p((z1 - z0) / z0) + expansion(z1) - expansion(z0)
    err = 1.0 / (240.0 * z0**8) + 1.0 / (240.0 * z1**8)
    return value, err


def _series_value(x: float) -> tuple[float, float]:
    """H_x for float x >= 0: K direct terms plus the bracketed tail."""
    if x == 0.0:
        return 0.0, 0.0
    partial = 0.0
    for k in range(_K, 0, -1):
        partial += x / (k * (x + k))
    tail, tail_err = _tail_log_term(_K + 1.0 + x, _K + 1.0)
    value = partial + tail
    bound = tail_err + _ROUNDING_SLACK * max(1.0, value)
    return value, bound


def harmonic(x: Fraction | int | float, tol: float = DEFAULT_TOL) -> HarmonicValue:
    """Generalized harmonic number H_x with |value - H_x| <= tol.

    Integer x up to 10**6 uses the exact rational sum, converted to float
    last.  Raises DomainError for negative x or a tolerance below what
    double precision can certify.
    """
    if not tol > 0:  # also rejects NaN
        raise DomainError(f"tol must be positive, got {tol}")
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError("x must be finite")
    x_frac = Fraction(x)
    if x_frac < 0:
        raise DomainError(f"harmonic numbers require x >= 0, got {x_frac}")
    if x_frac.denominator == 1 and x_frac.numerator <= _EXACT_INTEGER_LIMIT:
        exact = _exact_integer_harmonic(x_frac.numerator)
        value = float(exact)
        return HarmonicValue(value, math.ulp(value))
    value, bound = _series_value(float(x_frac))
    if bound > tol:
        raise DomainError(
            f"cannot certify tolerance {tol}; achievable bound is {bound}"
        )
    return HarmonicValue(value, bound)


def harmonic_sum(xs: Iterable[Fraction | int], tol: float = DEFAULT_TOL) -> HarmonicValue:
    """Sum of H over ``xs``, in order, with the summed error bounds."""
    total = bound = 0.0
    for x in xs:
        hv = harmonic(x, tol)
        total += hv.value
        bound += hv.abs_error_bound
    return HarmonicValue(total, bound)


def gpav_score(inst: Instance, allocation: Bundle, tol: float = DEFAULT_TOL) -> HarmonicValue:
    """Sum over agents of H at their utility, with an aggregated error bound."""
    hv = harmonic_sum(utilities(inst, allocation), tol)
    return HarmonicValue(hv.value, hv.abs_error_bound + _ROUNDING_SLACK * max(1.0, abs(hv.value)))


# ---------------------------------------------------------------------------
# Vectorized H and its derivatives (H feeds the cake search's first-order
# bound, the derivatives its solver; same tail technique)


def harmonic_vec(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized H_x for finite x >= 0: values and certified error bounds.

    Every element takes the series path of `harmonic`, integers included,
    with the same bound: the tail remainder plus the rounding slack.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all() or (x < 0).any():
        raise DomainError("harmonic numbers require finite x >= 0")
    k = np.arange(1, _K + 1, dtype=float)
    partial = (x[..., None] / (k * (x[..., None] + k))).sum(axis=-1)
    z1 = _K + 1.0 + x
    z0 = _K + 1.0
    tail = np.log1p(x / z0)
    for z, sign in ((z1, 1.0), (np.full_like(x, z0), -1.0)):
        inv = 1.0 / z
        inv2 = inv * inv
        tail += sign * (-0.5 * inv - inv2 / 12.0 + inv2**2 / 120.0 - inv2**3 / 252.0)
    value = partial + tail
    bound = 1.0 / (240.0 * z0**8) + 1.0 / (240.0 * z1**8) + _ROUNDING_SLACK * np.maximum(1.0, value)
    return value, bound


def harmonic_deriv_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized H'_x = sum_{k>=1} 1/(x+k)^2 (error ~1e-15, no certificate)."""
    x = np.asarray(x, dtype=float)
    k = np.arange(1, _K + 1, dtype=float)
    partial = (1.0 / (x[..., None] + k) ** 2).sum(axis=-1)
    z = _K + 1.0 + x
    inv = 1.0 / z
    inv2 = inv * inv
    # trigamma asymptotic; remainder below 1/(30 z^9)
    tail = inv + 0.5 * inv2 + inv2 * inv / 6.0 - inv2 * inv2 * inv / 30.0 + inv2**3 * inv / 42.0
    return partial + tail


HARMONIC_DERIV_AT_ZERO = math.pi**2 / 6  # sup of H' on [0, inf)


def harmonic_deriv2_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized H''_x = -2 sum_{k>=1} 1/(x+k)^3 (solver precision only)."""
    x = np.asarray(x, dtype=float)
    k = np.arange(1, _K + 1, dtype=float)
    partial = (-2.0 / (x[..., None] + k) ** 3).sum(axis=-1)
    z = _K + 1.0 + x
    inv = 1.0 / z
    inv2 = inv * inv
    tail = -(inv2 + inv2 * inv + 0.5 * inv2 * inv2 - inv2 * inv2 * inv2 / 6.0)
    return partial + tail


def exact_pav_score(integer_utilities: Iterable[int]) -> Fraction:
    """Exact rational PAV score for integer utilities."""
    return sum((_exact_integer_harmonic(int(u)) for u in integer_utilities), Fraction(0))
