"""Generalized harmonic numbers H_x for real x >= 0, with certified error bounds.

H_x is the value of the series sum_{k>=1} x/(k(x+k)); it extends the integer
harmonic numbers 1 + 1/2 + ... + 1/x continuously and strictly monotonically.
Integer arguments up to 10**4 short-circuit to the exact rational sum, so
score comparisons between indivisible allocations carry no tolerance slack
beyond the final rounding; larger ones take the series, whose exact sum
grows too costly (about 70 s at 10**6).

Every other argument takes one kernel, `harmonic_vec`: 48 direct terms
plus the tail psi(49+x) - psi(49), which is log1p(x/49) plus a difference
of the asymptotic expansions of psi after log; each expansion's remainder
is below its first omitted term 1/(240 z^8).  Its rounding bound, with
u = 2**-53: each term x/(x+k)/k is off by 3u relative and all are
nonnegative, so their sum, below H_48 < 4.5, is off by at most 51u * 4.5
< 230u; rounding log1p's argument costs u, and rounding a rational x to a
float 2u, since H'(x) <= 1/x.  Relative to the value: log1p is within 4
ulps (8u, numpy's SIMD builds), the three additions that finish the value
cost u each, and one more u is the term's share of the rounding of a
correctly rounded sum (`math.fsum`) of any number of terms.  The bound is
the remainders plus 2**-45 = 256u plus 2**-49 = 16u of the value, with
headroom for the expansion terms (below 0.011) and the bounds' own sums.
An exact integer term, rounded once to the nearest float, carries 2u of
its value.  So `harmonic_sum`, a `math.fsum` of terms, is certified to the
sum of their bounds, at most n * max(tol, 2**-48) for n terms.

numpy is needed only by the series and by the gpav cake solver, so `np` is
bound lazily: importing this module finds numpy but runs none of its code;
the first attribute read of `np` loads it, and from then on `np` is the
plain numpy module.  The exact rules, verifiers, oracles and integer
harmonic numbers so start without numpy.  `rules.pav` takes this same
`np`, so which modules load numpy eagerly is decided here alone.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .core import Bundle, Instance, utilities
from .errors import DomainError

DEFAULT_TOL = 1e-12

_K = 48  # truncation point of the direct series
_EXACT_INTEGER_LIMIT = 10**4
_U = 2.0**-53  # unit roundoff of a double


def _lazy_numpy():
    """numpy, registered in `sys.modules` but executed on first attribute
    read (an already imported numpy is returned as it is)."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


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


def harmonic(x: Fraction | int | float, tol: float = DEFAULT_TOL) -> HarmonicValue:
    """Generalized harmonic number H_x with |value - H_x| <= tol.

    Integer x up to 10**4 uses the exact rational sum, converted to float
    last.  Raises DomainError for negative or non-finite x or a tolerance
    below what double precision can certify.
    """
    return harmonic_sum((x,), tol)


def harmonic_sum(xs: Iterable[Fraction | int | float], tol: float = DEFAULT_TOL) -> HarmonicValue:
    """Sum of H over ``xs``, each term certified to ``tol``, by `math.fsum`;
    the bound covers every term and the rounding of the sum."""
    if not tol > 0:  # also rejects NaN
        raise DomainError(f"tol must be positive, got {tol}")
    values: list[float] = []
    args: list[float] = []
    for x in xs:
        if type(x) is not Fraction and type(x) is not int:
            if isinstance(x, float) and not math.isfinite(x):
                raise DomainError("x must be finite")
            x = Fraction(x)
        if x.numerator < 0:
            raise DomainError(f"harmonic numbers require x >= 0, got {x}")
        if x.denominator == 1 and x.numerator <= _EXACT_INTEGER_LIMIT:
            values.append(float(_exact_integer_harmonic(x.numerator)))
        else:
            try:
                args.append(x.numerator / x.denominator)
            except OverflowError:
                raise DomainError("x lies beyond the float range") from None
    bounds = [2 * _U * v for v in values]
    if args:
        series, series_bounds = harmonic_vec(np.array(args))
        worst = float(series_bounds.max())
        if worst > tol:
            raise DomainError(f"cannot certify tolerance {tol}; achievable bound is {worst}")
        values += series.tolist()
        bounds += series_bounds.tolist()
    return HarmonicValue(math.fsum(values), math.fsum(bounds))


def gpav_score(inst: Instance, allocation: Bundle, tol: float = DEFAULT_TOL) -> HarmonicValue:
    """Sum over agents of H at their utility, with an aggregated error bound."""
    return harmonic_sum(utilities(inst, allocation), tol)


# ---------------------------------------------------------------------------
# Vectorized H and its derivatives (H is the one series evaluation, behind
# every score and the cake search's first-order bound; the derivatives feed
# the cake solver)


def harmonic_vec(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized H_x for finite x >= 0: values and certified error bounds.

    Every element takes the series, integers included; each bound is the
    tail remainder plus the rounding bound derived in the module docstring,
    so a `math.fsum` of values lies within the sum of their bounds.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all() or (x < 0).any():
        raise DomainError("harmonic numbers require finite x >= 0")
    k = np.arange(1, _K + 1, dtype=float)
    partial = (x[..., None] / (x[..., None] + k) / k).sum(axis=-1)
    z0 = _K + 1.0
    tail = np.log1p(x / z0)
    remainder = 0.0
    for z, sign in ((z0 + x, 1.0), (z0, -1.0)):
        inv = 1.0 / z
        inv2 = inv * inv
        tail += sign * (-0.5 * inv - inv2 / 12.0 + inv2**2 / 120.0 - inv2**3 / 252.0)
        remainder = remainder + inv2**4 / 240.0
    value = partial + tail
    return value, remainder + 2.0**-45 + 2.0**-49 * value


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
