"""Correlations, significance, and the percentile bootstrap.

Pearson's r is the standard product-moment coefficient; its two-sided p-value
comes from the t statistic

    t = r * sqrt((n - 2) / (1 - r^2)),   df = n - 2,

evaluated through the regularized incomplete beta function

    p = I_{df/(df + t^2)}(df/2, 1/2),

computed here with a Lentz-style continued fraction (relative accuracy around
1e-12 for df >= 1; extreme tails underflow to 0.0, which is the honest answer
at double precision). Spearman's coefficient is Pearson on mean ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CorrelationReport",
    "pearson",
    "pearson_r",
    "spearman",
    "bootstrap_ci",
    "rankdata",
    "student_t_two_sided_p",
    "betainc_regularized",
]

_MAX_CF_ITER = 500
_CF_EPS = 1e-15
_TINY = 1e-300


@dataclass(frozen=True)
class CorrelationReport:
    r: float
    n: int
    p_two_sided: float
    r_squared: float

    @classmethod
    def from_r(cls, r: float, n: int) -> "CorrelationReport":
        return cls(r=r, n=n, p_two_sided=student_t_two_sided_p(r, n), r_squared=r * r)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast for x < (a+1)/(a+b+2); otherwise
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_two_sided_p(r: float, n: int) -> float:
    """Two-sided p-value for observing |r| under the null of no correlation."""
    if n < 3:
        raise ValueError("p-value requires n >= 3")
    df = n - 2
    denom = 1.0 - r * r
    if denom <= 0.0:
        return 0.0
    t2 = r * r * df / denom
    return betainc_regularized(df / 2.0, 0.5, df / (df + t2))


def _as_clean_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationReport:
    """Pearson product-moment correlation with a two-sided t-test p-value.

    Requires equal lengths, n >= 3 and both series non-constant.
    """
    return CorrelationReport.from_r(pearson_r(x, y), len(x))


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson's r alone, bit-equal to pearson(x, y).r without its p-value.

    Same requirements as pearson; raises ValueError when r is undefined.
    """
    xa = _as_clean_array(x, "x")
    ya = _as_clean_array(y, "y")
    if xa.shape != ya.shape:
        raise ValueError("x and y must have the same length")
    n = xa.size
    if n < 3:
        raise ValueError("pearson requires n >= 3")
    xm = xa - xa.mean()
    ym = ya - ya.mean()
    nx = math.sqrt(float(xm @ xm))
    ny = math.sqrt(float(ym @ ym))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("correlation is undefined for a constant series")
    if np.array_equal(xa, ya):
        return 1.0  # r(x, x) = 1 by definition
    r = float((xm / nx) @ (ym / ny))
    return max(-1.0, min(1.0, r))


def rankdata(x) -> np.ndarray:
    """Average ranks (1-based); ties receive the mean of their rank range."""
    arr = np.asarray(x, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    sorted_vals = arr[order]
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        mean_rank = 0.5 * (i + j) + 1.0
        ranks[order[i : j + 1]] = mean_rank
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationReport:
    """Spearman rank correlation: Pearson on mean-ranked data."""
    xa = _as_clean_array(x, "x")
    ya = _as_clean_array(y, "y")
    if xa.shape != ya.shape:
        raise ValueError("x and y must have the same length")
    return pearson(rankdata(xa), rankdata(ya))


def bootstrap_ci(
    units: Sequence,
    statistic: Callable[[list], float],
    B: int,
    level: float = 0.90,
    seed=0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for ``statistic`` over unit resamples.

    Resamples with replacement at the unit level. Replicate k draws from its
    own generator seeded with (seed, k), so replicates are independent and the
    interval is deterministic for a fixed seed. A resample on which the
    statistic is undefined (raises ValueError or ZeroDivisionError) is
    redrawn; after 10*B total attempts the interval is abandoned.
    """
    units = list(units)
    if len(units) < 2:
        raise ValueError("bootstrap requires at least 2 units")
    if B < 100:
        raise ValueError("bootstrap requires B >= 100")
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    n = len(units)
    seed_prefix = tuple(np.atleast_1d(np.asarray(seed, dtype=np.uint64)).tolist())
    values = []
    attempts = 0
    while len(values) < B:
        if attempts >= 10 * B:
            raise ValueError(
                "statistic undefined on too many bootstrap resamples "
                f"({attempts} attempts for {B} replicates)"
            )
        rng = np.random.default_rng(seed_prefix + (attempts,))
        attempts += 1
        idx = rng.integers(0, n, size=n)
        resample = [units[i] for i in idx]
        try:
            values.append(float(statistic(resample)))
        except (ValueError, ZeroDivisionError):
            continue
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(np.asarray(values), [alpha, 1.0 - alpha])
    return float(low), float(high)
