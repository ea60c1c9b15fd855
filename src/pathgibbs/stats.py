"""Statistics helpers shared by the samplers and the diagnostics reports."""

import math
from dataclasses import dataclass

import numpy as np


def total_variation(p, q) -> float:
    """TV distance between two probability vectors on the same support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("total variation needs equal-length distributions")
    return 0.5 * float(np.sum(np.abs(p - q)))


def ks_statistic_atomic(samples, support, probs) -> float:
    """Kolmogorov-Smirnov statistic of samples against a purely atomic law.

    Compares the empirical CDF with the target CDF at every atom from both
    sides, which is the correct supremum for discrete laws.
    """
    support = np.asarray(support, dtype=float)
    probs = np.asarray(probs, dtype=float)
    samples = np.sort(np.asarray(samples, dtype=float))
    order = np.argsort(support)
    support = support[order]
    cdf = np.cumsum(probs[order])
    cdf = cdf / cdf[-1]
    n = samples.size
    emp_right = np.searchsorted(samples, support, side="right") / n
    gap_right = np.abs(emp_right - cdf)
    cdf_left = np.concatenate([[0.0], cdf[:-1]])
    emp_left = np.searchsorted(samples, support, side="left") / n
    gap_left = np.abs(emp_left - cdf_left)
    return float(max(gap_right.max(), gap_left.max()))


def integrated_autocorr_time(series) -> float:
    """IAT by the initial positive sequence estimator (sum of positive
    autocorrelation pairs); 1.0 for white noise."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 4:
        return 1.0
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if var == 0.0:
        return 1.0
    max_lag = n // 2
    # FFT autocovariance; cheaper than the direct sum for long chains
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conjugate(f), m)[:max_lag + 1].real / n / var
    tau = 1.0
    k = 1
    while k + 1 <= max_lag:
        pair = acov[k] + acov[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        k += 2
    return float(max(tau, 1.0))


def effective_sample_size(series) -> float:
    series = np.asarray(series, dtype=float)
    return series.size / integrated_autocorr_time(series)


@dataclass
class ProportionEstimate:
    """A proportion with a standard error that honors chain autocorrelation."""

    value: float
    stderr: float

    @property
    def half_width(self) -> float:
        # 95% normal interval
        return 1.96 * self.stderr


def proportion_from_indicators(indicators) -> ProportionEstimate:
    """Mean and autocorrelation-adjusted stderr of a 0/1 chain series."""
    z = np.asarray(indicators, dtype=float).ravel()
    p = float(z.mean())
    if p in (0.0, 1.0):
        return ProportionEstimate(p, 0.0)
    ess = effective_sample_size(z)
    return ProportionEstimate(p, math.sqrt(p * (1.0 - p) / ess))


def wilson_interval(p_hat: float, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays valid at the boundary: zero observed successes still yield a
    positive upper limit of about z^2 / n, unlike the normal interval.
    """
    if n <= 0:
        raise ValueError("wilson interval needs a positive sample count")
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if p_hat == 0.0 else max(0.0, center - half)
    hi = 1.0 if p_hat == 1.0 else min(1.0, center + half)
    return lo, hi


def upward_trend_pvalue(xs, ys, stderrs) -> float:
    """One-sided p-value for a positive slope in a weighted linear fit.

    Small values mean a statistically significant upward trend. Degenerate
    inputs (all-zero spread, fewer than 3 points) return 1.0.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    se = np.asarray(stderrs, dtype=float)
    if xs.size < 3:
        return 1.0
    w = 1.0 / np.maximum(se, 1e-12) ** 2
    sw = w.sum()
    xbar = float((w * xs).sum() / sw)
    sxx = float((w * (xs - xbar) ** 2).sum())
    if sxx <= 0:
        return 1.0
    slope = float((w * (xs - xbar) * ys).sum() / sxx)
    slope_se = math.sqrt(1.0 / sxx)
    z = slope / slope_se
    return float(0.5 * math.erfc(z / math.sqrt(2.0)))


def log_log_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
