"""Quantitative stability diagnostics for the sampled path measures.

Each diagnostic operationalizes one estimate used in the existence analysis:
uniform-in-T tightness of the time-zero marginal against the ground-state
tail, convergence of window marginals as the volume grows, exponential
moments of the hitting time of a centered ball for the doubled reference
process, sup/inf ratios of doubled interaction moments over a ball of
starting points, and almost-sure path growth at integer times.

Uniform-in-T statements are operationalized as "no statistically significant
upward trend over the tested ladder"; a finite experiment cannot certify a
supremum, so constants are fitted and trends tested, never proved.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .grids import TimeGrid
from .potentials import PairPotential
from .spectral import GroundState, HeatKernel
from .reference import make_rng, stationary_weights, transfer_matrix, sample_rows, PathEnsemble
from .stats import (total_variation, integrated_autocorr_time,
                    proportion_from_indicators, upward_trend_pvalue, log_log_slope,
                    wilson_interval)
from .energy import doubled_layout
from .sampler import (GibbsSpec, ChainConfig, Smeared, run_ensemble,
                      brute_force_measure, check_enumerable, enumerated_log_weights,
                      log_sum_exp)


# ---------------------------------------------------------------------------
# ground-state tails


def psi_tail(gs: GroundState, radius: float | np.ndarray) -> float | np.ndarray:
    """Integral of the ground state over {|y| > radius} (trapezoid rule).

    The one-dimensional case integrates the interpolated profile over both
    tails; the radial case integrates psi over the complement ball in R^3,
    using the stored profile u(r) = r psi(r).  A scalar radius gives a float,
    an array of radii an array of its shape; negative radii count as 0.
    """
    x, a = gs.grid.x, np.maximum(np.asarray(radius, dtype=float), 0.0)
    if gs.radial:
        # the stored profile u has unit L2 norm on the half-line, so the
        # normalized wavefunction is u / (r sqrt(4 pi)) and its integral
        # over {|y| > R} reduces to sqrt(4 pi) * int_R r u(r) dr
        tail = np.sqrt(4.0 * np.pi) * _beyond(np.append(0.0, x), np.append(0.0, gs.psi * x), a)
    else:
        tail = _beyond(x, gs.psi, a) + _beyond(-x[::-1], gs.psi[::-1], a)
    return float(tail) if tail.ndim == 0 else tail


def _beyond(x: np.ndarray, vals: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Integral of the piecewise-linear interpolant over {x >= a}, per entry of a.

    One reverse-cumulative trapezoid serves every a: the cell areas are summed
    from the right, so tiny tails keep their relative accuracy.
    """
    cells = 0.5 * np.diff(x) * (vals[:-1] + vals[1:])
    suffix = np.append(np.cumsum(cells[::-1])[::-1], 0.0)   # area over [x[i], x[-1]]
    a = np.clip(a, x[0], x[-1])
    nxt = np.minimum(np.searchsorted(x, a, side="right"), x.size - 1)
    return 0.5 * (x[nxt] - a) * (np.interp(a, x, vals) + vals[nxt]) + suffix[nxt]


@dataclass
class DecayFit:
    """Fit of log psi against |y|^(s+1) on a tail window."""

    amplitude: float
    beta: float
    residual: float


def psi_decay_fit(gs: GroundState) -> DecayFit:
    """Log-linear tail fit psi ~ A exp(-beta |y|^(s+1)) on DECAY_FIT_WINDOW, s = GROWTH_S."""
    x = gs.grid.x
    prof = gs.psi / x if gs.radial else gs.psi
    keep = (x >= DECAY_FIT_WINDOW[0]) & (x <= DECAY_FIT_WINDOW[1]) & (prof > 1e-290)
    if keep.sum() < 3:
        raise ValueError("decay fit window contains fewer than 3 usable nodes")
    u = x[keep] ** (GROWTH_S + 1)
    logs = np.log(prof[keep])
    slope, intercept = np.polyfit(u, logs, 1)
    resid = float(np.max(np.abs(slope * u + intercept - logs)))
    return DecayFit(float(np.exp(intercept)), float(-slope), resid)


# ---------------------------------------------------------------------------
# tightness of the time-zero marginal


@dataclass
class TightnessCell:
    T: float
    R: float
    p_hat: float
    half_width: float
    tail: float
    flagged: bool

    @property
    def ratio(self) -> float:
        return self.p_hat / self.tail if self.tail > 0 else float("nan")


@dataclass
class TightnessReport:
    cells: list
    k_hat: float
    trend_pvalue: float
    domination_holds: bool


def tightness_profile(gs: GroundState, kernel: HeatKernel, w: PairPotential,
                      t_values, r_values, config: ChainConfig) -> TightnessReport:
    """Exceedance table of |x_0| over R per volume T, with a fitted constant.

    Cells whose relative confidence half-width exceeds 50% (or that saw no
    exceedance at all) are flagged and excluded from the fit and the trend
    test; K-hat is the smallest constant dominating every unflagged cell.
    """
    tails = psi_tail(gs, r_values).tolist()
    cells = []
    k_per_t = {}
    for T in t_values:
        spec = GibbsSpec(gs, kernel, w, TimeGrid(T, kernel.dt), Smeared())
        center = spec.timegrid.n
        result = run_ensemble(spec, config, record_indices=[center])
        series = np.abs(result.chain_series(center))
        best = None
        for R, tail in zip(r_values, tails):
            est = proportion_from_indicators((series > R).astype(float))
            flagged = (est.value == 0.0 or tail == 0.0
                       or est.half_width > 0.5 * est.value)
            cell = TightnessCell(T, R, est.value, est.half_width, tail, flagged)
            cells.append(cell)
            if not flagged and (best is None or cell.ratio > best[0]):
                best = (cell.ratio, est.stderr / tail)
        if best is not None:
            k_per_t[T] = best
    unflagged = [c for c in cells if not c.flagged]
    k_hat = max((c.ratio for c in unflagged), default=float("nan"))
    ts = sorted(k_per_t)
    trend_p = upward_trend_pvalue(ts, [k_per_t[t][0] for t in ts],
                                  [k_per_t[t][1] for t in ts])
    holds = all(c.p_hat <= k_hat * c.tail * (1 + 1e-12) for c in unflagged)
    return TightnessReport(cells, k_hat, trend_p, holds)


# ---------------------------------------------------------------------------
# window convergence along a volume ladder


@dataclass
class WindowDistance:
    t_small: float
    t_large: float
    tv: float
    stderr: float


@dataclass
class WindowReport:
    s_half: float
    distances: list

    @property
    def strictly_decreasing(self) -> bool:
        tvs = [d.tv for d in self.distances]
        return all(a > b for a, b in zip(tvs, tvs[1:]))

    @property
    def nonincreasing_within_ci(self) -> bool:
        return all(b.tv <= a.tv + 1.96 * (a.stderr + b.stderr)
                   for a, b in zip(self.distances, self.distances[1:]))


def window_convergence_exact(gs: GroundState, kernel: HeatKernel, w: PairPotential,
                             t_values, s_half: float) -> WindowReport:
    """Exact TV distances between successive window laws (oracle sizes)."""
    joints = []
    for T in t_values:
        spec = GibbsSpec(gs, kernel, w, TimeGrid(T, kernel.dt), Smeared())
        table = brute_force_measure(spec)
        ids = spec.timegrid.window_indices(s_half)
        joints.append(table.window_marginal(ids).reshape(-1))
    dists = [WindowDistance(a, b, total_variation(p, q), 0.0)
             for (a, p), (b, q) in zip(zip(t_values, joints), zip(t_values[1:], joints[1:]))]
    return WindowReport(s_half, dists)


def window_convergence_mc(gs: GroundState, kernel: HeatKernel, w: PairPotential,
                          t_values, s_half: float, config: ChainConfig) -> WindowReport:
    """Sampled TV distances between successive window laws, with stderr."""
    m = gs.grid.points
    laws = []
    for T in t_values:
        spec = GibbsSpec(gs, kernel, w, TimeGrid(T, kernel.dt), Smeared())
        ids = spec.timegrid.window_indices(s_half)
        check_enumerable(m, ids.size)
        result = run_ensemble(spec, config, record_indices=ids)
        nodes = result.nodes.reshape(-1, ids.size)
        codes = np.ravel_multi_index(tuple(nodes.T), (m,) * ids.size)
        probs = np.bincount(codes, minlength=m ** ids.size) / codes.size
        iat = integrated_autocorr_time(result.chain_series(ids[ids.size // 2]).reshape(-1))
        n_eff = codes.size / iat
        laws.append((probs, n_eff))
    dists = []
    for (ta, (p, na)), (tb, (q, nb)) in zip(zip(t_values, laws), zip(t_values[1:], laws[1:])):
        se = 0.5 * float(np.sqrt(np.sum(p * (1 - p)) / na + np.sum(q * (1 - q)) / nb))
        dists.append(WindowDistance(ta, tb, total_variation(p, q), se))
    return WindowReport(s_half, dists)


# ---------------------------------------------------------------------------
# hitting-time exponential moment for the doubled reference process


@dataclass
class HittingReport:
    radius: float
    gamma: float
    estimate: float
    stderr: float
    tail_bound: float
    rhs_bound: float
    hit_fraction: float

    @property
    def certified(self) -> bool:
        return self.estimate + self.tail_bound <= self.rhs_bound


def hitting_radius(gs: GroundState, threshold: float) -> float:
    """Smallest grid-aligned r with V > threshold outside radius r/sqrt(2)."""
    failing = np.abs(gs.grid.x[gs.v_grid <= threshold])
    rho = float(failing.max()) if failing.size else 0.0
    h = gs.grid.h
    return h * max(1.0, np.ceil(np.sqrt(2.0) * rho / h - 1e-12))


def hitting_time_moment(gs: GroundState, kernel: HeatKernel, start,
                        growth_rate: float, horizon: float, n_paths: int,
                        seed=0, alpha: float = float("inf")) -> HittingReport:
    """MC estimate of E[exp(C tau)] for the doubled chain entering a ball.

    tau is the first time the pair of independent stationary chains, started
    at the two given points, enters {|x| <= r} in R^2.  The ball radius and
    the decay rate gamma follow the coercivity construction: gamma is half
    of alpha - C (1 when alpha is infinite), and V > C + gamma outside
    r/sqrt(2).  The truncated horizon is certified by the analytic tail bound
    at rate gamma; the standard error needs at least two paths.
    """
    c = growth_rate
    if c < 0:
        raise ValueError("exponential moment rate must be nonnegative")
    if c >= alpha:
        raise ValueError(f"rate {c} must stay below the coercivity level {alpha}")
    if n_paths < 2:
        raise ValueError(f"hitting moment needs at least 2 paths, got {n_paths}")
    gamma = (alpha - c) / 2.0 if np.isfinite(alpha) else 1.0
    radius = hitting_radius(gs, c + gamma)
    grid = gs.grid
    nodes = grid.nearest_index(np.asarray(start, dtype=float))
    z = grid.x[nodes]
    psi_sup = float(gs.psi.max())
    amplitude = psi_sup * float(np.sum(1.0 / gs.psi[nodes]))
    rhs = 1.0 + (c / gamma) * amplitude if c > 0 else 1.0

    if float(np.hypot(z[0], z[1])) <= radius or c == 0.0:
        # already inside, or a zeroth moment: the answer is exact
        return HittingReport(radius, gamma, 1.0, 0.0, 0.0, rhs, 1.0)

    tail_bound = amplitude * (1.0 + c / gamma) * np.exp(-gamma * horizon)
    steps = int(round(horizon / kernel.dt))
    cdf_rows = transfer_matrix(gs, kernel)
    np.cumsum(cdf_rows, axis=1, out=cdf_rows)
    rng = make_rng(seed, 31)
    state = np.tile(nodes, (n_paths, 1))
    tau = np.full(n_paths, np.inf)
    alive = np.ones(n_paths, dtype=bool)
    for k in range(1, steps + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        state[idx] = sample_rows(cdf_rows, state[idx].T.ravel(),
                                 rng.random(2 * idx.size)).reshape(2, -1).T
        pos = grid.x[state[idx]]
        hit = np.hypot(pos[:, 0], pos[:, 1]) <= radius
        tau[idx[hit]] = k * kernel.dt
        alive[idx[hit]] = False
    weights = np.exp(c * np.minimum(tau, horizon))
    survivors = float(np.mean(~np.isfinite(tau)))
    estimate = float(weights.mean())
    stderr = float(weights.std(ddof=1) / np.sqrt(n_paths))
    if tail_bound > 0.1 * estimate:
        need = np.log(amplitude * (1.0 + c / gamma) / (0.05 * estimate)) / gamma
        raise ValueError(f"horizon {horizon} too short: tail bound {tail_bound:.3g} "
                         f"exceeds 10% of the estimate; use horizon >= {need:.1f}")
    return HittingReport(radius, gamma, estimate, stderr, float(tail_bound),
                         rhs, 1.0 - survivors)


# ---------------------------------------------------------------------------
# sup/inf ratio of doubled interaction moments (exact, oracle sizes)


@dataclass
class RatioBoundReport:
    t_values: tuple
    m_hats: tuple          # sup/inf over starts in the ball, per T
    k_hat: float           # max of E / (1/psi(y1) + 1/psi(y2)) over all starts

    @property
    def bounded(self) -> bool:
        return max(self.m_hats) < 2.0 * self.m_hats[0]


def doubled_moment_exact(gs: GroundState, kernel: HeatKernel, w: PairPotential,
                         T: float) -> np.ndarray:
    """E[exp(doubled interaction)] given each start pair, by enumeration.

    Returns an (m, m) table over start pairs (y1, y2) of the conditional
    expectation of exp(H-doubled) where both legs run the stationary chain
    forward over [0, T] and the four interaction terms couple same-leg pairs
    at lag |s-t| and cross-leg pairs at lag s+t.
    """
    m = gs.grid.points
    n_steps = int(round(T / kernel.dt))
    if abs(n_steps * kernel.dt - T) > 1e-9 or n_steps < 1:
        raise ValueError("T must be a positive multiple of the kernel step")
    check_enumerable(m, 2 * n_steps + 2)
    if w.kind == "constant":   # a configuration-independent interaction factors out
        return np.full((m, m), np.exp(-4.0 * w.value * (n_steps * kernel.dt) ** 2))
    # columns in doubled_layout order: leg a's instants, then leg b's; the
    # enumeration lists both starts first, so they take its first two axes
    b0 = n_steps + 1
    starts_first = [0, b0, *range(1, b0), *range(b0 + 1, 2 * b0)]
    steps = [pair for k in range(n_steps) for pair in ((k, k + 1), (b0 + k, b0 + k + 1))]
    mask, lags = doubled_layout(n_steps, kernel.dt)
    log_ref, log_weights = enumerated_log_weights(np.zeros(2 * b0, dtype=int), starts_first,
                                                  transfer_matrix(gs, kernel), steps, None,
                                                  w, gs.grid.x, mask, lags)
    return np.exp(log_sum_exp(log_weights.reshape(m, m, -1), axis=2)
                  - log_sum_exp(log_ref.reshape(m, m, -1), axis=2))


def ratio_bound_check(gs: GroundState, kernel: HeatKernel, w: PairPotential,
                      t_values, radius: float) -> RatioBoundReport:
    """Sup/inf of doubled moments over starts in a ball, per volume T."""
    grid = gs.grid
    y1, y2 = np.meshgrid(grid.x, grid.x, indexing="ij")
    in_ball = (y1 ** 2 + y2 ** 2) <= radius ** 2 * (1 + 1e-12)
    if not in_ball.any():
        raise ValueError(f"no grid start pairs inside radius {radius}")
    inv_weight = 1.0 / gs.psi[:, None] + 1.0 / gs.psi[None, :]
    m_hats = []
    k_hat = 0.0
    for T in t_values:
        table = doubled_moment_exact(gs, kernel, w, T)
        vals = table[in_ball]
        m_hats.append(float(vals.max() / vals.min()))
        k_hat = max(k_hat, float((table / inv_weight).max()))
    return RatioBoundReport(tuple(t_values), tuple(m_hats), k_hat)


# ---------------------------------------------------------------------------
# path growth at integer times


# family-wise error rate of the growth rows' simultaneous intervals
GROWTH_FAMILY_ERROR = 0.05
# the envelope f(n) = (gamma ln n)^(1/(s+1)) takes s from the growth of V,
# |x|^(s+1); the harmonic well of every command has s = 1
GROWTH_S = 1
# tail window of the decay fit of psi, and the largest residual it may leave
DECAY_FIT_WINDOW = (2.0, 5.0)
DECAY_FIT_MAX_RESIDUAL = 0.1
# terms n = 2..SUMMABILITY_TERMS of the psi-tail series at the envelope
SUMMABILITY_TERMS = 10_000


@dataclass
class GrowthRow:
    n: int
    threshold: float
    p_hat: float
    ci_low: float
    ci_high: float
    exact: float

    @property
    def consistent(self) -> bool:
        return self.ci_low - 1e-12 <= self.exact <= self.ci_high + 1e-12


@dataclass
class SummabilityReport:
    gamma: float
    slope: float
    partial_sum: float
    summable: bool


@dataclass
class GrowthReport:
    fit: DecayFit
    gamma: float
    rows: list
    limsup_proxy: float
    summability: SummabilityReport
    fit_ok: bool

    @property
    def all_consistent(self) -> bool:
        return all(r.consistent for r in self.rows)


def tail_summability(gs: GroundState, gamma: float) -> SummabilityReport:
    """Partial sums and decay slope of psi-tails at the growth envelope.

    The n-th term integrates the ground state beyond (gamma ln n)^(1/(s+1)), all terms
    in one psi_tail call; a fitted log-log slope below -1 indicates a summable series.
    """
    ns = np.arange(2, SUMMABILITY_TERMS + 1)
    thresholds = (gamma * np.log(ns)) ** (1.0 / (GROWTH_S + 1))
    terms = psi_tail(gs, thresholds)
    partial = float(terms.sum())
    keep = (ns >= SUMMABILITY_TERMS // 100) & (terms > 1e-290)
    slope = log_log_slope(ns[keep], terms[keep])
    return SummabilityReport(gamma, slope, partial, slope < -1.05)


def path_growth_check(ensemble: PathEnsemble, gs: GroundState, gamma: float) -> GrowthReport:
    """Exceedance of the logarithmic growth envelope at integer times.

    Compares the per-time exceedance fraction of |x_n| over
    f(n) = (gamma ln n)^(1/(s+1)) with the exact stationary tail, and
    reports a limsup proxy (fraction of paths below the envelope at every
    tested time).  The rows share their paths, so each gets a Bonferroni
    Wilson interval: all of them cover their exact tails with probability
    at least 1 - GROWTH_FAMILY_ERROR.  The envelope is meaningful when gamma
    exceeds the inverse of the fitted decay exponent.
    """
    fit = psi_decay_fit(gs)
    fit_ok = fit.residual <= DECAY_FIT_MAX_RESIDUAL
    tg = ensemble.timegrid
    pi = stationary_weights(gs)
    n_paths = ensemble.positions.shape[0]
    found = []   # (n, threshold, p_hat, exact) per integer time
    below = np.ones(n_paths, dtype=bool)
    for k, t in enumerate(tg.times):
        n = int(round(t))
        if n < 2 or abs(t - n) > 1e-9:
            continue
        threshold = (gamma * np.log(n)) ** (1.0 / (GROWTH_S + 1))
        samples = np.abs(ensemble.positions[:, k])
        exceed = samples > threshold
        below &= ~exceed
        exact = float(pi[np.abs(gs.grid.x) > threshold].sum())
        found.append((n, threshold, float(exceed.mean()), exact))
    if not found:
        raise ValueError("ensemble contains no integer times n >= 2")
    z = float(ndtri(1.0 - GROWTH_FAMILY_ERROR / (2 * len(found))))
    rows = [GrowthRow(n, threshold, p_hat, *wilson_interval(p_hat, n_paths, z), exact)
            for n, threshold, p_hat, exact in found]
    summ = tail_summability(gs, gamma)
    return GrowthReport(fit, gamma, rows, float(below.mean()), summ, fit_ok)
