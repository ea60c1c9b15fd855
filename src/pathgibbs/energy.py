"""Pair-interaction energies over two-time regions, path shifts, doubling.

The energy of a path over a region R of the (t, s) plane is the 2D
trapezoid quadrature of -W(|x_t - x_s|, |t - s|). A region is a signed
sum of rectangles (inclusion-exclusion) that becomes a weight mask on the
path's own time grid, and every energy in the package, for one path, a
batch or an enumeration, goes through the one quadrature `pair_terms`. The
strip, which is unbounded in the paper, truncates at a finite horizon; its
envelope bound already covers the whole unbounded strip.
"""

from dataclasses import dataclass

import numpy as np

from .grids import Path, TimeGrid
from .potentials import PairPotential, interaction_budget


def pair_terms(w: PairPotential, mask: np.ndarray, lags: np.ndarray):
    """The terms of H = -sum_ij mask_ij W(|x_i - x_j|, lags_ij), `lags` symmetric:
    (i, j, weight, lag) of each unordered pair i < j whose weight mask_ij +
    mask_ji is nonzero (W is radial), and the path-independent diagonal,
    where u = 0, diag(mask) @ W(0, diag(lags))."""
    if np.any(lags < 0):
        raise ValueError("pair potential needs t >= 0")
    sym = mask + mask.T
    i, j = np.nonzero(np.triu(sym, k=1))
    return i, j, sym[i, j], lags[i, j], np.diagonal(mask) @ w.radial(0.0, np.diagonal(lags))


def pair_action(w: PairPotential, positions: np.ndarray,
                mask: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """H of `pair_terms` for one path per row of `positions` (or one 1-d path)."""
    i, j, weight, lag, diagonal = pair_terms(w, mask, lags)
    x = np.ascontiguousarray(np.atleast_2d(positions).T)   # one row per time slice
    return -(weight @ w.radial(np.abs(x[i] - x[j]), lag[:, None]) + diagonal)


@dataclass(frozen=True)
class Region:
    """Signed sum of rectangles [t0, t1] x [s0, s1] in the (t, s) plane.

    `rects` holds (sign, (t0, t1), (s0, s1)) triples. A region that is
    unbounded in the paper is truncated to |t|, |s| <= span().
    """

    name: str
    rects: tuple

    def span(self) -> float:
        return max(abs(e) for _, t, s in self.rects for e in (*t, *s))

    def weights(self, tg: TimeGrid) -> np.ndarray:
        return sum(sign * np.outer(tg.interval_weights(*t), tg.interval_weights(*s))
                   for sign, t, s in self.rects)

    def envelope_bound(self, w: PairPotential) -> float:
        """Each instant meets at most the interaction budget along the other
        time axis, so a rectangle collects at most budget x its shorter side."""
        return interaction_budget(w) * sum(min(t[1] - t[0], s[1] - s[0])
                                           for sign, t, s in self.rects if sign > 0)


def SquareRegion(T: float) -> Region:
    """[-T, T] x [-T, T]."""
    if T <= 0:
        raise ValueError("square region needs T > 0")
    return Region(f"square(T={T})", ((1.0, (-T, T), (-T, T)),))


def FrameRegion(S: float, T: float) -> Region:
    """([-T,T] x [-S,S]) union ([-S,S] x [-T,T]), by inclusion-exclusion."""
    if not 0 < S <= T:
        raise ValueError("frame region needs 0 < S <= T")
    return Region(f"frame(S={S}, T={T})",
                  ((1.0, (-T, T), (-S, S)), (1.0, (-S, S), (-T, T)), (-1.0, (-S, S), (-S, S))))


def StripRegion(S: float, t_max: float) -> Region:
    """(R x [-S,S]) truncated to |t| <= t_max.

    Its envelope bound, budget x 2S, does not depend on t_max: it bounds the
    interaction over the whole unbounded strip.
    """
    if not 0 < S <= t_max:
        raise ValueError("strip region needs 0 < S <= t_max")
    return Region(f"strip(S={S}, t_max={t_max})", ((1.0, (-t_max, t_max), (-S, S)),))


def region_action(w: PairPotential, positions: np.ndarray, tg: TimeGrid,
                  region: Region) -> np.ndarray:
    """`pair_action` over the region for paths on `tg`, one per row."""
    if region.span() > tg.T + 1e-12:
        raise ValueError(f"path covers [-{tg.T}, {tg.T}] but region {region.name} "
                         f"extends to {region.span()}")
    return pair_action(w, positions, region.weights(tg), tg.lags())


def interaction_energy(w: PairPotential, path: Path, region: Region) -> float:
    """-(2D quadrature of W over the region) on the path's time grid."""
    return float(region_action(w, path.positions, path.timegrid, region)[0])


def _stack(paths: list) -> tuple[TimeGrid, np.ndarray]:
    """The one time grid of an ensemble and its positions, one path per row."""
    tg = paths[0].timegrid
    if any(p.timegrid != tg for p in paths):
        raise ValueError("paths must share one time grid")
    return tg, np.stack([p.positions for p in paths])


def _shift_index(tg: TimeGrid, tau: float) -> tuple[TimeGrid, np.ndarray]:
    """Grid of the shifted path and, per instant, the index it reads from."""
    k = round(tau / tg.dt)
    if k < 0 or abs(k * tg.dt - tau) > 1e-12 * max(1.0, tau):
        raise ValueError(f"shift {tau} is not a nonnegative multiple of dt = {tg.dt}")
    if k == 0:
        return tg, np.arange(tg.n_times)
    if tg.n - k < 1:
        raise ValueError(f"shift {tau} leaves no interior window of the path")
    out_tg = TimeGrid((tg.n - k) * tg.dt, tg.dt)
    idx = np.arange(-out_tg.n, out_tg.n + 1)
    return out_tg, np.where(idx >= 0, idx + k, idx - k) + tg.n


def apply_shift(path: Path, tau: float) -> Path:
    """Outward two-sided time shift: value at t >= 0 comes from t + tau,
    value at t < 0 from t - tau; the result spans [-T + tau, T - tau]."""
    out_tg, src = _shift_index(path.timegrid, tau)
    return Path(out_tg, path.positions[src])


@dataclass
class ShiftInequalityReport:
    """Outcome of testing energy(x) <= energy(shifted x) + C tau + D."""

    worst_gap_per_tau: list
    violations: list
    c_star: float
    d_star: float

    @property
    def holds(self) -> bool:
        return not self.violations


def _feasible_line(taus: np.ndarray, gaps: np.ndarray) -> tuple[float, float]:
    """Least-squares slope/intercept through the per-tau worst gaps, lifted
    to feasibility and clipped to the nonnegative quadrant."""
    if taus.size == 1:
        c = 0.0
    else:
        tc = taus - taus.mean()
        c = float(np.dot(tc, gaps - gaps.mean()) / np.dot(tc, tc))
    c = max(c, 0.0)
    d = max(0.0, float(np.max(gaps - c * taus)))
    return c, d


def check_shift_inequality(w: PairPotential, paths, T: float, taus,
                           C: float | None = None, D: float | None = None,
                           tol: float = 1e-9) -> ShiftInequalityReport:
    """Check the shift stability inequality on an ensemble.

    The paths must share one time grid spanning [-T - max(tau),
    T + max(tau)]. When C and D are given, violations are reported against
    them; the fitted (c_star, d_star) is the smallest feasible line over
    the sampled gaps either way. Without C and D the fitted line dominates
    every gap by construction, so `holds` is then always true and only
    c_star and d_star carry information.
    """
    paths = list(paths)
    taus = np.asarray(sorted(float(t) for t in taus), dtype=float)
    if not paths or taus.size == 0 or taus[0] <= 0:
        raise ValueError("need paths and positive shift values")
    tg, x = _stack(paths)
    region = SquareRegion(T)
    base = region_action(w, x, tg, region)
    gaps = np.empty((len(paths), taus.size))
    for j, tau in enumerate(taus):
        out_tg, src = _shift_index(tg, tau)
        gaps[:, j] = base - region_action(w, x[:, src], out_tg, region)
    worst = gaps.max(axis=0)
    c_star, d_star = _feasible_line(taus, worst)
    if C is None or D is None:
        C, D = c_star, d_star
    bad = np.argwhere(gaps > C * taus + D + tol)
    excess = gaps - C * taus - D
    violations = [(int(i), float(taus[j]), float(excess[i, j])) for i, j in bad]
    return ShiftInequalityReport([float(g) for g in worst], violations, c_star, d_star)


@dataclass
class DoubledPath:
    """One-sided pair of branches on 0..N; index 0 carries the same value
    on both branches when the pair is the fold of a two-sided path."""

    timegrid: TimeGrid
    forward: np.ndarray
    backward: np.ndarray

    def __post_init__(self):
        self.forward = np.asarray(self.forward, dtype=float)
        self.backward = np.asarray(self.backward, dtype=float)
        n = self.timegrid.n + 1
        if self.forward.shape != (n,) or self.backward.shape != (n,):
            raise ValueError(f"doubled path needs two branches of length {n}")


def fold_path(path: Path) -> DoubledPath:
    """Fold a two-sided path into (forward, backward) one-sided branches."""
    n = path.timegrid.n
    return DoubledPath(path.timegrid, path.positions[n:], path.positions[n::-1])


def doubled_layout(steps: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Mask and lags of two branches on 0, dt, ..., steps dt laid out as one
    path of 2 (steps + 1) instants, the first branch then the second.

    Same-branch pairs sit at lag |s - t| and cross-branch pairs at s + t;
    every block carries the trapezoid weights of [0, steps dt] in both times.
    """
    t = dt * np.arange(steps + 1)
    wt = np.full(steps + 1, dt)
    wt[0] = wt[-1] = 0.5 * dt
    same = np.abs(t[:, None] - t[None, :])
    cross = t[:, None] + t[None, :]
    return np.tile(np.outer(wt, wt), (2, 2)), np.block([[same, cross], [cross, same]])


def doubled_energy(w: PairPotential, dp: DoubledPath, T: float) -> float:
    """Energy of the folded pair: same-branch terms at lag |s-t| plus
    cross-branch terms at lag s+t, integrated over [0,T]^2."""
    tg = dp.timegrid
    if T > tg.T + 1e-12:
        raise ValueError(f"doubled path covers [0, {tg.T}], got T = {T}")
    k = tg.index_of_time(T) - tg.n
    mask, lags = doubled_layout(k, tg.dt)
    x = np.concatenate([dp.forward[:k + 1], dp.backward[:k + 1]])
    return float(pair_action(w, x, mask, lags)[0])
