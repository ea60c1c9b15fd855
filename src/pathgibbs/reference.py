"""Stationary reference diffusion built from a ground state.

The sampler is the exact discrete chain on the space grid, whose one-step
law is the heat kernel reweighted by the ground state. A Trotter-product
evaluator verifies the kernel representation of expectations.
"""

from dataclasses import dataclass

import numpy as np

from .grids import Path, TimeGrid
from .spectral import GroundState, HeatKernel
from .stats import log_log_slope

# largest |row sum - 1| that transfer_matrix accepts: relative kernel error
# (about 1e-13) plus dt times the relative residual |A psi| / psi of the
# ground state (about 1e-12 on the default box), with ample headroom
TRANSFER_ROW_SUM_TOLERANCE = 1e-9
# least draw target, so that every draw lands on a column with mass
SMALLEST = np.nextafter(0.0, 1.0)


def make_rng(seed, *stream) -> np.random.Generator:
    """Counter-based generator; (seed, stream ids) fully determine draws."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        seed, spawn_key=tuple(int(s) for s in stream))))


def stationary_weights(gs: GroundState) -> np.ndarray:
    """Atom masses of the discrete stationary law (sums to 1 exactly)."""
    pi = gs.psi**2 * gs.grid.h
    return pi / pi.sum()


def transition_density(gs: GroundState, kernel: HeatKernel, y: float) -> np.ndarray:
    """Pointwise density over z of one step from y (a grid node)."""
    iy = gs.grid.index_of(y)
    dens = kernel.matrix[iy] * gs.psi / (gs.psi[iy] * gs.grid.h)
    w = np.full(gs.grid.points, gs.grid.h)
    w[0] = w[-1] = 0.5 * gs.grid.h
    mass = float(dens @ w)
    if abs(mass - 1.0) > 1e-4:
        raise ValueError(f"transition mass {mass} deviates from 1 beyond 1e-4: "
                         "kernel and ground state are inconsistent")
    return dens


def transfer_matrix(gs: GroundState, kernel: HeatKernel) -> np.ndarray:
    """Row-stochastic one-step matrix P(i,j) = K(i,j) psi_j / psi_i.

    Rows sum to 1 because K psi = psi; the kernel and psi are both
    relatively accurate at every node, the walls included, so this holds
    to rounding without any renormalization. A row off by more than
    TRANSFER_ROW_SUM_TOLERANCE means the kernel and the ground state do
    not belong together and raises ValueError.
    """
    p = kernel.matrix * gs.psi[None, :]
    p /= gs.psi[:, None]
    worst = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
    if worst > TRANSFER_ROW_SUM_TOLERANCE:
        raise ValueError(f"transfer matrix row sum deviates from 1 by {worst:.3e}: "
                         "kernel and ground state are inconsistent")
    return p


def sample_rows(cdf_rows: np.ndarray, current: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The package's one draw rule, for each path from its current row of
    cumulative masses: the first column reaching max(u * row total, SMALLEST),
    so a column without mass is never drawn.  One bisection over all paths at
    once on flat row indices, ceil(log2 M) vector passes for M columns, in
    five work vectors of the path count.
    """
    m, flat = cdf_rows.shape[1], cdf_rows.reshape(-1)
    base = current * m
    index = base + (m - 1)
    target = flat.take(index)
    target *= u
    np.maximum(target, SMALLEST, out=target)
    probe, below = np.empty(base.size), np.empty(base.size, dtype=bool)
    width = m   # the column drawn lies in [base, base + width)
    while width > 1:
        half = width // 2
        flat.take(np.add(base, half - 1, out=index), out=probe, mode="clip")
        np.add(base, half, out=base, where=np.less(probe, target, out=below))
        width -= half
    base -= np.multiply(current, m, out=index)
    return base


@dataclass
class PathEnsemble:
    """Positions for a batch of paths."""

    timegrid: TimeGrid
    positions: np.ndarray

    def path(self, i: int) -> Path:
        return Path(self.timegrid, self.positions[i])

    def __len__(self) -> int:
        return self.positions.shape[0]


def sample_paths(gs: GroundState, kernel: HeatKernel, timegrid: TimeGrid,
                 n_paths: int, seed, mode: str = "grid") -> PathEnsemble:
    """Stationary ensemble of reference paths on the time grid.

    mode "grid": exact chain on the space nodes. mode "interp": the same
    chain emitted with independent uniform within-cell offsets, giving
    atom-free positions whose law is the node law smoothed over cells.
    The walk keeps one node vector per step and one M x M table, the
    transfer matrix cumsummed in place.
    """
    if abs(kernel.dt - timegrid.dt) > 1e-12:
        raise ValueError(f"kernel step {kernel.dt} does not match time grid step {timegrid.dt}")
    if mode not in ("grid", "interp"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    rng = make_rng(seed)
    grid = gs.grid
    cdf_rows = transfer_matrix(gs, kernel)
    np.cumsum(cdf_rows, axis=1, out=cdf_rows)
    positions = np.empty((n_paths, timegrid.n_times))
    node = sample_rows(np.cumsum(stationary_weights(gs))[None, :],
                       np.zeros(n_paths, dtype=np.int64), rng.random(n_paths))
    positions[:, 0] = grid.x[node]
    for t in range(1, timegrid.n_times):
        node = sample_rows(cdf_rows, node, rng.random(n_paths))
        positions[:, t] = grid.x[node]
    if mode == "interp":
        jitter = rng.random(positions.shape)
        jitter -= 0.5
        jitter *= grid.h
        positions += jitter
        np.clip(positions, grid.lower, grid.upper, out=positions)
    return PathEnsemble(timegrid, positions)


_ZERO_BRIDGE_MASS = ("zero conditional mass between the endpoints; "
                     "increase dt or the number of bridge steps")


def bridge_conditional(kernel: HeatKernel, current: int, pin: int,
                       steps_left: int) -> np.ndarray:
    """Law of the next node given the current node and the pin after
    `steps_left` further steps (probabilities over the grid)."""
    if steps_left < 1:
        raise ValueError("bridge conditional needs at least one step to the pin")
    weights = kernel.matrix[current] * kernel.pin_columns(pin, steps_left)[-1]
    if weights.sum() <= 0.0:
        raise ValueError(_ZERO_BRIDGE_MASS)
    return weights / weights.sum()


def sample_bridge(kernel: HeatKernel, timegrid: TimeGrid, a: float, b: float,
                  n_paths: int, seed) -> PathEnsemble:
    """Independent exact bridges given x at -T equals a and x at +T equals b.

    The pin columns K^j[:, b] are built once.  At interior step k of m every
    path draws from the row cumsums of K · K^(m-k)[:, b], built in place only
    for the distinct nodes the paths occupy at step k - 1, and the walk keeps
    one node vector per step.
    """
    if abs(kernel.dt - timegrid.dt) > 1e-12:
        raise ValueError(f"kernel step {kernel.dt} does not match time grid step {timegrid.dt}")
    x = kernel.grid.x
    ia, ib = kernel.grid.index_of(a), kernel.grid.index_of(b)
    rng = make_rng(seed)
    m = timegrid.n_times - 1
    cols = kernel.pin_columns(ib, m)
    positions = np.empty((n_paths, timegrid.n_times))
    positions[:, 0], positions[:, -1] = x[ia], x[ib]
    node = np.full(n_paths, ia)
    for k in range(1, m):
        rows, current = np.unique(node, return_inverse=True)
        cdf_rows = kernel.matrix[rows] * cols[m - k]
        np.cumsum(cdf_rows, axis=1, out=cdf_rows)
        if np.any(cdf_rows[:, -1] <= 0.0):
            raise ValueError(_ZERO_BRIDGE_MASS)
        node = sample_rows(cdf_rows, current, rng.random(n_paths))
        positions[:, k] = x[node]
    return PathEnsemble(timegrid, positions)


def bridge_marginal(kernel: HeatKernel, ia: int, ib: int, k: int, m: int) -> np.ndarray:
    """Exact law of the bridge at interior step k of m (matrix computation)."""
    if not 0 < k < m:
        raise ValueError("bridge marginal needs an interior index")
    fwd = kernel.power(k)[ia]
    bwd = kernel.power(m - k)[:, ib]
    w = fwd * bwd
    return w / w.sum()


@dataclass
class FkfReport:
    residuals: list
    chain_value: float
    order: float


def _trotter_expectation(gs: GroundState, f_vals: np.ndarray, T: float, dt: float) -> float:
    """psi-weighted Strang product of (half potential, free Gaussian kernel,
    half potential) steps, normalized so f = 1 returns exactly 1."""
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-12:
        raise ValueError(f"T = {T} is not a multiple of dt = {dt}")
    x = gs.grid.x
    h = gs.grid.h
    v_sh = gs.v_grid - gs.energy
    half = np.exp(-0.5 * dt * v_sh)
    gauss = h * np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * dt)) \
        / np.sqrt(2.0 * np.pi * dt)
    num = f_vals * gs.psi
    den = gs.psi.copy()
    for _ in range(n_steps):
        num = half * (gauss @ (half * num))
        den = half * (gauss @ (half * den))
    return float(gs.psi @ num) / float(gs.psi @ den)


def verify_fkf(gs: GroundState, f, T: float, dt: float) -> float:
    """|stationary chain expectation - Trotter-product expectation| of f."""
    f_vals = np.asarray(f(gs.grid.x) if callable(f) else f, dtype=float)
    chain = float(stationary_weights(gs) @ f_vals)
    return abs(_trotter_expectation(gs, f_vals, T, dt) - chain)


def fkf_convergence(gs: GroundState, f, T: float, dts) -> FkfReport:
    """Residuals over a dt ladder plus the fitted convergence order."""
    f_vals = np.asarray(f(gs.grid.x) if callable(f) else f, dtype=float)
    chain = float(stationary_weights(gs) @ f_vals)
    residuals = [abs(_trotter_expectation(gs, f_vals, T, dt) - chain) for dt in dts]
    order = log_log_slope(dts, residuals)
    return FkfReport(residuals, chain, order)
