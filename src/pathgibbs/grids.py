"""Uniform space and time grids plus the path container shared by all modules."""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpaceGrid:
    """Uniform grid on a truncated interval of the real line.

    The grid carries `points` nodes including both endpoints; homogeneous
    Dirichlet conditions are imposed one spacing outside the interval.
    """

    lower: float
    upper: float
    points: int
    x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"space grid needs lower < upper, got [{self.lower}, {self.upper}]")
        if self.points < 3:
            raise ValueError(f"space grid needs at least 3 points, got {self.points}")
        self.x = np.linspace(self.lower, self.upper, self.points)

    @property
    def h(self) -> float:
        return (self.upper - self.lower) / (self.points - 1)

    def index_of(self, value: float) -> int:
        """Index of the node equal to `value` (within 1e-9 of a node)."""
        idx = int(np.clip(round((value - self.lower) / self.h), 0, self.points - 1))
        if abs(self.x[idx] - value) > 1e-9 * max(1.0, self.h):
            raise ValueError(f"value {value} is not on the space grid (nearest node {self.x[idx]})")
        return idx

    def nearest_index(self, value):
        """Nearest-node index, vectorized over `value`."""
        idx = np.rint((np.asarray(value) - self.lower) / self.h).astype(int)
        return np.clip(idx, 0, self.points - 1)


def radial_grid(r_max: float, points: int) -> SpaceGrid:
    """Grid on (0, r_max]: nodes i*h for i = 1..points, with u(0) = 0 implicit."""
    if r_max <= 0:
        raise ValueError("radial grid needs r_max > 0")
    h = r_max / points
    return SpaceGrid(h, r_max, points)


@dataclass
class TimeGrid:
    """Uniform grid of 2N+1 instants on [-T, T] with spacing dt (T = N*dt)."""

    T: float
    dt: float
    n: int = field(init=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.T <= 0 or self.dt <= 0:
            raise ValueError("time grid needs T > 0 and dt > 0")
        n = round(self.T / self.dt)
        if n < 1 or abs(n * self.dt - self.T) > 1e-12 * max(1.0, self.T):
            raise ValueError(f"T = {self.T} is not an integer multiple of dt = {self.dt}")
        self.n = n
        self.times = np.arange(-n, n + 1) * self.dt

    @property
    def n_times(self) -> int:
        return 2 * self.n + 1

    def index_of_time(self, t: float) -> int:
        k = round(t / self.dt)
        if abs(k * self.dt - t) > 1e-12 * max(1.0, abs(t)) or abs(k) > self.n:
            raise ValueError(f"time {t} is not on the grid [-{self.T}, {self.T}] step {self.dt}")
        return k + self.n

    def lags(self) -> np.ndarray:
        """|t_i - t_j| for every pair of instants."""
        return np.abs(self.times[:, None] - self.times[None, :])

    def window_indices(self, s_half: float) -> np.ndarray:
        """Indices of the closed window |t| <= s_half.

        A window conditional resamples the interior and keeps the values at
        t = -s_half and t = s_half with the exterior, as in the DLR
        conditioning on the complement of (-s_half, s_half).
        """
        k = int(round(s_half / self.dt))
        if abs(k * self.dt - s_half) > 1e-9 or not 0 <= k <= self.n:
            raise ValueError(f"window half-width {s_half} does not fit the time grid")
        return np.arange(self.n - k, self.n + k + 1)

    def interval_weights(self, a: float, b: float) -> np.ndarray:
        """Trapezoidal weights for the subinterval [a, b]; zero outside.

        Both endpoints must lie on the grid and inside [-T, T].
        """
        if a > b:
            raise ValueError("interval needs a <= b")
        ia, ib = self.index_of_time(a), self.index_of_time(b)
        w = np.zeros(self.n_times)
        if ia == ib:
            return w
        w[ia:ib + 1] = self.dt
        w[ia] = w[ib] = 0.5 * self.dt
        return w


@dataclass
class Path:
    """Positions sampled on a time grid (one real value per instant)."""

    timegrid: TimeGrid
    positions: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.shape != (self.timegrid.n_times,):
            raise ValueError(
                f"path length {self.positions.shape} does not match "
                f"time grid with {self.timegrid.n_times} instants"
            )
        if not np.isfinite(self.positions).all():
            raise ValueError("path contains non-finite positions")
