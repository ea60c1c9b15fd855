"""MCMC sampling of pair-interaction path measures, with exact small oracles.

The target measure reweights the stationary reference chain on the time grid
by exp(H), where H is the negative double-time interaction integral over the
square region (see the energy module for the sign convention).  Moves are
Metropolis-within-Gibbs with reference-conditional (heat-bath) proposals, so
the acceptance ratio only involves interaction differences.

Small instances (few space nodes, few time slices) are enumerated exactly:
`brute_force_measure` returns the full normalized table, and
`window_conditional_exact` the exact conditional law of a time window given
the configuration outside it.  These serve as oracles for the chain.  Every
enumeration in the package, the doubled moments of the diagnostics
included, asks one size rule (`check_enumerable`) and gets its reference
log-mass and pair action from one chunked pass (`enumerated_log_weights`).
"""

from dataclasses import dataclass, field
import json
import warnings

import numpy as np
from scipy.special import logsumexp

from .grids import SpaceGrid, TimeGrid
from .potentials import PairPotential
from .spectral import GroundState, HeatKernel
from .reference import make_rng, sample_paths, sample_bridge
from .energy import FrameRegion, SquareRegion, pair_action


@dataclass(frozen=True)
class Smeared:
    """Free endpoints; the left end is drawn from the stationary density."""


@dataclass(frozen=True)
class Pinned:
    """Both endpoints held fixed at the given positions."""

    left: float
    right: float


@dataclass
class GibbsSpec:
    """Everything needed to sample one finite-volume path measure."""

    gs: GroundState
    kernel: HeatKernel
    w: PairPotential
    timegrid: TimeGrid
    boundary: object = field(default_factory=Smeared)

    def __post_init__(self):
        if abs(self.kernel.dt - self.timegrid.dt) > 1e-12:
            raise ValueError(
                f"kernel step {self.kernel.dt} does not match time step {self.timegrid.dt}")
        if self.gs.grid != self.kernel.grid:
            raise ValueError("ground state and kernel live on different grids")
        if isinstance(self.boundary, Pinned):
            self.gs.grid.index_of(self.boundary.left)
            self.gs.grid.index_of(self.boundary.right)
        elif not isinstance(self.boundary, Smeared):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")

    @property
    def grid(self) -> SpaceGrid:
        return self.gs.grid


@dataclass
class ChainConfig:
    sweeps: int
    burnin: int = 100
    block_len: int = 5
    seed: int = 0
    n_chains: int = 1
    mode: str = "interp"
    record_every: int = 1

    def __post_init__(self):
        if self.sweeps < 1 or self.burnin < 0:
            raise ValueError("need sweeps >= 1 and burnin >= 0")
        if self.block_len < 1:
            raise ValueError("block length must be at least 1")
        if self.mode not in ("grid", "interp"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.n_chains < 1 or self.record_every < 1:
            raise ValueError("need n_chains >= 1 and record_every >= 1")


@dataclass
class EnsembleResult:
    """Recorded positions of a batch of chains, one row per recorded sweep."""

    timegrid: TimeGrid
    record_indices: np.ndarray
    positions: np.ndarray  # (records, chains, len(record_indices))
    accept_single: float
    accept_block: float
    config: ChainConfig

    def pooled(self, time_index: int) -> np.ndarray:
        """All recorded samples of the coordinate at one time index."""
        where = np.flatnonzero(self.record_indices == time_index)
        if where.size != 1:
            raise ValueError(f"time index {time_index} was not recorded")
        return self.positions[:, :, where[0]].reshape(-1)

    def chain_series(self, time_index: int) -> np.ndarray:
        """(chains, records) series of one coordinate, for autocorrelation."""
        where = np.flatnonzero(self.record_indices == time_index)
        if where.size != 1:
            raise ValueError(f"time index {time_index} was not recorded")
        return self.positions[:, :, where[0]].T.copy()


def _sample_categorical_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One draw per row of an unnormalized probability matrix.

    The draw is the first column whose cumulative mass reaches u * total;
    u < 1, so the last column always qualifies and `argmax` finds it.
    """
    cdf = np.cumsum(probs, axis=1)
    total = cdf[:, -1]
    if (total <= 0.0).any():
        raise ValueError("proposal distribution has zero mass; "
                         "anchors are too far apart for this time step")
    return np.argmax(cdf >= (u * total)[:, None], axis=1)


class _Engine:
    """Batched Metropolis-within-Gibbs kernel over a set of chains.

    The interaction region is the full square, and every time index moves
    except pinned endpoints.  A block needs an anchor on both sides, so
    block moves never touch the endpoints.

    Each chain carries its node indices (`nodes`, the grid cell of every
    position) next to its positions, so proposals gather kernel rows
    directly.  W is radial, so a move's interaction change is one
    `radial` call per state (old and new) against the symmetric weights
    `sym_w`; the diagonal W(0, 0) terms never change and drop out.
    """

    def __init__(self, spec: GibbsSpec, config: ChainConfig, init: np.ndarray):
        self.spec = spec
        self.w = spec.w
        self.grid = spec.grid
        self.k = spec.kernel.matrix
        self.psi = spec.gs.psi
        self.mode = config.mode
        tg = spec.timegrid
        self.n_t = tg.n_times
        self.lags = tg.lags()
        self.mask = SquareRegion(tg.T).weights(tg)
        edge = int(isinstance(spec.boundary, Pinned))   # pinned endpoints never move
        self.free = np.arange(edge, self.n_t - edge)
        # weight of each unordered pair i != j; the diagonal W(0, 0) terms never change
        offdiag = self.mask.copy()
        np.fill_diagonal(offdiag, 0.0)
        self.sym_w = offdiag + offdiag.T
        self.pos = np.array(init, dtype=float, copy=True)
        if self.pos.shape != (config.n_chains, self.n_t):
            raise ValueError("initial positions have the wrong shape")
        self.nodes = self.grid.nearest_index(self.pos)
        self.rng = make_rng(config.seed, 11)
        self.block_len = config.block_len
        # starts s with both anchors s - 1 and s + L on the grid
        self._block_starts = np.arange(1, self.n_t - self.block_len)
        self.accepted_single = 0
        self.proposed_single = 0
        self.accepted_block = 0
        self.proposed_block = 0

    def _emit(self, nodes: np.ndarray) -> np.ndarray:
        z = self.grid.x[nodes]
        if self.mode == "interp":
            z = z + (self.rng.random(nodes.shape) - 0.5) * self.grid.h
            z = np.clip(z, self.grid.lower, self.grid.upper)
        return z

    def _site_proposal_probs(self, i: int) -> np.ndarray:
        if i == 0:
            return self.psi[None, :] * self.k[self.nodes[:, 1]]
        left = self.k[self.nodes[:, i - 1]]
        if i == self.n_t - 1:
            return left * self.psi[None, :]
        return left * self.k[self.nodes[:, i + 1]]

    def _delta_h_single(self, i: int, z: np.ndarray) -> np.ndarray:
        lag = self.lags[i]
        d = (self.w.radial(np.abs(z[:, None] - self.pos), lag)
             - self.w.radial(np.abs(self.pos[:, i, None] - self.pos), lag))
        return -(d @ self.sym_w[i])

    def _block_part(self, pos: np.ndarray, s: int, length: int) -> np.ndarray:
        """Interaction sum over pairs with at least one index in the block.

        Block-block pairs appear twice in the (chains, length, n_t) slab,
        so they carry half their symmetric weight.
        """
        weights = self.sym_w[s:s + length].copy()
        weights[:, s:s + length] *= 0.5
        u = np.abs(pos[:, s:s + length, None] - pos[:, None, :])
        vals = self.w.radial(u, self.lags[s:s + length])
        return np.einsum("clj,lj->c", vals, weights)

    def _delta_h_block(self, s: int, length: int, znew: np.ndarray) -> np.ndarray:
        pos_new = self.pos.copy()
        pos_new[:, s:s + length] = znew
        return -(self._block_part(pos_new, s, length) - self._block_part(self.pos, s, length))

    def _site_move(self, i: int):
        n_c = self.pos.shape[0]
        probs = self._site_proposal_probs(i)
        nodes = _sample_categorical_rows(probs, self.rng.random(n_c))
        z = self._emit(nodes)
        dh = self._delta_h_single(i, z)
        accept = np.log(self.rng.random(n_c)) < dh
        self.pos[accept, i] = z[accept]
        self.nodes[accept, i] = nodes[accept]
        self.proposed_single += n_c
        self.accepted_single += int(accept.sum())

    def _block_move(self):
        if self._block_starts.size == 0:
            return
        n_c = self.pos.shape[0]
        length = self.block_len
        s = int(self._block_starts[self.rng.integers(self._block_starts.size)])
        b = self.nodes[:, s + length]
        nodes = np.empty((n_c, length), dtype=self.nodes.dtype)
        cur = self.nodes[:, s - 1]
        for k in range(length):
            back = self.spec.kernel.power(length - k)
            probs = self.k[cur] * back[b]
            cur = _sample_categorical_rows(probs, self.rng.random(n_c))
            nodes[:, k] = cur
        znew = self._emit(nodes)
        dh = self._delta_h_block(s, length, znew)
        accept = np.log(self.rng.random(n_c)) < dh
        self.pos[accept, s:s + length] = znew[accept]
        self.nodes[accept, s:s + length] = nodes[accept]
        self.proposed_block += n_c
        self.accepted_block += int(accept.sum())

    def sweep(self):
        for i in self.free:
            self._site_move(i)
        self._block_move()

    def acceptance_rates(self):
        single = self.accepted_single / max(self.proposed_single, 1)
        block = self.accepted_block / max(self.proposed_block, 1)
        return single, block

    def warn_if_stuck(self):
        proposed = self.proposed_single + self.proposed_block
        accepted = self.accepted_single + self.accepted_block
        if proposed > 0 and accepted / proposed < 0.01:
            warnings.warn(
                f"acceptance rate {accepted / proposed:.2%} over burn-in is below 1%; "
                f"consider reducing block_len from {self.block_len} to "
                f"{max(1, self.block_len // 2)}", RuntimeWarning)

    def reset_counters(self):
        self.accepted_single = self.proposed_single = 0
        self.accepted_block = self.proposed_block = 0


def _initial_positions(spec: GibbsSpec, config: ChainConfig) -> np.ndarray:
    """Exact reference draw per chain (bridge draw when pinned)."""
    ens = sample_paths(spec.gs, spec.kernel, spec.timegrid, config.n_chains,
                       seed=(config.seed, 12), mode=config.mode)
    pos = ens.positions.copy()
    if isinstance(spec.boundary, Pinned):
        for c in range(config.n_chains):
            br = sample_bridge(spec.gs, spec.kernel, spec.timegrid,
                               spec.boundary.left, spec.boundary.right,
                               seed=(config.seed, 13, c))
            pos[c] = br.positions
    return pos


def run_ensemble(spec: GibbsSpec, config: ChainConfig,
                 record_indices=None) -> EnsembleResult:
    """Run a batch of chains and record positions at the given time indices."""
    engine = _Engine(spec, config, _initial_positions(spec, config))
    if record_indices is None:
        record_indices = np.arange(spec.timegrid.n_times)
    record_indices = np.asarray(record_indices, dtype=int)
    for _ in range(config.burnin):
        engine.sweep()
    engine.warn_if_stuck()
    engine.reset_counters()
    n_records = config.sweeps // config.record_every
    out = np.empty((n_records, config.n_chains, record_indices.size))
    row = 0
    for sweep in range(config.sweeps):
        engine.sweep()
        if (sweep + 1) % config.record_every == 0 and row < n_records:
            out[row] = engine.pos[:, record_indices]
            row += 1
    single, block = engine.acceptance_rates()
    return EnsembleResult(spec.timegrid, record_indices, out[:row], single, block, config)


def empirical_node_marginals(result: EnsembleResult, grid: SpaceGrid) -> np.ndarray:
    """Occupancy frequencies per recorded time index (rows sum to 1)."""
    out = np.empty((result.record_indices.size, grid.points))
    for row, _ in enumerate(result.record_indices):
        nodes = grid.nearest_index(result.positions[:, :, row].reshape(-1))
        out[row] = np.bincount(nodes, minlength=grid.points) / nodes.size
    return out


def write_snapshots_jsonl(result: EnsembleResult, file) -> None:
    """One JSON object per recorded sweep and chain."""
    for row in range(result.positions.shape[0]):
        for c in range(result.positions.shape[1]):
            rec = {"record": row, "chain": c,
                   "time_indices": result.record_indices.tolist(),
                   "positions": [float(v) for v in result.positions[row, c]]}
            file.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# exact enumeration oracle


MAX_ORACLE_CONFIGS = 10 ** 7
MAX_ORACLE_NODES = 9
MAX_ORACLE_TIMES = 7
ORACLE_CHUNK = 2 ** 15   # rows per pass; keeps the per-chunk pair arrays cache-sized


def check_enumerable(m: int, sites: int, n_times: int | None = None) -> None:
    """The one size rule of exact enumeration; raises ValueError if broken.

    Every enumeration over `sites` columns of `m` space nodes holds at most
    MAX_ORACLE_CONFIGS configurations.  A full path table (`n_times` given)
    also needs at most MAX_ORACLE_NODES nodes and MAX_ORACLE_TIMES slices.
    """
    if n_times is not None and m > MAX_ORACLE_NODES:
        raise ValueError(f"oracle instances need at most {MAX_ORACLE_NODES} space nodes, got {m}")
    if n_times is not None and n_times > MAX_ORACLE_TIMES:
        raise ValueError(f"oracle instances need at most {MAX_ORACLE_TIMES} time slices, got {n_times}")
    if m ** sites > MAX_ORACLE_CONFIGS:
        raise ValueError(f"{m}**{sites} configurations exceed the oracle size cap "
                         f"{MAX_ORACLE_CONFIGS}")


@dataclass
class BruteForceTable:
    """Exact distribution of a fully enumerated instance.

    `log_z` is the log of the expected interaction weight under the
    normalized reference law; `ref_log_mass` is the log of the unnormalized
    reference mass (pinned: the 2N-step kernel entry between the pins).
    """

    spec: GibbsSpec
    configs: np.ndarray      # (n_cfg, n_times) node indices, int8
    probs: np.ndarray
    log_weights: np.ndarray
    log_z: float
    ref_log_mass: float

    def marginal(self, time_index: int) -> np.ndarray:
        return self.window_marginal([time_index]).reshape(-1)

    def window_marginal(self, time_indices) -> np.ndarray:
        ids = list(time_indices)
        check_enumerable(self.spec.grid.points, len(ids))
        return self._law(ids, slice(None))

    def conditional_window(self, window_indices, outside_config) -> np.ndarray:
        """Exact law of the window given the configuration elsewhere."""
        ids = list(window_indices)
        rest = np.setdiff1d(np.arange(self.configs.shape[1]), ids)
        keep = (self.configs[:, rest] == np.asarray(outside_config)[rest]).all(axis=1)
        total = self.probs[keep].sum()
        if total <= 0.0:
            raise ValueError("conditioning configuration has zero probability")
        return self._law(ids, keep) / total

    def _law(self, ids: list, keep) -> np.ndarray:
        """Probability mass of the `keep` rows per joint node value at `ids`."""
        m = self.spec.grid.points
        codes = np.ravel_multi_index(tuple(self.configs[keep][:, ids].T), (m,) * len(ids))
        flat = np.bincount(codes, weights=self.probs[keep], minlength=m ** len(ids))
        return flat.reshape((m,) * len(ids))


def enumerate_configs(m: int, base, sites) -> np.ndarray:
    """Copies of the node row `base` with every assignment to the columns
    `sites`, lexicographic in the order `sites` lists them; the entries of
    `base` at `sites` are ignored.  Node indices are int8 whenever they fit
    (m <= 128)."""
    sites = list(sites)
    check_enumerable(m, len(sites))
    base = np.asarray(base)
    held = np.delete(base, sites)
    if np.any((held < 0) | (held >= m)):
        raise ValueError(f"node indices must lie in [0, {m})")
    dtype = np.min_scalar_type(-m)
    configs = np.tile(base.astype(dtype), (m ** len(sites), 1))
    view = configs.reshape((m,) * len(sites) + (base.size,))   # one axis per site
    for site, nodes in zip(sites, np.indices((m,) * len(sites), dtype=dtype, sparse=True)):
        view[..., site] = nodes
    return configs


def enumerated_log_weights(configs: np.ndarray, log_step: np.ndarray, steps, ends,
                           w: PairPotential, x: np.ndarray, mask: np.ndarray,
                           lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference log-mass and log-weight of every enumerated configuration.

    Rows of `configs` are node indices in the column layout of `mask` and
    `lags`.  A row's reference log-mass sums log_step[a, b] over the column
    pairs (a, b) in `steps`, in that order, plus, unless `ends` is None,
    ends[0] at its first node and ends[1] at its last.  Its log-weight adds
    the pair action at positions x[row].  Both come from one pass over
    chunks of ORACLE_CHUNK rows.
    """
    log_ref, log_weights = np.zeros(configs.shape[0]), np.empty(configs.shape[0])
    for lo in range(0, configs.shape[0], ORACLE_CHUNK):
        rows = configs[lo:lo + ORACLE_CHUNK]
        ref = log_ref[lo:lo + ORACLE_CHUNK]   # a view, summed in place
        for a, b in steps:
            ref += log_step[rows[:, a], rows[:, b]]
        if ends is not None:
            ref += ends[0][rows[:, 0]] + ends[1][rows[:, -1]]
        # column-major positions are already pair_action's one-row-per-slice layout
        positions = x[np.asfortranarray(rows)]
        np.add(ref, pair_action(w, positions, mask, lags), out=log_weights[lo:lo + ORACLE_CHUNK])
    return log_ref, log_weights


def brute_force_measure(spec: GibbsSpec) -> BruteForceTable:
    """Enumerate every configuration of a small instance exactly."""
    grid, tg = spec.grid, spec.timegrid
    m, n_t = grid.points, tg.n_times
    with np.errstate(divide="ignore"):
        log_k = np.log(spec.kernel.matrix)
        log_psi = np.log(spec.gs.psi)
    base, free = np.zeros(n_t, dtype=int), range(n_t)
    ends = (np.log(grid.h) + log_psi, log_psi)
    if isinstance(spec.boundary, Pinned):
        base[[0, -1]] = grid.index_of(spec.boundary.left), grid.index_of(spec.boundary.right)
        free, ends = range(1, n_t - 1), None
    check_enumerable(m, len(free), n_t)
    configs = enumerate_configs(m, base, free)
    log_ref, log_weights = enumerated_log_weights(
        configs, log_k, [(k, k + 1) for k in range(n_t - 1)], ends,
        spec.w, grid.x, SquareRegion(tg.T).weights(tg), tg.lags())
    ref_log_mass = float(logsumexp(log_ref))
    norm = float(logsumexp(log_weights))
    probs = np.exp(log_weights - norm)
    table = BruteForceTable(spec, configs, probs, log_weights,
                            log_z=norm - ref_log_mass, ref_log_mass=ref_log_mass)
    if not np.isfinite(table.log_z):
        raise ValueError("degenerate instance: zero total weight")
    return table


# ---------------------------------------------------------------------------
# exact window conditionals


@dataclass
class WindowConditional:
    """Conditional law of a time window given the path outside it."""

    window_indices: np.ndarray
    probs: np.ndarray         # shaped (m,)*window
    bridge_probs: np.ndarray  # reference conditional, same shape
    frame_bound: float        # envelope bound on the window interaction


def _window_interior(tg: TimeGrid, s_half: float) -> np.ndarray:
    """Time indices a window conditional resamples: the interior of the
    closed window |t| <= s_half, which must lie strictly inside [-T, T]."""
    ids = tg.window_indices(s_half)
    if ids.size < 3:
        raise ValueError(f"window half-width {s_half} is not a positive grid multiple")
    if ids.size == tg.n_times:
        raise ValueError("window must be strictly inside the time interval")
    return ids[1:-1]


def window_conditional_exact(spec: GibbsSpec, s_half: float,
                             outside_config) -> WindowConditional:
    """Enumerated conditional of the window interior |t| < s_half given the rest.

    The values at t = -s_half and t = s_half condition the window like the
    rest of the exterior (`TimeGrid.window_indices`).  `outside_config`
    fixes node indices for every time slice; entries inside the window are
    ignored.  The interaction mask is the frame region of pairs with at
    least one time in [-s_half, s_half], which includes the cross terms
    between the window and the fixed exterior.
    """
    grid, tg = spec.grid, spec.timegrid
    ids = _window_interior(tg, s_half)
    composite = enumerate_configs(grid.points, outside_config, ids)
    with np.errstate(divide="ignore"):
        log_k = np.log(spec.kernel.matrix)
    frame = FrameRegion(s_half, tg.T)
    log_ref, log_weights = enumerated_log_weights(
        composite, log_k, [(k, k + 1) for k in range(ids[0] - 1, ids[-1] + 1)], None,
        spec.w, grid.x, frame.weights(tg), tg.lags())
    shape = (grid.points,) * ids.size
    probs = np.exp(log_weights - logsumexp(log_weights)).reshape(shape)
    bridge = np.exp(log_ref - logsumexp(log_ref)).reshape(shape)
    return WindowConditional(ids, probs, bridge, frame.envelope_bound(spec.w))


def single_move_distribution(spec: GibbsSpec, config_nodes, site: int) -> np.ndarray:
    """Exact one-site transition law of the grid-mode chain at `site`.

    Returns the distribution of the node at `site` after one proposal and
    accept/reject step from the given configuration (rejection mass folded
    into the current node).  Used to verify detailed balance exactly.
    """
    grid = spec.grid
    m = grid.points
    cfg = ChainConfig(sweeps=1, burnin=0, seed=0, n_chains=m, mode="grid")
    init = np.tile(grid.x[np.asarray(config_nodes, dtype=int)], (m, 1))
    engine = _Engine(spec, cfg, init)
    q = engine._site_proposal_probs(site)[0]
    q = q / q.sum()
    dh = engine._delta_h_single(site, grid.x[np.arange(m)])
    acc = np.minimum(1.0, np.exp(dh))
    cur = int(np.asarray(config_nodes)[site])
    out = q * acc
    out[cur] += 1.0 - out.sum()
    return out
