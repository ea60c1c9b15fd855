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
log-mass and pair action from one broadcast build (`enumerated_log_weights`).
Each term is an array only on the enumerated axes it spans, and the (m,)^k
sum takes 1 + k // 2 full-size passes.  `brute_force_measure` reads its reference
mass from a kernel power, so at 9^7 its peak is the table beside its int8 rows.
"""

from dataclasses import dataclass, field
import json
import warnings

import numpy as np

from .grids import SpaceGrid, TimeGrid
from .potentials import PairPotential
from .spectral import GroundState, HeatKernel
from .reference import SMALLEST, make_rng, sample_paths, sample_bridge
from .energy import FrameRegion, SquareRegion, pair_terms


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
        if self.record_every > self.sweeps:
            raise ValueError(f"record_every {self.record_every} exceeds sweeps {self.sweeps}; "
                             "nothing would be recorded")


@dataclass
class EnsembleResult:
    """Recorded states of a batch of chains, one row per recorded sweep.

    In grid mode `record` holds node indices, in the smallest signed integer
    type that holds the grid (int8 up to 128 nodes); in interp mode it holds
    positions.  `positions` and `nodes` read either record.
    """

    record_indices: np.ndarray
    record: np.ndarray  # (records, chains, len(record_indices))
    grid: SpaceGrid
    accept_single: float
    accept_block: float
    config: ChainConfig

    def _positions(self, record: np.ndarray) -> np.ndarray:
        """Positions of part of the record; a fresh gather in grid mode."""
        return self.grid.x[record] if self.config.mode == "grid" else record

    @property
    def positions(self) -> np.ndarray:
        return self._positions(self.record)

    @property
    def nodes(self) -> np.ndarray:
        """Recorded node indices; a fresh nearest-node pass in interp mode."""
        return self.record if self.config.mode == "grid" else self.grid.nearest_index(self.record)

    def chain_series(self, time_index: int) -> np.ndarray:
        """(chains, records) series of one coordinate, for autocorrelation."""
        where = np.flatnonzero(self.record_indices == time_index)
        if where.size != 1:
            raise ValueError(f"time index {time_index} was not recorded")
        return self._positions(self.record[:, :, where[0]]).T.copy()


DRAW_BLOCK = 32   # columns per block of the two-level proposal draw
_BLOCK_ONES = np.ones(DRAW_BLOCK)


def _pad_columns(a: np.ndarray) -> np.ndarray:
    """`a` zero-padded to a multiple of DRAW_BLOCK columns if its rows are
    wider than 2 * DRAW_BLOCK, so drawn in two levels."""
    pad = -a.shape[-1] % DRAW_BLOCK if a.shape[-1] > 2 * DRAW_BLOCK else 0
    return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, pad)])


def _sample_categorical_rows(probs: np.ndarray, u: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """One draw per row of an unnormalized probability matrix by the rule of
    `reference.sample_rows`: the first column whose cumulative mass reaches
    max(u * total, SMALLEST) (u < 1, so the last column with mass qualifies,
    and a zero-mass column never does).  Rows wider than 2 * DRAW_BLOCK come
    padded by `_pad_columns` and draw that law in two levels: a block of
    DRAW_BLOCK columns from the block sums, written to `sums[:, 1:]` (a
    reused buffer whose column 0 is zero), then a column in it.  Where
    rounding puts the target past the block's own cumulative, its last
    column with mass is drawn, so no zero-mass or padding column ever is.
    """
    n_rows, wide = len(probs), probs.shape[1] > 2 * DRAW_BLOCK
    if wide:
        blocks = probs.reshape(n_rows, -1, DRAW_BLOCK)
        np.matmul(blocks, _BLOCK_ONES, out=sums[:, 1:])
    cum = (sums if wide else probs).cumsum(axis=1)
    total = cum[:, -1]
    if not total.all():   # rows are non-negative, so this is a zero total
        raise ValueError("proposal distribution has zero mass; "
                         "anchors are too far apart for this time step")
    target = np.maximum(u * total, SMALLEST)   # > 0, so the column or block drawn has mass
    if not wide:
        return (cum >= target[:, None]).argmax(axis=1)
    block = (cum >= target[:, None]).argmax(axis=1) - 1   # the mass before it is cum[:, block]
    rows = np.arange(n_rows)
    inner = blocks[rows, block].cumsum(axis=1)
    rest = np.minimum(target - cum[rows, block], inner[:, -1])
    return block * DRAW_BLOCK + (inner >= rest[:, None]).argmax(axis=1)


class _Engine:
    """Batched Metropolis-within-Gibbs kernel over a set of chains.

    The interaction region is the full square, and every time index moves
    except pinned endpoints.  A sweep is one move of length 1 at every
    free index, then one move of `block_len` at a random start.  A block
    needs an anchor on both sides, so blocks never touch the endpoints.

    Each chain carries its node indices (`nodes`, the grid cell of every
    position) next to its positions, so proposals gather rows of K, psi
    and kernel powers, held padded for the draw, directly.  W is radial,
    so a move's interaction change is one `radial` call on the (2, chains,
    length, n_t) slabs of the moved indices against all indices, old state
    and new.  A sweep's site moves share one draw of uniforms.
    """

    def __init__(self, spec: GibbsSpec, config: ChainConfig, init: np.ndarray):
        self.spec = spec
        self.w = spec.w
        self.grid = spec.grid
        self.psi = _pad_columns(spec.gs.psi)
        self._rows = {1: _pad_columns(spec.kernel.matrix)}   # padded K^j by j
        self.mode = config.mode
        tg = spec.timegrid
        self.n_t = tg.n_times
        self.lags = tg.lags()
        edge = int(isinstance(spec.boundary, Pinned))   # pinned endpoints never move
        self.free = np.arange(edge, self.n_t - edge)
        # weight of each unordered pair i != j, both ways round; the diagonal terms never change
        i, j, weight, _, _ = pair_terms(self.w, SquareRegion(tg.T).weights(tg), self.lags)
        self.sym_w = np.zeros((self.n_t, self.n_t))
        self.sym_w[i, j] = self.sym_w[j, i] = weight
        self.pos = np.array(init, dtype=float, copy=True)
        if self.pos.shape != (config.n_chains, self.n_t):
            raise ValueError("initial positions have the wrong shape")
        self.nodes = self.grid.nearest_index(self.pos)
        self._row, self._right = np.empty((2, config.n_chains, self.psi.size))   # proposal rows
        self._sums = np.zeros((config.n_chains, self.psi.size // DRAW_BLOCK + 1))   # block sums
        self.rng = make_rng(config.seed, 11)
        self.block_len = config.block_len
        # starts s with both anchors s - 1 and s + L on the grid
        self._block_starts = np.arange(1, self.n_t - self.block_len)
        self.accepted_single = 0
        self.proposed_single = 0
        self.accepted_block = 0
        self.proposed_block = 0

    def _uniforms(self, n_moves: int, length: int):
        """One call for the uniforms of `n_moves` moves of `length`, split in
        the order a move reads them: the draws (n_moves, length, chains), the
        (chains, length) jitter as (u - 0.5) * h (None in grid mode), and
        the log acceptance uniforms (n_moves, chains)."""
        n_c, jittered, width = self.pos.shape[0], self.mode == "interp", length * self.pos.shape[0]
        u = self.rng.random((n_moves, (1 + jittered) * width + n_c))
        jitter = ((u[:, width:2 * width] - 0.5) * self.grid.h).reshape(n_moves, n_c, length) \
            if jittered else [None] * n_moves
        return u[:, :width].reshape(n_moves, length, n_c), jitter, np.log(u[:, -n_c:])

    def _emit(self, nodes: np.ndarray, jitter) -> np.ndarray:
        z = self.grid.x[nodes]
        if jitter is not None:
            z += jitter
            np.maximum(z, self.grid.lower, out=z)
            np.minimum(z, self.grid.upper, out=z)
        return z

    def _proposal_row(self, s: int, length: int, k: int, cur: np.ndarray) -> np.ndarray:
        """Unnormalized reference law of node s + k given node `cur` at
        s + k - 1 and the anchor at s + length, one row per chain; psi
        stands in for the missing neighbour at t = 0 and past the last slice."""
        end, j = s + length, length - k
        if j not in self._rows:
            self._rows[j] = _pad_columns(self.spec.kernel.power(j))
        right = self.psi if end == self.n_t else \
            self._rows[j].take(self.nodes[:, end], axis=0, out=self._right, mode="clip")
        if s + k == 0:
            return self.psi * right
        row = self._rows[1].take(cur, axis=0, out=self._row, mode="clip")   # nodes are in range
        row *= right
        return row

    def _delta_h(self, s: int, length: int, z: np.ndarray) -> np.ndarray:
        """ΔH = H_new − H_old of moving indices s, ..., s + length - 1 to z.

        H is minus the weighted W sum, so this is (W_old − W_new) times the
        symmetric weights.  Pairs inside the block appear twice in the
        (chains, length, n_t) slab, so they carry half their weight; for
        length 1 that entry is the zero diagonal, so the row serves as it is.
        """
        end, pos = s + length, self.pos
        weights = self.sym_w[s]
        if length > 1:
            weights = self.sym_w[s:end].copy()
            weights[:, s:end] *= 0.5
            weights = weights.ravel()
        both = np.array((pos, pos))   # old and new state, one radial call
        both[1, :, s:end] = z
        d = self.w.radial(np.abs(both[:, :, s:end, None] - both[:, :, None, :]), self.lags[s:end])
        d = d[0] - d[1]
        return d.reshape(len(d), -1) @ weights

    def move(self, s: int, length: int) -> int:
        """One Metropolis move of indices s, ..., s + length - 1 in every
        chain; returns the number of chains that accepted."""
        draws, jitter, log_u = self._uniforms(1, length)
        return self._apply(s, length, draws[0], jitter[0], log_u[0])

    def _apply(self, s: int, length: int, draws, jitter, log_u) -> int:
        """`move` with its uniforms given, as split by `_uniforms`."""
        n_c, end = self.pos.shape[0], s + length
        nodes = np.empty((n_c, length), dtype=self.nodes.dtype)
        cur = self.nodes[:, s - 1]   # unread when s == 0
        for k in range(length):
            cur = _sample_categorical_rows(self._proposal_row(s, length, k, cur),
                                           draws[k], self._sums)
            nodes[:, k] = cur
        z = self._emit(nodes, jitter)
        accept = (log_u < self._delta_h(s, length, z))[:, None]
        np.copyto(self.pos[:, s:end], z, where=accept)
        np.copyto(self.nodes[:, s:end], nodes, where=accept)
        return np.count_nonzero(accept)

    def sweep(self):
        n_c = self.pos.shape[0]
        for i, draws, jitter, log_u in zip(self.free, *self._uniforms(self.free.size, 1)):
            self.accepted_single += self._apply(i, 1, draws, jitter, log_u)
        self.proposed_single += n_c * self.free.size
        if self._block_starts.size:
            s = int(self._block_starts[self.rng.integers(self._block_starts.size)])
            self.accepted_block += self.move(s, self.block_len)
            self.proposed_block += n_c

    def acceptance_rates(self):
        single = self.accepted_single / max(self.proposed_single, 1)
        block = self.accepted_block / max(self.proposed_block, 1)
        return single, block

    def warn_if_stuck(self):
        proposed = self.proposed_single + self.proposed_block
        accepted = self.accepted_single + self.accepted_block
        if proposed > 0 and accepted / proposed < 0.01:
            advice = (f"; consider reducing block_len from {self.block_len} to "
                      f"{self.block_len // 2}" if self.block_len > 1 else "")
            warnings.warn(f"acceptance rate {accepted / proposed:.2%} over burn-in "
                          f"is below 1%{advice}", RuntimeWarning)

    def reset_counters(self):
        self.accepted_single = self.proposed_single = 0
        self.accepted_block = self.proposed_block = 0


def _initial_positions(spec: GibbsSpec, config: ChainConfig) -> np.ndarray:
    """Exact reference draw per chain (bridge draw when pinned)."""
    if isinstance(spec.boundary, Pinned):
        return sample_bridge(spec.kernel, spec.timegrid, spec.boundary.left, spec.boundary.right,
                             config.n_chains, seed=(config.seed, 13)).positions
    return sample_paths(spec.gs, spec.kernel, spec.timegrid, config.n_chains,
                        seed=(config.seed, 12), mode=config.mode).positions


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
    # grid mode records the carried nodes: in that mode pos is exactly x[nodes]
    state, dtype = ((engine.nodes, np.min_scalar_type(-spec.grid.points))
                    if config.mode == "grid" else (engine.pos, float))
    out = np.empty((config.sweeps // config.record_every, config.n_chains, record_indices.size),
                   dtype=dtype)
    row = 0
    for sweep in range(config.sweeps):
        engine.sweep()
        if (sweep + 1) % config.record_every == 0:
            out[row] = state[:, record_indices]
            row += 1
    single, block = engine.acceptance_rates()
    return EnsembleResult(record_indices, out, spec.grid, single, block, config)


def empirical_node_marginals(result: EnsembleResult, grid: SpaceGrid) -> np.ndarray:
    """Occupancy frequencies per recorded time index (rows sum to 1)."""
    nodes, shape = result.nodes, (result.record_indices.size, grid.points)
    codes = nodes + np.arange(shape[0]) * grid.points   # slice * M + node
    counts = np.bincount(codes.reshape(-1), minlength=shape[0] * grid.points)
    return counts.reshape(shape) / (nodes.shape[0] * nodes.shape[1])


def write_snapshots_jsonl(result: EnsembleResult, file) -> None:
    """One JSON object per recorded sweep and chain."""
    positions, time_indices = result.positions, result.record_indices.tolist()
    for row in range(positions.shape[0]):
        for c in range(positions.shape[1]):
            rec = {"record": row, "chain": c, "time_indices": time_indices,
                   "positions": [float(v) for v in positions[row, c]]}
            file.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# exact enumeration oracle


MAX_ORACLE_CONFIGS = 10 ** 7
MAX_ORACLE_NODES = 9
MAX_ORACLE_TIMES = 7


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


def log_sum_exp(a: np.ndarray, axis=None):
    """log(sum(exp(a))) over `axis` with one temporary; all -inf gives -inf."""
    peak = np.max(a, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    shifted = np.subtract(a, peak)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(shifted, out=shifted).sum(axis=axis)) + np.squeeze(peak, axis=axis)


def _column_nodes(m: int, base, sites) -> list:
    """Per column, its node in `base` or, for `sites`, an index array on its own axis."""
    check_enumerable(m, len(sites))
    nodes = list(np.asarray(base))
    if any(not 0 <= node < m for column, node in enumerate(nodes) if column not in sites):
        raise ValueError(f"node indices must lie in [0, {m})")
    for site, axis in zip(sites, np.indices((m,) * len(sites), sparse=True)):
        nodes[site] = axis
    return nodes


def enumerate_configs(m: int, base, sites) -> np.ndarray:
    """Copies of the node row `base` with every assignment to the columns `sites`,
    lexicographic in the order `sites` lists them (their `base` entries are
    ignored); node indices are int8 whenever they fit (m <= 128)."""
    nodes = _column_nodes(m, base, sites)
    configs = np.empty((m,) * len(sites) + (len(nodes),), dtype=np.min_scalar_type(-m))
    for column, node in enumerate(nodes):
        configs[..., column] = node
    return configs.reshape(-1, len(nodes))


def _enumerated_terms(base, sites, step: np.ndarray, steps, ends, w: PairPotential,
                      x: np.ndarray, mask: np.ndarray, lags: np.ndarray) -> tuple[list, list]:
    """The reference and pair terms of `enumerated_log_weights` as (axes, term)
    pairs: each term is taken at the column nodes, so it is an array only on
    the set `axes` of enumerated axes it spans (a scalar, one axis or m x m),
    and only the step entries gathered there are logged."""
    nodes = _column_nodes(x.size, base, sites)
    axis_of = {site: axis for axis, site in enumerate(sites)}

    def axes(*columns):
        return {axis_of[c] for c in columns if c in axis_of}

    with np.errstate(divide="ignore"):
        ref = [(axes(a, b), np.log(step[nodes[a], nodes[b]])) for a, b in steps]
    if ends is not None:
        ref += [(axes(0), ends[0][nodes[0]]), (axes(len(nodes) - 1), ends[1][nodes[-1]])]
    i, j, weight, lag, diagonal = pair_terms(w, mask, lags)
    pairs = [(axes(a, b), -wt * w.radial(np.abs(x[nodes[a]] - x[nodes[b]]), t))
             for a, b, wt, t in zip(i, j, weight, lag)]
    return ref, pairs + [(set(), -diagonal)]


def _summed(terms: list, m: int, k: int) -> np.ndarray:
    """The (m,) * k sum of (axes, term) pairs in 1 + k // 2 full-size passes:
    terms inside the first ceil(k / 2) axes (the head, scalars too), inside
    the rest (the tail) and, per tail axis, crossing to it from the head go
    into small partial sums first; the full array is head + tail + crossings."""
    half, parts = -(-k // 2), {}
    for spanned, term in terms:
        sides = {a < half for a in spanned}
        key = max(spanned) if len(sides) == 2 else "tail" if sides == {False} else "head"
        parts[key] = parts.get(key, 0.0) + term
    out = np.add(parts.pop("head", 0.0), parts.pop("tail", 0.0), out=np.empty((m,) * k))
    for crossing in parts.values():
        out += crossing
    return out


def enumerated_log_weights(base, sites, step: np.ndarray, steps, ends,
                           w: PairPotential, x: np.ndarray, mask: np.ndarray,
                           lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference log-mass and log-weight of every assignment to the columns
    `sites` of `base`: (m,) * len(sites) arrays, m = x.size, whose flat order
    is that of `enumerate_configs`.  The log-mass sums log(step[a, b]) over
    `steps`, plus the log vectors ends[0] and ends[1] at the first and last
    column unless `ends` is None; the log-weight adds the `energy.pair_terms`,
    each -weight * W(|x_a - x_b|, lag) at the column nodes, and the diagonal."""
    ref, pairs = _enumerated_terms(base, sites, step, steps, ends, w, x, mask, lags)
    return _summed(ref, x.size, len(sites)), _summed(ref + pairs, x.size, len(sites))


def brute_force_measure(spec: GibbsSpec) -> BruteForceTable:
    """Enumerate every configuration of a small instance exactly.  The reference
    mass is h psi.K^(n_t - 1) psi, or the K^(n_t - 1) entry between the pins."""
    grid, tg, psi = spec.grid, spec.timegrid, spec.gs.psi
    m, n_t = grid.points, tg.n_times
    edge = int(isinstance(spec.boundary, Pinned))   # pinned end columns are fixed
    base, free = np.zeros(n_t, dtype=int), range(edge, n_t - edge)
    if edge:
        base[[0, -1]] = grid.index_of(spec.boundary.left), grid.index_of(spec.boundary.right)
    check_enumerable(m, len(free), n_t)
    power = spec.kernel.power(n_t - 1)
    with np.errstate(divide="ignore"):
        log_psi = np.log(psi)
        ref_log_mass = float(np.log(power[base[0], base[-1]] if edge
                                    else grid.h * psi @ power @ psi))
    if not np.isfinite(ref_log_mass):   # else some configuration has a finite log-weight
        raise ValueError("degenerate instance: zero total weight")
    ends = None if edge else (np.log(grid.h) + log_psi, log_psi)
    ref, pairs = _enumerated_terms(base, free, spec.kernel.matrix,
                                   [(k, k + 1) for k in range(n_t - 1)], ends, spec.w, grid.x,
                                   SquareRegion(tg.T).weights(tg), tg.lags())
    probs = _summed(ref + pairs, m, len(free))   # the log-weights, normalized in place
    peak = probs.max()
    total = np.exp(np.subtract(probs, peak, out=probs), out=probs).sum()
    probs /= total
    log_z = float(peak + np.log(total)) - ref_log_mass
    return BruteForceTable(spec, enumerate_configs(m, base, free), probs.reshape(-1),
                           log_z=log_z, ref_log_mass=ref_log_mass)


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
    frame = FrameRegion(s_half, tg.T)
    log_ref, log_weights = enumerated_log_weights(
        outside_config, ids, spec.kernel.matrix,
        [(k, k + 1) for k in range(ids[0] - 1, ids[-1] + 1)], None,
        spec.w, grid.x, frame.weights(tg), tg.lags())
    probs = np.exp(log_weights - log_sum_exp(log_weights))
    bridge = np.exp(log_ref - log_sum_exp(log_ref))
    return WindowConditional(ids, probs, bridge, frame.envelope_bound(spec.w))


def move_distribution(spec: GibbsSpec, config_nodes, start: int, length: int) -> np.ndarray:
    """Exact law of the nodes at start, ..., start + length - 1 after one
    grid-mode move from the given configuration.

    Built from the engine's own proposal rows and ΔH; the rejection mass is
    folded into the current nodes.  Shaped (m,) * length, indexed by the
    new nodes in order.  Used to verify detailed balance exactly.
    """
    m, config_nodes = spec.grid.points, np.asarray(config_nodes, dtype=int)
    sites = list(range(start, start + length))
    cand = enumerate_configs(m, config_nodes, sites).astype(int)   # one chain per candidate
    cfg = ChainConfig(sweeps=1, burnin=0, seed=0, n_chains=cand.shape[0], mode="grid")
    engine = _Engine(spec, cfg, spec.grid.x[np.tile(config_nodes, (cand.shape[0], 1))])
    rows, cur = np.arange(cand.shape[0]), engine.nodes[:, start - 1]
    q = np.ones(cand.shape[0])
    for k, site in enumerate(sites):
        probs = engine._proposal_row(start, length, k, cur)
        q *= probs[rows, cand[:, site]] / probs.sum(axis=1)
        cur = cand[:, site]
    out = q * np.minimum(1.0, np.exp(engine._delta_h(start, length, spec.grid.x[cand[:, sites]])))
    current = np.ravel_multi_index(tuple(config_nodes[sites]), (m,) * length)
    out[current] += 1.0 - out.sum()
    return out.reshape((m,) * length)
