"""Sampler tests: exact oracles, detailed balance, and chain correctness."""

import functools
import io
import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from pathgibbs.grids import SpaceGrid, TimeGrid
from pathgibbs.potentials import harmonic, zero_pair, constant_pair, nelson_pair, step_pair
from pathgibbs.spectral import ground_state, heat_kernel, default_grid
from pathgibbs.reference import (stationary_weights, bridge_marginal, make_rng, sample_paths,
                                 transfer_matrix)
from pathgibbs.energy import FrameRegion, SquareRegion, StripRegion, doubled_layout, pair_action
from pathgibbs.stats import total_variation, ks_statistic_atomic
from pathgibbs.sampler import (
    Smeared, Pinned, GibbsSpec, ChainConfig,
    run_ensemble, empirical_node_marginals, brute_force_measure,
    window_conditional_exact, enumerated_log_weights, log_sum_exp,
    move_distribution, enumerate_configs, write_snapshots_jsonl, _Engine,
    _initial_positions,
)
from pathgibbs import sampler


@functools.lru_cache(maxsize=None)
def small_model(points=5, dt=0.5):
    grid = SpaceGrid(-2.0, 2.0, points)
    gs = ground_state(harmonic(), grid)
    return gs, heat_kernel(gs, dt)


@functools.lru_cache(maxsize=None)
def wide_model(dt=0.5):
    grid = default_grid()
    gs = ground_state(harmonic(), grid)
    return gs, heat_kernel(gs, dt)


def spec_small(w, T=1.0, dt=0.5, boundary=None, points=5):
    gs, kernel = small_model(points, dt)
    return GibbsSpec(gs, kernel, w, TimeGrid(T, dt),
                     boundary if boundary is not None else Smeared())


def spec_wide(w, T=2.0, dt=0.5, boundary=None):
    gs, kernel = wide_model(dt)
    return GibbsSpec(gs, kernel, w, TimeGrid(T, dt),
                     boundary if boundary is not None else Smeared())


# ---------------------------------------------------------------------------
# brute-force oracle


def test_brute_force_zero_w_is_product_chain_law():
    spec = spec_small(zero_pair())
    table = brute_force_measure(spec)
    pi = stationary_weights(spec.gs)
    for t in range(spec.timegrid.n_times):
        assert np.max(np.abs(table.marginal(t) - pi)) < 1e-13
    assert abs(table.probs.sum() - 1.0) < 1e-12


def test_brute_force_pinned_midpoint_is_bridge_law():
    gs, kernel = small_model()
    spec = GibbsSpec(gs, kernel, zero_pair(), TimeGrid(0.5, 0.5),
                     Pinned(gs.grid.x[1], gs.grid.x[3]))
    table = brute_force_measure(spec)
    exact = bridge_marginal(kernel, 1, 3, 1, 2)
    assert np.max(np.abs(table.marginal(1) - exact)) < 1e-13


def test_brute_force_constant_w_scales_partition_function():
    base = brute_force_measure(spec_small(zero_pair()))
    shifted = brute_force_measure(spec_small(constant_pair(0.3)))
    area = (2.0 * 1.0) ** 2
    assert abs(base.log_z) < 1e-12
    assert abs(shifted.log_z - (-0.3 * area)) < 1e-12
    # the interaction shift leaves the configuration law untouched
    assert np.max(np.abs(shifted.probs - base.probs)) < 1e-13


def test_reference_mass_factorizes_over_midpoint():
    gs, kernel = small_model()
    y, z = gs.grid.x[1], gs.grid.x[3]
    full = brute_force_measure(GibbsSpec(gs, kernel, zero_pair(),
                                         TimeGrid(1.0, 0.5), Pinned(y, z)))
    parts = []
    for mid in gs.grid.x:
        left = brute_force_measure(GibbsSpec(gs, kernel, zero_pair(),
                                             TimeGrid(0.5, 0.5), Pinned(y, mid)))
        right = brute_force_measure(GibbsSpec(gs, kernel, zero_pair(),
                                              TimeGrid(0.5, 0.5), Pinned(mid, z)))
        parts.append(left.ref_log_mass + right.ref_log_mass)
    combined = np.logaddexp.reduce(parts)
    assert abs(combined - full.ref_log_mass) < 1e-12


def test_brute_force_size_caps():
    grid = SpaceGrid(-2.0, 2.0, 11)
    gs = ground_state(harmonic(), grid)
    kernel = heat_kernel(gs, 0.5)
    with pytest.raises(ValueError, match="space nodes"):
        brute_force_measure(GibbsSpec(gs, kernel, zero_pair(), TimeGrid(0.5, 0.5)))
    with pytest.raises(ValueError, match="time slices"):
        brute_force_measure(spec_small(zero_pair(), T=2.0))


def test_oracle_pass_across_chunk_boundary():
    # 9 nodes and 5 slices give 59 049 configurations, each recomputed on its own
    spec = spec_small(nelson_pair(0.5), T=1.0, points=9)
    table = brute_force_measure(spec)
    assert table.configs.shape[0] == 9 ** 5
    c = table.configs.astype(np.int64)
    log_k, log_psi = np.log(spec.kernel.matrix), np.log(spec.gs.psi)
    log_ref = np.log(spec.grid.h) + log_psi[c[:, 0]] + log_psi[c[:, -1]]
    for k in range(4):
        log_ref += log_k[c[:, k], c[:, k + 1]]
    tg = spec.timegrid
    action = pair_action(spec.w, spec.grid.x[c], SquareRegion(tg.T).weights(tg), tg.lags())
    log_weights = np.log(table.probs) + table.log_z + table.ref_log_mass
    assert np.max(np.abs(log_weights - (log_ref + action))) < 1e-12
    assert abs(table.ref_log_mass - logsumexp(log_ref)) < 1e-12


def enumeration_case(case):
    """Arguments of `enumerated_log_weights` for one caller's layout."""
    w = nelson_pair(0.5)
    if case == "shuffled-asymmetric":
        # the doubled moments' two legs, sites listed out of column order, so
        # several steps run from a later axis to an earlier one
        gs, kernel = small_model()
        mask, lags = doubled_layout(2, 0.5)
        ends = (np.log(stationary_weights(gs)), np.log(gs.psi))
        steps = [(0, 1), (1, 2), (3, 4), (4, 5)]
        return (np.zeros(6, dtype=int), [4, 1, 5, 0, 3, 2], transfer_matrix(gs, kernel), steps,
                ends, w, gs.grid.x, mask, lags)
    if case == "odd-interleaved":
        # k = 5 sites out of column order with fixed columns between them:
        # the head (sites 6, 1, 4), the tail (0, 3) and both crossing groups
        # get terms, the head scalars, one-axis and two-axis ones
        spec = spec_small(w, T=2.0)
        tg = spec.timegrid
        with np.errstate(divide="ignore"):
            log_psi = np.log(spec.gs.psi)
        return (outside_config(spec), [6, 1, 4, 0, 3], spec.kernel.matrix,
                [(k, k + 1) for k in range(8)], (np.log(spec.grid.h) + log_psi, log_psi),
                w, spec.grid.x, SquareRegion(2.0).weights(tg), tg.lags())
    spec = spec_small(w, T=1.5)
    if case == "pinned":
        # brute_force_measure with Pinned ends: both end columns fixed
        base = np.zeros(7, dtype=int)
        base[[0, -1]] = 1, 3
        sites, steps, region = range(1, 6), [(k, k + 1) for k in range(6)], SquareRegion(1.5)
    else:
        # window_conditional_exact at s_half 1.0: fixed exterior, free interior
        base, sites = outside_config(spec), [2, 3, 4]
        steps, region = [(k, k + 1) for k in range(1, 5)], FrameRegion(1.0, 1.5)
    tg = spec.timegrid
    return (base, sites, spec.kernel.matrix, steps, None, w, spec.grid.x,
            region.weights(tg), tg.lags())


@pytest.mark.parametrize("case", ["shuffled-asymmetric", "pinned", "window",
                                  "odd-interleaved"])
def test_broadcast_build_matches_rows_built_one_at_a_time(case):
    base, sites, step, steps, ends, w, x, mask, lags = enumeration_case(case)
    log_ref, log_weights = enumerated_log_weights(base, sites, step, steps, ends,
                                                  w, x, mask, lags)
    rows = enumerate_configs(x.size, base, sites).astype(np.int64)
    assert log_ref.shape == log_weights.shape == (x.size,) * len(sites)
    expected = np.zeros(rows.shape[0])
    with np.errstate(divide="ignore"):
        for a, b in steps:
            expected += np.log(step[rows[:, a], rows[:, b]])
    if ends is not None:
        expected += ends[0][rows[:, 0]] + ends[1][rows[:, -1]]
    assert np.max(np.abs(log_ref.reshape(-1) - expected)) < 1e-12
    expected += pair_action(w, x[rows], mask, lags)
    assert np.max(np.abs(log_weights.reshape(-1) - expected)) < 1e-12


def test_log_sum_exp_matches_scipy():
    rng = make_rng(5)
    a = rng.normal(40.0, 30.0, size=(6, 50))
    a[1, ::3] = -np.inf
    a[2, 1:] = -np.inf
    for axis in (None, 1):
        want = logsumexp(a, axis=axis)
        assert np.all(np.abs(log_sum_exp(a, axis=axis) - want) <= 1e-14 * np.abs(want))
    a[4] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = log_sum_exp(a, axis=1)
        whole = log_sum_exp(a[4])
    assert rows[4] == whole == -np.inf
    assert np.all(np.isfinite(np.delete(rows, 4)))


def test_size_cap_enumeration_holds_the_table_and_its_rows():
    # 9 nodes and 7 slices: 9^7 configurations, the size cap.  The log-weight
    # is summed from small partial sums and normalized in place into the
    # probabilities, and the reference mass comes from a kernel power, so
    # the peak is those float64 probabilities beside the int8 rows.
    spec = spec_small(nelson_pair(0.5), T=1.5, points=9)
    tracemalloc.start()
    try:
        table = brute_force_measure(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.configs.shape == (9 ** 7, 7)
    assert peak <= (8 + 7) * 9 ** 7 + 2 ** 20


def test_enumerated_log_weights_rejects_fixed_nodes_off_the_grid():
    base, sites, *rest = enumeration_case("window")
    for node in (-1, 5):
        bad = np.array(base)
        bad[0] = node
        with pytest.raises(ValueError, match=r"node indices must lie in \[0, 5\)"):
            enumerated_log_weights(bad, sites, *rest)


def test_one_site_window_at_paper_scale_is_small_fast_and_exact():
    # M = 801 and T = 8: the pair terms of the one enumerated column are
    # (801,) axes and the rest scalars, so no m x m table is built or logged
    spec = spec_wide(nelson_pair(1.0), T=8.0)
    tg, grid = spec.timegrid, spec.grid
    path = sample_paths(spec.gs, spec.kernel, tg, 1, seed=(3,), mode="grid").positions[0]
    out = grid.nearest_index(path)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        wc = window_conditional_exact(spec, 0.5, out)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seconds < 1.0 and peak < 2 ** 20
    (site,) = wc.window_indices
    paths = np.tile(out, (grid.points, 1))
    paths[:, site] = np.arange(grid.points)
    with np.errstate(divide="ignore"):
        log_k = np.log(spec.kernel.matrix)
    log_bridge = log_k[out[site - 1]] + log_k[:, out[site + 1]]
    log_weight = log_bridge + pair_action(spec.w, grid.x[paths],
                                          FrameRegion(0.5, 8.0).weights(tg), tg.lags())
    for got, logs in ((wc.probs, log_weight), (wc.bridge_probs, log_bridge)):
        want = np.exp(logs - logsumexp(logs))
        big = want > 1e-12 * want.max()
        assert np.max(np.abs(got[big] / want[big] - 1.0)) < 1e-12


def test_spec_rejects_kernel_on_another_box():
    gs, _ = small_model()
    other = ground_state(harmonic(), SpaceGrid(-3.0, 3.0, 5))
    with pytest.raises(ValueError, match="different grids"):
        GibbsSpec(gs, heat_kernel(other, 0.5), zero_pair(), TimeGrid(1.0, 0.5))


# ---------------------------------------------------------------------------
# move-level exactness


# every catalog kind; W(0, t) = -0.7 / (t^2 + 1) is nonzero and lag-dependent,
# so the diagonal term of the quadrature counts
CATALOG_PAIRS = [nelson_pair(0.7), step_pair(0.9), constant_pair(0.4), zero_pair()]


@pytest.mark.parametrize("w", CATALOG_PAIRS)
def test_quadrature_matches_energy_module(w):
    # pair_action against an ordered-pair reference through `evaluate` on every
    # layout the package integrates over; the strip's mask is asymmetric, and
    # its lags shifted by 1 have a nonzero diagonal, where W(0, 0) * trace(mask)
    # would be wrong
    tg = TimeGrid(2.0, 0.25)
    rng = make_rng(5)
    paths = rng.normal(size=(3, tg.n_times))
    regions = [SquareRegion(2.0), FrameRegion(1.0, 2.0), StripRegion(1.0, 2.0)]
    layouts = [(paths, r.weights(tg), tg.lags()) for r in regions]
    layouts.append((paths, StripRegion(1.0, 2.0).weights(tg), tg.lags() + 1.0))
    mask, lags = doubled_layout(tg.n, tg.dt)
    layouts.append((rng.normal(size=(3, 2 * tg.n + 2)), mask, lags))
    for x, mask, lags in layouts:
        vals = w.evaluate(x[:, :, None], x[:, None, :], lags)
        reference = -np.einsum("ij,cij->c", mask, vals)
        assert np.max(np.abs(pair_action(w, x, mask, lags) - reference)) < 1e-12


@pytest.mark.parametrize("w", CATALOG_PAIRS)
def test_incremental_site_update_matches_full_recompute(w):
    # the one move at length 1: both ends and an interior index
    spec = spec_wide(w, T=2.0)
    cfg = ChainConfig(sweeps=1, burnin=0, seed=3, n_chains=16, mode="interp")
    rng = make_rng(17)
    init = rng.normal(scale=1.2, size=(16, spec.timegrid.n_times))
    engine = _Engine(spec, cfg, init)
    mask = SquareRegion(2.0).weights(spec.timegrid)   # the reference, not the engine's weights
    for i in [0, 3, spec.timegrid.n_times - 1]:
        z = rng.normal(scale=1.2, size=(16, 1))
        new = engine.pos.copy()
        new[:, i:i + 1] = z
        full = (pair_action(w, new, mask, engine.lags)
                - pair_action(w, engine.pos, mask, engine.lags))
        assert np.max(np.abs(engine._delta_h(i, 1, z) - full)) < 1e-10


@pytest.mark.parametrize("w", [nelson_pair(0.6)] + CATALOG_PAIRS[1:])
def test_incremental_block_update_matches_full_recompute(w):
    # the one move at length 4, and at length 1 inside the same engine
    spec = spec_wide(w, T=2.0)
    cfg = ChainConfig(sweeps=1, burnin=0, seed=4, n_chains=12, mode="interp")
    rng = make_rng(23)
    init = rng.normal(scale=1.1, size=(12, spec.timegrid.n_times))
    engine = _Engine(spec, cfg, init)
    mask = SquareRegion(2.0).weights(spec.timegrid)   # the reference, not the engine's weights
    for s, length in [(3, 4), (3, 1)]:
        z = rng.normal(scale=1.1, size=(12, length))
        new = engine.pos.copy()
        new[:, s:s + length] = z
        full = (pair_action(w, new, mask, engine.lags)
                - pair_action(w, engine.pos, mask, engine.lags))
        assert np.max(np.abs(engine._delta_h(s, length, z) - full)) < 1e-10


def test_moves_evaluate_w_at_most_twice():
    # one radial call, on the stacked old and new states, per site or block move
    w = nelson_pair(0.5)
    calls = []
    radial = w.radial

    def counted(u, t):
        calls.append(t)
        return radial(u, t)
    w.radial = counted
    spec = spec_wide(w, T=2.0)
    cfg = ChainConfig(sweeps=1, burnin=0, block_len=3, seed=6, n_chains=8, mode="interp")
    engine = _Engine(spec, cfg, _initial_positions(spec, cfg))
    for s in range(3):
        for i in engine.free:
            calls.clear()
            engine.move(i, 1)
            assert len(calls) == 1
        calls.clear()
        engine.move(1 + s, 3)
        assert len(calls) == 1


def test_single_move_distribution_is_a_distribution():
    spec = spec_small(nelson_pair(0.8))
    dist = move_distribution(spec, [0, 2, 4, 1, 3], 2, 1)
    assert abs(dist.sum() - 1.0) < 1e-12
    assert np.all(dist >= 0.0)
    block = move_distribution(spec, [0, 2, 4, 1, 3], 1, 3)
    assert block.shape == (5, 5, 5)
    assert abs(block.sum() - 1.0) < 1e-12
    assert np.all(block >= 0.0)


def detailed_balance_flux(spec, moves):
    """Stationary flux table[a] * P(a -> b) of the move mixture that picks
    one (start, length) of `moves` uniformly."""
    table = brute_force_measure(spec)
    m, n_cfg = spec.grid.points, table.configs.shape[0]
    kernel_full = np.zeros((n_cfg, n_cfg))
    codes = {tuple(c): k for k, c in enumerate(table.configs)}
    for a in range(n_cfg):
        cfg = table.configs[a].astype(int)
        for start, length in moves:
            dist = move_distribution(spec, cfg, start, length)
            for values in np.ndindex(dist.shape):
                target = cfg.copy()
                target[start:start + length] = values
                kernel_full[a, codes[tuple(target)]] += dist[values] / len(moves)
    flux = table.probs[:, None] * kernel_full
    return np.max(np.abs(flux - flux.T))


def test_single_moves_satisfy_detailed_balance_exactly():
    gs, kernel = small_model(points=3)
    spec = GibbsSpec(gs, kernel, nelson_pair(0.8), TimeGrid(0.5, 0.5))
    assert detailed_balance_flux(spec, [(site, 1) for site in range(3)]) < 1e-13


@pytest.mark.parametrize("case", ["smeared", "pinned"])
def test_block_moves_satisfy_detailed_balance_exactly(case):
    # blocks of 2, uniform over the starts 1 and 2 with both anchors inside
    gs, kernel = small_model(points=3)
    boundary = Pinned(gs.grid.x[0], gs.grid.x[2]) if case == "pinned" else Smeared()
    spec = GibbsSpec(gs, kernel, nelson_pair(0.8), TimeGrid(1.0, 0.5), boundary)
    assert detailed_balance_flux(spec, [(1, 2), (2, 2)]) < 1e-13


# ---------------------------------------------------------------------------
# the proposal draw


def draw(probs, u):
    """The engine's draw, on rows zero-padded as the engine holds them."""
    padded = sampler._pad_columns(probs)
    sums = np.zeros((len(probs), padded.shape[1] // sampler.DRAW_BLOCK + 1))
    return sampler._sample_categorical_rows(padded, u, sums)


def first_crossing(probs, u):
    """Reference draw: one cumsum over the whole row, first column reaching u * total."""
    cdf = np.cumsum(probs, axis=1)
    return np.argmax(cdf >= (u * cdf[:, -1])[:, None], axis=1)


def awkward_rows(m, rng):
    """Bump rows floored like kernel products, plus rows whose mass sits only
    in the ragged tail (or the last block), in every other block, in one
    column, in the last column alone, or in scattered columns between zeros."""
    block = sampler.DRAW_BLOCK
    x = np.arange(m)
    centre = rng.uniform(0, m, (24, 1))
    width = rng.uniform(0.5, m / 3, (24, 1))
    rows = np.exp(-0.5 * ((x - centre) / width) ** 2)
    rows[rows < 1e-150] = 0.0
    tail = np.zeros((4, m))
    tail[:, m - (m % block or block):] = rng.random((4, m % block or block))
    gaps = rng.random((4, m))
    gap = min(block, m // 2)   # narrow rows keep mass between their gaps
    for b in range(0, m, 2 * gap):
        gaps[:, b:b + gap] = 0.0
    single = np.zeros((4, m))
    single[np.arange(4), rng.integers(0, m, 4)] = rng.random(4) + 1e-300
    scattered = rng.random((4, m)) * (rng.random((4, m)) < 0.05)
    scattered[:, rng.integers(0, m)] = 1.0   # at least one column with mass
    last = np.zeros((1, m))
    last[0, m - 1] = rng.random() + 1e-300   # right before the zero padding
    return np.vstack([rows, tail, gaps, single, last, scattered])


@pytest.mark.parametrize("m", [65, 96, 397, 801])
def test_two_level_draw_matches_single_cumsum(m):
    rng = np.random.default_rng(m)
    draws = 0
    while draws < 10_000:
        probs = awkward_rows(m, rng)
        u = rng.random(probs.shape[0])
        got = draw(probs, u)
        assert np.array_equal(got, first_crossing(probs, u))
        draws += probs.shape[0]


@pytest.mark.parametrize("m", [5, 64, 65, 96, 397, 801])
def test_two_level_draw_never_returns_a_zero_mass_column(m):
    # nor a padding column (got < m); widths 5 and 64 draw in one level.
    # Column 0 of the last-column row has no mass, so u = 0 must skip it.
    assert draw(np.array([[0.0, 0.3, 0.7, 0.0, 0.0]]), np.zeros(1))[0] == 1
    rng = np.random.default_rng(m + 1)
    rows = np.arange(41)
    for _ in range(50):
        probs = awkward_rows(m, rng)
        assert probs[36, 0] == 0.0
        for u in (np.zeros(41), np.full(41, np.nextafter(1.0, 0.0)), rng.random(41)):
            got = draw(probs, u)
            assert np.all((got >= 0) & (got < m))
            assert np.all(probs[rows, got] > 0.0)
            assert got[36] == m - 1   # the row whose only mass is its last column


@pytest.mark.parametrize("m", [5, 801])
def test_zero_mass_row_raises(m):
    probs = np.ones((3, m))
    probs[1] = 0.0
    with pytest.raises(ValueError, match="proposal distribution has zero mass"):
        draw(probs, np.full(3, 0.5))


# ---------------------------------------------------------------------------
# chains against oracles


def test_zero_w_chain_accepts_everything_and_matches_reference():
    spec = spec_wide(zero_pair(), T=2.0)
    cfg = ChainConfig(sweeps=1600, burnin=100, block_len=5, seed=9,
                      n_chains=64, mode="grid")
    result = run_ensemble(spec, cfg, record_indices=[spec.timegrid.n])
    assert result.accept_single == 1.0
    assert result.accept_block == 1.0
    samples = result.positions[:, :, 0].reshape(-1)
    pi = stationary_weights(spec.gs)
    assert ks_statistic_atomic(samples, spec.grid.x, pi) < 0.01


def test_oracle_instance_marginals_within_tv():
    spec = spec_small(nelson_pair(0.5), T=1.0)
    table = brute_force_measure(spec)
    cfg = ChainConfig(sweeps=2500, burnin=200, block_len=3, seed=11,
                      n_chains=40, mode="grid")
    result = run_ensemble(spec, cfg)
    emp = empirical_node_marginals(result, spec.grid)
    for t in range(spec.timegrid.n_times):
        assert total_variation(emp[t], table.marginal(t)) < 0.05


def test_pinned_oracle_instance_within_tv():
    gs, kernel = small_model()
    spec = GibbsSpec(gs, kernel, nelson_pair(0.5), TimeGrid(1.0, 0.5),
                     Pinned(gs.grid.x[1], gs.grid.x[3]))
    table = brute_force_measure(spec)
    cfg = ChainConfig(sweeps=2500, burnin=200, block_len=3, seed=12,
                      n_chains=40, mode="grid")
    result = run_ensemble(spec, cfg, record_indices=[1, 2, 3])
    emp = empirical_node_marginals(result, spec.grid)
    for row, t in enumerate([1, 2, 3]):
        assert total_variation(emp[row], table.marginal(t)) < 0.05


def test_same_seed_reproduces_chain_exactly():
    spec = spec_small(nelson_pair(0.5))
    cfg = ChainConfig(sweeps=50, burnin=10, block_len=3, seed=21, n_chains=4)
    a = run_ensemble(spec, cfg)
    b = run_ensemble(spec, cfg)
    assert np.array_equal(a.positions, b.positions)
    other = run_ensemble(spec, ChainConfig(sweeps=50, burnin=10, block_len=3,
                                           seed=22, n_chains=4))
    assert not np.array_equal(a.positions, other.positions)


def test_record_every_keeps_every_kth_sweep():
    spec = spec_small(nelson_pair(0.5))
    every = run_ensemble(spec, ChainConfig(sweeps=30, burnin=10, block_len=3, seed=21,
                                           n_chains=4))
    third = run_ensemble(spec, ChainConfig(sweeps=30, burnin=10, block_len=3, seed=21,
                                           n_chains=4, record_every=3))
    assert np.array_equal(third.positions, every.positions[2::3])
    assert (third.accept_single, third.accept_block) == (every.accept_single,
                                                         every.accept_block)


def test_record_every_above_sweeps_raises():
    with pytest.raises(ValueError, match="record_every"):
        ChainConfig(sweeps=4, record_every=5)
    assert ChainConfig(sweeps=4, record_every=4).record_every == 4


def test_pinned_zero_w_marginals_match_exact_bridge():
    gs, kernel = wide_model()
    iy = gs.grid.index_of(0.0)
    spec = GibbsSpec(gs, kernel, zero_pair(), TimeGrid(2.0, 0.5),
                     Pinned(0.0, 0.0))
    cfg = ChainConfig(sweeps=2000, burnin=100, block_len=5, seed=31,
                      n_chains=64, mode="grid")
    n = spec.timegrid.n
    result = run_ensemble(spec, cfg, record_indices=[n - 1, n + 1])
    steps = spec.timegrid.n_times - 1
    for col, k in enumerate((n - 1, n + 1)):
        exact = bridge_marginal(kernel, iy, iy, k, steps)
        samples = result.positions[:, :, col].reshape(-1)
        assert ks_statistic_atomic(samples, gs.grid.x, exact) < 0.01
    # the exact pinned marginals are symmetric around t=0
    left = bridge_marginal(kernel, iy, iy, n - 1, steps)
    right = bridge_marginal(kernel, iy, iy, n + 1, steps)
    assert np.max(np.abs(left - right)) < 1e-12


def test_pinned_starts_build_the_pin_columns_once(monkeypatch):
    spec = spec_wide(zero_pair(), T=8.0, boundary=Pinned(-1.0, 1.0))
    calls = []
    build = type(spec.kernel).pin_columns
    monkeypatch.setattr(type(spec.kernel), "pin_columns",
                        lambda self, *args: calls.append(args) or build(self, *args))
    cfg = ChainConfig(sweeps=1, burnin=0, seed=4, n_chains=32, mode="grid")
    start = _initial_positions(spec, cfg)
    assert len(calls) == 1
    assert start.shape == (32, spec.timegrid.n_times)
    assert np.all(start[:, 0] == -1.0) and np.all(start[:, -1] == 1.0)


def test_pinned_zero_w_means_interpolate():
    gs, kernel = wide_model()
    ia, ib = gs.grid.index_of(-1.0), gs.grid.index_of(1.0)
    spec = GibbsSpec(gs, kernel, zero_pair(), TimeGrid(2.0, 0.5),
                     Pinned(-1.0, 1.0))
    steps = spec.timegrid.n_times - 1
    exact_means = np.array([-1.0] + [gs.grid.x @ bridge_marginal(kernel, ia, ib, k, steps)
                                     for k in range(1, steps)] + [1.0])
    assert np.all(np.diff(exact_means) > 0.0)
    cfg = ChainConfig(sweeps=1200, burnin=100, block_len=5, seed=33,
                      n_chains=40, mode="grid")
    result = run_ensemble(spec, cfg)
    mc_means = result.positions.reshape(-1, spec.timegrid.n_times).mean(axis=0)
    assert np.max(np.abs(mc_means - exact_means)) < 0.05


def test_low_acceptance_emits_block_length_warning():
    # a coupling this stiff rejects even within-cell jitter once the chain
    # has collapsed onto the interaction minimum
    spec = spec_small(nelson_pair(1e8))
    cfg = ChainConfig(sweeps=5, burnin=400, block_len=3, seed=41, n_chains=8,
                      mode="interp")
    with pytest.warns(RuntimeWarning, match="block_len"):
        run_ensemble(spec, cfg)


@pytest.mark.parametrize("block_len, advice", [(4, "from 4 to 2"), (1, None)])
def test_stuck_warning_advises_halving_only_a_longer_block(block_len, advice):
    spec = spec_small(zero_pair())
    cfg = ChainConfig(sweeps=1, burnin=0, block_len=block_len, seed=2, n_chains=2, mode="grid")
    engine = _Engine(spec, cfg, _initial_positions(spec, cfg))
    engine.proposed_single, engine.accepted_single = 1000, 9
    with pytest.warns(RuntimeWarning, match="below 1%") as caught:
        engine.warn_if_stuck()
    message = str(caught[0].message)
    if advice is None:
        assert "block_len" not in message
    else:
        assert advice in message


@pytest.mark.parametrize("mode", ["interp", "grid"])
@pytest.mark.parametrize("case", ["smeared", "pinned"])
def test_carried_nodes_match_positions(monkeypatch, mode, case):
    engines = []

    class Recording(_Engine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)
    monkeypatch.setattr(sampler, "_Engine", Recording)
    cfg = ChainConfig(sweeps=40, burnin=10, block_len=3, seed=61, n_chains=16, mode=mode)
    boundary = Pinned(-0.5, 0.5) if case == "pinned" else Smeared()
    spec = spec_wide(nelson_pair(0.5), T=2.0, boundary=boundary)
    run_ensemble(spec, cfg)
    engine, = engines
    assert engine.accepted_single > 0
    assert np.array_equal(engine.nodes, spec.grid.nearest_index(engine.pos))


class PerMoveEngine(_Engine):
    """Reference engine that draws each move's uniforms in separate calls:
    rng.random(C) per index's draw, rng.random((C, L)) for the jitter and
    rng.random(C) for acceptance."""

    def move(self, s, length):
        n_c, end = self.pos.shape[0], s + length
        nodes = np.empty((n_c, length), dtype=self.nodes.dtype)
        cur = self.nodes[:, s - 1]
        for k in range(length):
            cur = sampler._sample_categorical_rows(self._proposal_row(s, length, k, cur),
                                                   self.rng.random(n_c), self._sums)
            nodes[:, k] = cur
        z = self.grid.x[nodes]
        if self.mode == "interp":
            z = np.clip(z + (self.rng.random(nodes.shape) - 0.5) * self.grid.h,
                        self.grid.lower, self.grid.upper)
        accept = (np.log(self.rng.random(n_c)) < self._delta_h(s, length, z))[:, None]
        np.copyto(self.pos[:, s:end], z, where=accept)
        np.copyto(self.nodes[:, s:end], nodes, where=accept)
        return int(accept.sum())

    def sweep(self):
        n_c = self.pos.shape[0]
        for i in self.free:
            self.accepted_single += self.move(i, 1)
        self.proposed_single += n_c * self.free.size
        if self._block_starts.size:
            s = int(self._block_starts[self.rng.integers(self._block_starts.size)])
            self.accepted_block += self.move(s, self.block_len)
            self.proposed_block += n_c


@pytest.mark.parametrize("points", [97, 5])
@pytest.mark.parametrize("mode", ["interp", "grid"])
@pytest.mark.parametrize("case", ["smeared", "pinned"])
def test_one_draw_per_sweep_keeps_the_per_move_stream(monkeypatch, points, mode, case):
    # M = 97 draws in two levels over a ragged, zero-padded row; M = 5 in one
    gs, kernel = small_model(points)
    ends = gs.grid.x[[points // 2 - 1, points // 2 + 1]]
    boundary = Pinned(*ends) if case == "pinned" else Smeared()
    spec = GibbsSpec(gs, kernel, nelson_pair(0.5), TimeGrid(2.0, 0.5), boundary)
    cfg = ChainConfig(sweeps=30, burnin=5, block_len=3, seed=71, n_chains=8, mode=mode)
    runs = []
    for engine_class in (_Engine, PerMoveEngine):
        engines = []

        class Recording(engine_class):
            def __init__(self, *args):
                super().__init__(*args)
                engines.append(self)
        monkeypatch.setattr(sampler, "_Engine", Recording)
        result = run_ensemble(spec, cfg)
        runs.append((result, engines[0]))
    (new, new_engine), (ref, ref_engine) = runs
    assert 0.0 < new.accept_single < 1.0
    assert new.positions.tobytes() == ref.positions.tobytes()
    assert new_engine.nodes.tobytes() == ref_engine.nodes.tobytes()
    assert (new.accept_single, new.accept_block) == (ref.accept_single, ref.accept_block)


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("mode", ["interp", "grid"])
@pytest.mark.parametrize("case", ["smeared", "pinned"])
def test_record_reads_as_float_copies_of_the_engine_positions(monkeypatch, seed, mode, case):
    # the reference is the record kept before grid mode recorded nodes:
    # a float copy of engine.pos after every sweep
    snapshots = []

    class Recording(_Engine):
        def sweep(self):
            super().sweep()
            snapshots.append(self.pos.copy())
    monkeypatch.setattr(sampler, "_Engine", Recording)
    gs, kernel = small_model(9)
    boundary = Pinned(gs.grid.x[3], gs.grid.x[5]) if case == "pinned" else Smeared()
    spec = GibbsSpec(gs, kernel, nelson_pair(0.5), TimeGrid(1.5, 0.5), boundary)
    cfg = ChainConfig(sweeps=24, burnin=6, block_len=3, seed=seed, n_chains=7, mode=mode,
                      record_every=2)
    ids = np.array([0, 2, 3, 6])
    result = run_ensemble(spec, cfg, record_indices=ids)
    ref = np.stack(snapshots[cfg.burnin + 1::2])[:, :, ids]
    assert result.positions.tobytes() == ref.tobytes()
    for col, t in enumerate(ids):
        assert result.chain_series(t).tobytes() == ref[:, :, col].T.copy().tobytes()
    old = np.empty((ids.size, gs.grid.points))
    for row in range(ids.size):
        nodes = gs.grid.nearest_index(ref[:, :, row].reshape(-1))
        old[row] = np.bincount(nodes, minlength=gs.grid.points) / nodes.size
    assert empirical_node_marginals(result, gs.grid).tobytes() == old.tobytes()
    written = io.StringIO()
    write_snapshots_jsonl(result, written)
    expected = "".join(
        json.dumps({"record": row, "chain": c, "time_indices": ids.tolist(),
                    "positions": [float(v) for v in ref[row, c]]}, sort_keys=True) + "\n"
        for row in range(ref.shape[0]) for c in range(ref.shape[1]))
    assert written.getvalue() == expected


@pytest.mark.parametrize("mode, points, dtype", [("grid", 5, np.int8), ("grid", 801, np.int16),
                                                 ("interp", 5, np.float64)])
def test_record_dtype_is_the_smallest_that_holds_the_grid(mode, points, dtype):
    spec = spec_small(nelson_pair(0.5), points=points) if points == 5 else \
        spec_wide(nelson_pair(0.5), T=1.0)
    result = run_ensemble(spec, ChainConfig(sweeps=3, burnin=1, block_len=2, seed=2,
                                            n_chains=2, mode=mode))
    assert result.record.dtype == dtype
    assert result.positions.dtype == np.float64
    assert result.nodes.dtype.kind == "i"
    assert np.array_equal(result.nodes, spec.grid.nearest_index(result.positions))


def test_criterion_05_record_takes_one_byte_per_sample():
    # the oracle workload's criterion-05 run: 900 records of 100 chains at 5 slices
    spec = spec_small(nelson_pair(0.5), T=1.0)
    result = run_ensemble(spec, ChainConfig(sweeps=900, burnin=100, block_len=3, seed=5,
                                            n_chains=100, mode="grid"))
    assert result.record.shape == (900, 100, 5)
    assert result.record.nbytes == 450_000
    assert result.positions.nbytes == 3_600_000


# ---------------------------------------------------------------------------
# window conditionals


def outside_config(spec, seed=7):
    rng = make_rng(seed)
    return rng.integers(0, spec.grid.points, size=spec.timegrid.n_times)


def test_window_conditional_matches_brute_force():
    spec = spec_small(nelson_pair(0.5), T=1.5)
    table = brute_force_measure(spec)
    out = outside_config(spec)
    wc = window_conditional_exact(spec, 1.0, out)
    assert list(wc.window_indices) == [2, 3, 4]
    exact = table.conditional_window([2, 3, 4], out)
    assert total_variation(wc.probs.reshape(-1), exact.reshape(-1)) < 1e-10
    # no interior, off the grid, no exterior, beyond T
    for s_half in (0.0, 0.3, 1.5, 2.0):
        with pytest.raises(ValueError, match="window"):
            window_conditional_exact(spec, s_half, out)


def test_window_conditional_zero_w_equals_bridge():
    spec = spec_small(zero_pair(), T=1.5)
    wc = window_conditional_exact(spec, 1.0, outside_config(spec))
    assert np.array_equal(wc.probs, wc.bridge_probs)
    # single-site window reduces to the two-step bridge formula
    wc1 = window_conditional_exact(spec, 0.5, outside_config(spec))
    out = outside_config(spec)
    k = spec.kernel.matrix
    analytic = k[out[2]] * k[:, out[4]]
    analytic = analytic / analytic.sum()
    assert np.max(np.abs(wc1.probs - analytic)) < 1e-13


def test_window_conditional_beyond_int8_node_indices():
    # 201 nodes do not fit int8; the one-site window is the two-step bridge
    spec = spec_small(zero_pair(), T=1.0, points=201)
    out = np.array([0, 150, 100, 180, 200])
    wc = window_conditional_exact(spec, 0.5, out)
    k = spec.kernel.matrix
    analytic = k[out[1]] * k[:, out[3]]
    assert np.max(np.abs(wc.probs - analytic / analytic.sum())) < 1e-13


def test_window_conditional_ratio_envelope():
    spec = spec_small(nelson_pair(0.5), T=1.5)
    wc = window_conditional_exact(spec, 1.0, outside_config(spec))
    bound = np.exp(2.0 * wc.frame_bound)
    live = wc.bridge_probs > 0
    ratio = wc.probs[live] / wc.bridge_probs[live]
    assert np.all(ratio <= bound * (1 + 1e-12))
    assert np.all(ratio >= (1 + 1e-12) / bound)


def test_enumerated_columns_cover_all_configs():
    cols = enumerate_configs(3, [0, 0], [0, 1])
    assert cols.shape == (9, 2)
    assert len({tuple(r) for r in cols}) == 9
    # columns fill in the order `sites` lists them; the others keep `base`
    swapped = enumerate_configs(3, [2, 1, 2], [2, 0])
    assert swapped[:4].tolist() == [[0, 1, 0], [1, 1, 0], [2, 1, 0], [0, 1, 1]]
    with pytest.raises(ValueError, match="node indices"):
        enumerate_configs(3, [0, 3], [0])
    # the entries at `sites` are placeholders
    assert enumerate_configs(3, [-1, 7], [0, 1]).tolist() == cols.tolist()
