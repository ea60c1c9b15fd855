import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import kstest

from pathgibbs.grids import TimeGrid
from pathgibbs.potentials import harmonic
from pathgibbs.reference import (
    SMALLEST,
    bridge_conditional,
    bridge_marginal,
    fkf_convergence,
    make_rng,
    sample_bridge,
    sample_paths,
    sample_rows,
    stationary_weights,
    transfer_matrix,
    transition_density,
    verify_fkf,
)
from pathgibbs.spectral import default_grid, ground_state, heat_kernel
from pathgibbs.stats import ks_statistic_atomic


@pytest.fixture(scope="module")
def gs():
    return ground_state(harmonic(), default_grid())


@pytest.fixture(scope="module")
def k01(gs):
    return heat_kernel(gs, 0.1)


@pytest.fixture(scope="module")
def k05(gs):
    return heat_kernel(gs, 0.5)


def test_stationary_density_is_squared_gaussian(gs):
    dens = stationary_weights(gs) / gs.grid.h
    x = gs.grid.x
    exact = np.exp(-x * x) / math.sqrt(math.pi)
    assert np.max(np.abs(dens - exact)) < 2e-3
    assert np.max(np.abs(dens - dens[::-1])) < 1e-10
    assert stationary_weights(gs).sum() == pytest.approx(1.0, abs=1e-14)


def test_transition_density_matches_ou(gs, k05):
    # drift -x diffusion over t=0.5 from y: N(y e^-t, (1 - e^-2t)/2)
    var = (1.0 - math.exp(-1.0)) / 2.0
    x = gs.grid.x
    for y in (0.0, 1.0):
        dens = transition_density(gs, k05, y)
        mean = y * math.exp(-0.5)
        exact = np.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert np.max(np.abs(dens - exact)) <= 5e-3


def test_transition_density_long_time_limit(gs):
    k = heat_kernel(gs, 50.0)
    dens = transition_density(gs, k, 1.0)
    assert np.max(np.abs(dens - stationary_weights(gs) / gs.grid.h)) < 1e-6


def test_transfer_matrix_stochastic_and_reversible(gs, k01):
    p = transfer_matrix(gs, k01)
    assert p.min() >= 0.0
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
    pi = stationary_weights(gs)
    assert np.max(np.abs(pi @ p - pi)) < 1e-8
    flux = pi[:, None] * p
    assert np.max(np.abs(flux - flux.T)) < 1e-10


def test_sample_paths_reproducible_and_stationary(gs, k01):
    tg = TimeGrid(1.0, 0.1)
    ens = sample_paths(gs, k01, tg, 20000, seed=11)
    again = sample_paths(gs, k01, tg, 20000, seed=11)
    assert np.array_equal(ens.positions, again.positions)
    pi = stationary_weights(gs)
    for t in (0, tg.n_times // 2, tg.n_times - 1):
        ks = ks_statistic_atomic(ens.positions[:, t], gs.grid.x, pi)
        assert ks < 0.02
    # one-step autocovariance of the drift -x diffusion is e^-dt / 2
    x0 = ens.positions[:, :-1].ravel()
    x1 = ens.positions[:, 1:].ravel()
    assert np.mean(x0 * x1) == pytest.approx(0.5 * math.exp(-0.1), abs=0.02)


def test_sample_paths_interp_mode(gs, k01):
    tg = TimeGrid(0.5, 0.1)
    ens = sample_paths(gs, k01, tg, 30000, seed=3, mode="interp")
    off_grid = np.abs((ens.positions - gs.grid.lower) / gs.grid.h
                      - np.round((ens.positions - gs.grid.lower) / gs.grid.h))
    assert np.mean(off_grid > 1e-9) > 0.99
    ks = kstest(ens.positions[:, 2], lambda z: 0.5 * (1 + erf(z))).statistic
    assert ks < 0.015


def _first_reaching(cdf_rows, u):
    """The draw rule written out per path: the number of columns whose
    cumulative mass lies below max(u * row total, SMALLEST)."""
    target = np.maximum(u * cdf_rows[:, -1], SMALLEST)
    return np.sum(cdf_rows < target[:, None], axis=1)


def _index_table_walk(gs, kernel, tg, n_paths, seed, mode):
    # reference walk: the whole (n_paths, n_t) node table, one cumsummed
    # row per path and step, then grid.x[table] and the offsets
    rng = make_rng(seed)
    cdf = np.cumsum(transfer_matrix(gs, kernel), axis=1)
    idx = np.empty((n_paths, tg.n_times), dtype=np.int64)
    start = np.tile(np.cumsum(stationary_weights(gs)), (n_paths, 1))
    idx[:, 0] = _first_reaching(start, rng.random(n_paths))
    for t in range(1, tg.n_times):
        idx[:, t] = _first_reaching(cdf[idx[:, t - 1]], rng.random(n_paths))
    positions = gs.grid.x[idx]
    if mode == "interp":
        jitter = (rng.random(idx.shape) - 0.5) * gs.grid.h
        positions = np.clip(positions + jitter, gs.grid.lower, gs.grid.upper)
    return positions


def _index_table_bridge(kernel, tg, a, b, n_paths, seed):
    rng = make_rng(seed)
    ia, ib, m = kernel.grid.index_of(a), kernel.grid.index_of(b), tg.n_times - 1
    cols = kernel.pin_columns(ib, m)
    idx = np.empty((n_paths, tg.n_times), dtype=np.int64)
    idx[:, 0], idx[:, -1] = ia, ib
    for k in range(1, m):
        cdf = np.cumsum(kernel.matrix[idx[:, k - 1]] * cols[m - k], axis=1)
        idx[:, k] = _first_reaching(cdf, rng.random(n_paths))
    return kernel.grid.x[idx]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_streamed_walks_equal_the_index_table_walks_bit_for_bit(gs, k05, seed):
    tg = TimeGrid(2.0, 0.5)
    for mode in ("grid", "interp"):
        got = sample_paths(gs, k05, tg, 400, seed, mode=mode).positions
        assert np.array_equal(got, _index_table_walk(gs, k05, tg, 400, seed, mode))
    got = sample_bridge(k05, tg, -1.0, 1.5, 400, seed).positions
    assert np.array_equal(got, _index_table_bridge(k05, tg, -1.0, 1.5, 400, seed))


def test_stationary_draw_holds_one_table_beside_the_positions(gs, k05):
    # 200 000 paths over 3 slices at M = 801: above the kernel, the draw may
    # hold one M x M float64 table, the positions and 8 path-count vectors
    n, tg, m = 200_000, TimeGrid(0.5, 0.5), gs.grid.points
    tracemalloc.start()
    try:
        ens = sample_paths(gs, k05, tg, n, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ens.positions.shape == (n, 3)
    assert peak <= 8 * (m * m + n * tg.n_times + 8 * n)


def test_bridge_conditional_definition(gs, k05):
    ia = gs.grid.index_of(0.0)
    probs = bridge_conditional(k05, ia, ia, 2)
    direct = k05.matrix[ia] * k05.matrix[:, ia]
    direct = direct / direct.sum()
    assert np.max(np.abs(probs - direct)) < 1e-12
    # final step is forced onto the pin
    last = bridge_conditional(k05, ia, ia + 3, 1)
    assert last[ia + 3] == 1.0 and last.sum() == 1.0


def test_bridge_marginalization_identity(gs, k05):
    # mixing bridge laws over the endpoint law recovers the forward chain
    ia = gs.grid.index_of(1.0)
    m, k = 4, 2
    km = k05.power(m)
    fwd = k05.power(k)[ia]
    bwd = k05.power(m - k)
    weights = gs.psi * km[ia]
    live = np.flatnonzero(weights > 1e-300)
    laws = fwd[:, None] * bwd[:, live] / km[ia, live][None, :]
    mix = laws @ weights[live] / weights[live].sum()
    p = transfer_matrix(gs, k05)
    forward = np.linalg.matrix_power(p, k)[ia]
    assert np.max(np.abs(mix - forward)) < 1e-10
    # the vectorized laws agree with the per-endpoint helper
    for ib in live[:: max(1, live.size // 3)]:
        direct = bridge_marginal(k05, ia, int(ib), k, m)
        col = np.flatnonzero(live == ib)[0]
        assert np.max(np.abs(direct - laws[:, col])) < 1e-13


def test_sample_bridge_reproducible_and_pinned(k05):
    tg = TimeGrid(1.0, 0.5)
    b1 = sample_bridge(k05, tg, -1.0, 2.0, 4, seed=9)
    b2 = sample_bridge(k05, tg, -1.0, 2.0, 4, seed=9)
    assert b1.positions.shape == (4, tg.n_times)
    assert np.array_equal(b1.positions, b2.positions)
    assert np.all(b1.positions[:, 0] == -1.0) and np.all(b1.positions[:, -1] == 2.0)


def test_bridge_ensemble_marginals_match_exact_bridge_law(gs, k05):
    # 20 000 bridges at M = 801, T = 2 (8 steps), pins -1 and 1: each of the
    # 7 interior marginals against its exact law.  DKW gives
    # P(KS > eps) <= 2 exp(-2 n eps^2) per marginal, so with a Bonferroni
    # split the family-wise rate of a false failure is at most 1%.
    tg, n, family_error = TimeGrid(2.0, 0.5), 20_000, 0.01
    ens = sample_bridge(k05, tg, -1.0, 1.0, n, seed=17)
    ia, ib, m = gs.grid.index_of(-1.0), gs.grid.index_of(1.0), tg.n_times - 1
    critical = math.sqrt(math.log(2 * (m - 1) / family_error) / (2 * n))
    worst = max(ks_statistic_atomic(ens.positions[:, k], gs.grid.x,
                                    bridge_marginal(k05, ia, ib, k, m)) for k in range(1, m))
    assert worst < critical


def test_sample_bridge_rejects_a_kernel_on_another_step(k05):
    with pytest.raises(ValueError, match="kernel step 0.5 does not match time grid step 0.25"):
        sample_bridge(k05, TimeGrid(1.0, 0.25), 0.0, 0.0, 2, seed=1)


def test_sample_bridge_raises_on_zero_mass_between_the_pins(gs):
    # over 0.08 in steps of 0.02 the floored kernel cannot carry -7 to 7
    kernel = heat_kernel(gs, 0.02)
    with pytest.raises(ValueError, match="zero conditional mass between the endpoints"):
        sample_bridge(kernel, TimeGrid(0.04, 0.02), -7.0, 7.0, 3, seed=1)
    with pytest.raises(ValueError, match="zero conditional mass between the endpoints"):
        bridge_conditional(kernel, gs.grid.index_of(-7.0), gs.grid.index_of(7.0), 3)


LAST_U = 1.0 - 2.0**-53   # the largest double below 1


@pytest.mark.parametrize("m", [5, 64, 801])
def test_sample_rows_is_the_first_column_reaching_the_floored_target(m):
    rng = np.random.default_rng(m)
    masses = rng.random((8, m))
    masses[0, :m // 2] = 0.0             # leading zero-mass columns
    masses[1, m // 2 + 1:] = 0.0         # trailing zero-mass columns
    masses[2, :2] = masses[2, -2:] = 0.0  # both
    for row, col in zip((3, 4, 5), (0, m // 2, m - 1)):
        masses[row] = 0.0
        masses[row, col] = rng.random() + 1e-300   # a single column of mass
    masses[6] *= 1e-310                   # subnormal masses
    cdf = np.cumsum(masses, axis=1)
    current = np.repeat(np.arange(8), 64)
    for u in (np.zeros(current.size), np.full(current.size, LAST_U), rng.random(current.size)):
        got = sample_rows(cdf, current, u)
        want = [np.searchsorted(cdf[c], max(v * cdf[c, -1], SMALLEST), side="left")
                for c, v in zip(current, u)]
        assert np.array_equal(got, want)
        assert np.all(masses[current, got] > 0.0)


def test_sample_rows_never_draws_the_massless_wall(gs):
    # row 0 sums to about 1 - 1.3e-13 and its far wall has no mass, so u
    # past the row total used to be clipped onto node M - 1
    p = transfer_matrix(gs, heat_kernel(gs, 0.25))
    got = sample_rows(np.cumsum(p, axis=1), np.zeros(1, dtype=np.int64), np.array([LAST_U]))
    assert p[0, got[0]] > 0.0


def test_fkf_normalization_and_residual(gs):
    assert verify_fkf(gs, lambda x: np.ones_like(x), 1.0, 0.1) < 1e-8
    assert verify_fkf(gs, lambda x: x * x, 1.0, 0.1) < 5e-3


def test_fkf_convergence_order(gs):
    rep = fkf_convergence(gs, lambda x: x * x, 1.0, [0.2, 0.1, 0.05])
    assert rep.chain_value == pytest.approx(0.5, abs=1e-3)
    assert rep.order >= 2.0
    assert all(r < 5e-3 for r in rep.residuals[1:])
