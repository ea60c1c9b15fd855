"""Diagnostics: tails, tightness, window convergence, hitting times, ratios."""

import functools
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from pathgibbs.grids import SpaceGrid, TimeGrid, radial_grid
from pathgibbs.potentials import (harmonic, coulomb_3d, zero_pair, constant_pair,
                                  nelson_pair)
from pathgibbs.spectral import (ground_state, ground_state_radial, heat_kernel,
                                default_grid)
from pathgibbs.reference import sample_paths, transfer_matrix
from pathgibbs.sampler import GibbsSpec, ChainConfig, Smeared, Pinned, brute_force_measure
from pathgibbs.stats import total_variation, wilson_interval, log_log_slope
from pathgibbs.diagnostics import (psi_tail, psi_decay_fit, tail_summability,
                                   path_growth_check, hitting_radius,
                                   hitting_time_moment, doubled_moment_exact,
                                   ratio_bound_check, tightness_profile,
                                   window_convergence_exact, window_convergence_mc)


@functools.lru_cache(maxsize=None)
def wide_model(dt=0.5):
    grid = default_grid()
    gs = ground_state(harmonic(), grid)
    return gs, heat_kernel(gs, dt)


@functools.lru_cache(maxsize=None)
def hydrogen():
    return ground_state_radial(coulomb_3d(), radial_grid(40.0, 4000))


@functools.lru_cache(maxsize=None)
def small_model(points=5, dt=0.5):
    grid = SpaceGrid(-2.0, 2.0, points)
    gs = ground_state(harmonic(), grid)
    return gs, heat_kernel(gs, dt)


# ---------------------------------------------------------------------------
# ground-state tails


def test_psi_tail_full_integral_matches_analytic():
    gs, _ = wide_model()
    # int |psi| dx for the unit oscillator is sqrt(2) pi^(1/4)
    assert abs(psi_tail(gs, 0.0) - math.sqrt(2.0) * math.pi ** 0.25) < 1e-4
    assert psi_tail(gs, -3.0) == psi_tail(gs, 0.0)


def test_psi_tail_outside_box_is_zero_and_monotone():
    gs, _ = wide_model()
    edge = gs.grid.x[-1]
    assert psi_tail(gs, edge) == 0.0
    assert psi_tail(gs, edge + 5.0) == 0.0
    radii = np.linspace(0.0, edge, 30)
    tails = [psi_tail(gs, r) for r in radii]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[0] > tails[-1] > 0.0 or tails[-1] == 0.0


def test_psi_tail_radial_hydrogen():
    gs = hydrogen()
    # int_{R^3} e^{-r}/sqrt(pi) = 8 sqrt(pi)
    assert abs(psi_tail(gs, 0.0) - 8.0 * math.sqrt(math.pi)) < 5e-2
    assert psi_tail(gs, 3.0) < psi_tail(gs, 1.0)


def _tail_one_radius(gs, radius):
    """The per-radius trapezoid: an independent reference for psi_tail."""
    def beyond(x, vals, a):
        if a >= x[-1]:
            return 0.0
        if a <= x[0]:
            return float(np.trapezoid(vals, x))
        va = float(np.interp(a, x, vals))
        keep = x > a
        xs = np.concatenate([[a], x[keep]])
        vs = np.concatenate([[va], vals[keep]])
        return float(np.trapezoid(vs, xs))

    radius = max(float(radius), 0.0)
    if gs.radial:
        r = np.concatenate([[0.0], gs.grid.x])
        vals = np.concatenate([[0.0], gs.psi * gs.grid.x])
        return float(np.sqrt(4.0 * np.pi) * beyond(r, vals, radius))
    x, psi = gs.grid.x, gs.psi
    return beyond(x, psi, radius) + beyond(-x[::-1], psi[::-1], radius)


def _test_radii(x):
    """Nodes, mid-cells, negatives, both ends, points past the box, random radii."""
    mids = 0.5 * (x[:-1] + x[1:])
    beyond = x[-1] + np.array([1e-12, 0.5, 5.0])
    spread = np.random.default_rng(3).uniform(-1.0, x[-1] + 1.0, 200)
    return np.concatenate([x[::4], mids[::4], [-3.0, -1e-9, 0.0, x[0], x[-1]], beyond,
                           spread])


@pytest.mark.parametrize("model", ["default-box", "radial-hydrogen"])
def test_psi_tail_array_matches_per_radius_reference(model):
    gs = wide_model()[0] if model == "default-box" else hydrogen()
    x = gs.grid.x
    radii = _test_radii(x)
    assert radii.size >= 500
    tails = psi_tail(gs, radii)
    ref = np.array([_tail_one_radius(gs, a) for a in radii])
    assert np.all(np.abs(tails - ref) <= 1e-13 * ref)
    assert np.all(tails[radii >= x[-1]] == 0.0)
    assert np.all(tails[radii <= 0.0] == psi_tail(gs, 0.0))
    order = np.argsort(radii, kind="stable")
    assert np.all(np.diff(tails[order]) <= 0.0)
    # the smallest tails inside the box are far below the full integral
    assert 0.0 < tails[radii < x[-1]].min() < 1e-15 * tails.max()


def test_psi_tail_types_and_one_code_path():
    gs, _ = wide_model()
    scalar = psi_tail(gs, 1.5)
    assert type(scalar) is float
    assert type(psi_tail(hydrogen(), 1.5)) is float
    radii = np.linspace(-1.0, 9.0, 12).reshape(3, 4)
    tails = psi_tail(gs, radii)
    assert isinstance(tails, np.ndarray) and tails.shape == radii.shape
    for i in np.ndindex(radii.shape):
        assert tails[i] == psi_tail(gs, radii[i])
        assert tails[i] == psi_tail(gs, float(radii[i]))


def test_tail_summability_matches_per_radius_loop():
    gs, _ = wide_model()
    report = tail_summability(gs, gamma=3.0)
    ns = np.arange(2, 10_001)
    terms = np.array([_tail_one_radius(gs, t) for t in np.sqrt(3.0 * np.log(ns))])
    keep = (ns >= 100) & (terms > 1e-290)
    slope = log_log_slope(ns[keep], terms[keep])
    assert abs(report.slope - slope) <= 1e-12 * abs(slope)
    assert abs(report.partial_sum - terms.sum()) <= 1e-12 * terms.sum()


def test_tail_summability_at_a_million_radii_is_fast():
    gs, _ = wide_model()
    radii = np.sqrt(3.0 * np.log(np.arange(2, 1_000_001)))
    t0 = time.perf_counter()
    terms = psi_tail(gs, radii)
    assert time.perf_counter() - t0 < 2.0
    assert terms.shape == radii.shape


def test_decay_fit_recovers_gaussian_exponent():
    gs, _ = wide_model()
    fit = psi_decay_fit(gs)
    assert abs(fit.beta - 0.5) < 0.05
    assert fit.residual < 0.05
    assert abs(fit.amplitude - math.pi ** -0.25) < 0.05


def test_decay_fit_rejects_empty_window():
    # of the nodes -8, -6, ..., 8 only x = 2 and x = 4 lie in the fit window
    gs = ground_state(harmonic(), SpaceGrid(-8.0, 8.0, 9))
    with pytest.raises(ValueError, match="window"):
        psi_decay_fit(gs)


def test_tail_summability_threshold():
    gs, _ = wide_model()
    fast = tail_summability(gs, gamma=3.0)
    slow = tail_summability(gs, gamma=1.0)
    assert fast.summable and fast.slope < -1.05
    assert not slow.summable and slow.slope > -1.05
    assert fast.partial_sum < slow.partial_sum


# ---------------------------------------------------------------------------
# path growth at integer times


def test_path_growth_zero_interaction_consistent():
    gs, kernel = wide_model()
    ens = sample_paths(gs, kernel, TimeGrid(16.0, 0.5), 4000, seed=7, mode="grid")
    report = path_growth_check(ens, gs, gamma=3.0)
    assert {r.n for r in report.rows} >= {2, 4, 8, 16}
    assert report.all_consistent
    assert report.fit_ok
    assert report.summability.summable
    assert report.limsup_proxy > 0.8


def test_path_growth_divergent_envelope_flagged():
    gs, kernel = wide_model()
    ens = sample_paths(gs, kernel, TimeGrid(16.0, 0.5), 1000, seed=8, mode="grid")
    report = path_growth_check(ens, gs, gamma=1.0)
    assert not report.summability.summable
    # a slack envelope is crossed more often
    assert report.limsup_proxy < 0.9


def test_path_growth_rows_use_bonferroni_intervals():
    # the rows share their paths, so each interval has level 5% / rows
    gs, kernel = wide_model()
    ens = sample_paths(gs, kernel, TimeGrid(16.0, 0.5), 400, seed=10, mode="grid")
    report = path_growth_check(ens, gs, gamma=3.0)
    assert len(report.rows) == 15
    z = norm.ppf(1.0 - 0.05 / (2 * 15))
    for r in report.rows:
        assert (r.ci_low, r.ci_high) == pytest.approx(wilson_interval(r.p_hat, 400, z),
                                                      rel=1e-12, abs=0.0)


def test_path_growth_requires_integer_times():
    gs, kernel = wide_model()
    ens = sample_paths(gs, kernel, TimeGrid(0.5, 0.5), 10, seed=9, mode="grid")
    with pytest.raises(ValueError, match="integer times"):
        path_growth_check(ens, gs, gamma=3.0)


# ---------------------------------------------------------------------------
# hitting-time exponential moment


def test_hitting_radius_grid_aligned():
    gs, _ = wide_model()
    r = hitting_radius(gs, 1.2)
    # largest node with x^2/2 <= 1.2 is 1.54, and sqrt(2) * 1.54 rounds up to 2.18
    assert abs(r - 2.18) < 1e-12
    h = gs.grid.h
    assert abs(r / h - round(r / h)) < 1e-9


def test_hitting_moment_zero_rate_is_one():
    gs, kernel = wide_model()
    rep = hitting_time_moment(gs, kernel, (2.0, 2.0), growth_rate=0.0,
                              horizon=10.0, n_paths=10, seed=1)
    assert rep.estimate == 1.0 and rep.stderr == 0.0 and rep.tail_bound == 0.0
    assert rep.rhs_bound == 1.0 and rep.certified


def test_hitting_moment_start_inside_ball_is_one():
    gs, kernel = wide_model()
    rep = hitting_time_moment(gs, kernel, (0.1, -0.1), growth_rate=0.2,
                              horizon=10.0, n_paths=10, seed=1)
    assert rep.estimate == 1.0 and rep.hit_fraction == 1.0


def test_hitting_moment_certified_against_analytic_bound():
    gs, kernel = wide_model(dt=0.25)
    rep = hitting_time_moment(gs, kernel, (2.0, 2.0), growth_rate=0.2,
                              horizon=30.0, n_paths=2000, seed=3)
    assert rep.gamma == 1.0 and abs(rep.radius - 2.18) < 1e-12
    assert rep.hit_fraction > 0.999
    assert rep.estimate + rep.tail_bound <= rep.rhs_bound
    assert rep.certified
    assert 1.0 < rep.estimate < 3.0


def test_hitting_moment_deterministic():
    gs, kernel = wide_model(dt=0.25)
    kwargs = dict(growth_rate=0.2, horizon=20.0, n_paths=400, seed=11)
    a = hitting_time_moment(gs, kernel, (2.0, 2.0), **kwargs)
    b = hitting_time_moment(gs, kernel, (2.0, 2.0), **kwargs)
    assert a.estimate == b.estimate and a.stderr == b.stderr


def test_hitting_moment_short_horizon_raises_with_suggestion():
    gs, kernel = wide_model(dt=0.25)
    with pytest.raises(ValueError, match="horizon"):
        hitting_time_moment(gs, kernel, (2.0, 2.0), growth_rate=0.2,
                            horizon=2.0, n_paths=200, seed=5)


def test_hitting_moment_parameter_validation():
    gs, kernel = wide_model()
    with pytest.raises(ValueError, match="coercivity"):
        hitting_time_moment(gs, kernel, (2.0, 2.0), growth_rate=1.0,
                            horizon=10.0, n_paths=10, seed=0, alpha=0.5)


def test_hitting_moment_needs_two_paths_for_its_stderr():
    gs, kernel = wide_model()
    for n_paths in (0, 1):
        with pytest.raises(ValueError, match="at least 2 paths"):
            hitting_time_moment(gs, kernel, (2.0, 2.0), growth_rate=0.2,
                                horizon=10.0, n_paths=n_paths, seed=0)
    rep = hitting_time_moment(gs, kernel, (2.0, 2.0), growth_rate=0.2,
                              horizon=30.0, n_paths=2, seed=0)
    assert np.isfinite(rep.stderr)


# ---------------------------------------------------------------------------
# doubled interaction moments


def test_doubled_moment_zero_and_constant_are_flat():
    gs, kernel = small_model(dt=1.0)
    flat = doubled_moment_exact(gs, kernel, zero_pair(), 2.0)
    assert np.all(flat == 1.0)
    const = doubled_moment_exact(gs, kernel, constant_pair(0.3), 2.0)
    assert np.allclose(const, math.exp(-4.0 * 0.3 * 4.0), rtol=0, atol=1e-12)


def test_doubled_moment_matches_direct_enumeration():
    gs, kernel = small_model(dt=1.0)
    w = nelson_pair(0.5)
    table = doubled_moment_exact(gs, kernel, w, 1.0)
    p = transfer_matrix(gs, kernel)
    x = gs.grid.x
    m = x.size
    quad = 0.25  # product of two half-step trapezoid weights at dt = 1
    expect = np.empty((m, m))
    for a0 in range(m):
        for b0 in range(m):
            num = den = 0.0
            for a1 in range(m):
                for b1 in range(m):
                    xs = (x[a0], x[a1]), (x[b0], x[b1])
                    h_val = 0.0
                    # same-leg pairs at lag |s-t|, cross pairs at lag s+t
                    for j, s in enumerate((0.0, 1.0)):
                        for k, t in enumerate((0.0, 1.0)):
                            h_val -= quad * float(w.evaluate(xs[0][j], xs[0][k], abs(s - t)))
                            h_val -= quad * float(w.evaluate(xs[1][j], xs[1][k], abs(s - t)))
                            h_val -= quad * float(w.evaluate(xs[0][j], xs[1][k], s + t))
                            h_val -= quad * float(w.evaluate(xs[1][j], xs[0][k], s + t))
                    mass = p[a0, a1] * p[b0, b1]
                    num += mass * math.exp(h_val)
                    den += mass
            expect[a0, b0] = num / den
    assert np.max(np.abs(table - expect)) < 1e-12


def test_ratio_bound_trivial_interactions_are_exactly_one():
    gs, kernel = small_model(dt=1.0)
    for w in (zero_pair(), constant_pair(0.7)):
        rep = ratio_bound_check(gs, kernel, w, [1.0, 2.0], radius=1.5)
        assert rep.m_hats == (1.0, 1.0)
        assert rep.bounded


def test_ratio_bound_nelson_deterministic_and_finite():
    gs, kernel = small_model(dt=1.0)
    w = nelson_pair(0.5)
    rep1 = ratio_bound_check(gs, kernel, w, [1.0, 2.0], radius=1.5)
    rep2 = ratio_bound_check(gs, kernel, w, [1.0, 2.0], radius=1.5)
    assert rep1.m_hats == rep2.m_hats
    assert rep1.k_hat == rep2.k_hat
    assert all(m >= 1.0 for m in rep1.m_hats)
    assert rep1.k_hat > 0.0


def test_ratio_bound_size_cap():
    gs, kernel = small_model(dt=1.0)
    with pytest.raises(ValueError, match="size cap"):
        doubled_moment_exact(gs, kernel, nelson_pair(0.5), 5.0)


def test_ratio_bound_needs_starts():
    # a grid with no nodes near the origin leaves a small ball empty
    grid = SpaceGrid(1.0, 2.0, 3)
    gs = ground_state(harmonic(), grid)
    kernel = heat_kernel(gs, 1.0)
    with pytest.raises(ValueError, match="start pairs"):
        ratio_bound_check(gs, kernel, nelson_pair(0.5), [1.0], radius=1.0)


# ---------------------------------------------------------------------------
# tightness of the time-zero marginal


def test_tightness_profile_dominates_tails():
    gs, kernel = wide_model()
    config = ChainConfig(sweeps=400, burnin=100, block_len=3, seed=21,
                         n_chains=16, mode="grid")
    report = tightness_profile(gs, kernel, nelson_pair(0.5),
                               [1.0, 2.0], [1.0, 2.0, 7.5], config)
    assert report.domination_holds
    assert np.isfinite(report.k_hat) and report.k_hat > 0.0
    assert 0.0 <= report.trend_pvalue <= 1.0
    # the far cell sees no exceedances and must be flagged out of the fit
    cells = {(c.T, c.R): c for c in report.cells}
    far = cells[1.0, 7.5]
    assert far.flagged
    near = cells[1.0, 1.0]
    assert not near.flagged
    assert near.p_hat <= report.k_hat * near.tail * (1 + 1e-12)


def test_tightness_zero_interaction_matches_stationary_tail():
    gs, kernel = wide_model()
    config = ChainConfig(sweeps=600, burnin=100, block_len=3, seed=22,
                         n_chains=16, mode="grid")
    report = tightness_profile(gs, kernel, zero_pair(), [1.0], [1.0], config)
    [cell] = report.cells
    # stationary exceedance of |x| over 1 for the node law
    from pathgibbs.reference import stationary_weights
    exact = float(stationary_weights(gs)[np.abs(gs.grid.x) > 1.0].sum())
    assert abs(cell.p_hat - exact) < 4 * cell.half_width + 0.01


# ---------------------------------------------------------------------------
# window convergence and boundary sensitivity


def test_window_ids_validation():
    tg = TimeGrid(1.5, 0.5)
    ids = tg.window_indices(0.5)
    assert list(ids) == [2, 3, 4]
    assert list(tg.window_indices(1.5)) == list(range(7))
    with pytest.raises(ValueError, match="window"):
        tg.window_indices(0.3)
    with pytest.raises(ValueError, match="window"):
        tg.window_indices(2.0)


def test_window_convergence_exact_ladder_decreases():
    gs, kernel = small_model(dt=0.5)
    report = window_convergence_exact(gs, kernel, nelson_pair(0.5),
                                      [0.5, 1.0, 1.5], s_half=0.5)
    assert report.strictly_decreasing
    assert report.nonincreasing_within_ci
    tvs = [d.tv for d in report.distances]
    assert abs(tvs[0] - 0.02847) < 5e-4
    assert abs(tvs[1] - 0.01687) < 5e-4


def test_window_convergence_exact_identical_volumes_zero():
    gs, kernel = small_model(dt=0.5)
    report = window_convergence_exact(gs, kernel, nelson_pair(0.5),
                                      [1.0, 1.0], s_half=0.5)
    assert report.distances[0].tv == 0.0


def test_window_convergence_mc_tracks_exact():
    gs, kernel = small_model(dt=0.5)
    w = nelson_pair(0.5)
    exact = window_convergence_exact(gs, kernel, w, [0.5, 1.0, 1.5], s_half=0.5)
    config = ChainConfig(sweeps=1500, burnin=200, block_len=2, seed=33,
                         n_chains=32, mode="grid")
    mc = window_convergence_mc(gs, kernel, w, [0.5, 1.0, 1.5], s_half=0.5,
                               config=config)
    assert mc.nonincreasing_within_ci
    for d_mc, d_ex in zip(mc.distances, exact.distances):
        assert d_mc.stderr > 0.0
        assert abs(d_mc.tv - d_ex.tv) < 0.03


def test_boundary_sensitivity_reported():
    # the pinned ends move the exact window law less as the volume grows
    gs, kernel = small_model(dt=0.5)
    tvs = []
    for T in (0.5, 1.0):
        tg = TimeGrid(T, kernel.dt)
        ids = tg.window_indices(0.5)
        laws = [brute_force_measure(GibbsSpec(gs, kernel, nelson_pair(0.5), tg, boundary))
                .window_marginal(ids).reshape(-1) for boundary in (Smeared(), Pinned(0.0, 0.0))]
        tvs.append(total_variation(*laws))
    assert all(0.0 <= tv <= 1.0 for tv in tvs)
    assert tvs[1] < tvs[0]
