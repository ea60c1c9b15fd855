import math

import numpy as np
import pytest
from scipy import integrate

from pathgibbs.energy import (
    DoubledPath,
    FrameRegion,
    SquareRegion,
    StripRegion,
    apply_shift,
    check_shift_inequality,
    doubled_energy,
    fold_path,
    interaction_energy,
)
from pathgibbs.grids import Path, TimeGrid
from pathgibbs.potentials import (
    constant_pair,
    interaction_budget,
    nelson_pair,
    step_pair,
    zero_pair,
)

BOUND_PAIRS = [nelson_pair(0.7), step_pair(0.9), zero_pair(), constant_pair(0.4)]


def random_paths(T, dt, count, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    tg = TimeGrid(T, dt)
    return [Path(tg, scale * rng.normal(size=tg.n_times)) for _ in range(count)]


def test_zero_and_constant_energies():
    p = random_paths(2.0, 0.25, 1, 0)[0]
    assert interaction_energy(zero_pair(), p, SquareRegion(2.0)) == 0.0
    # -integral of a constant -c over the square is +c (2T)^2
    e = interaction_energy(constant_pair(-3.0), p, SquareRegion(2.0))
    assert e == pytest.approx(3.0 * 16.0, abs=1e-10)


def test_region_validation_and_masks():
    tg = TimeGrid(2.0, 0.25)
    with pytest.raises(ValueError):
        FrameRegion(3.0, 2.0)
    with pytest.raises(ValueError):
        SquareRegion(-1.0)
    p = Path(tg, np.zeros(tg.n_times))
    with pytest.raises(ValueError, match="extends"):
        interaction_energy(zero_pair(), p, SquareRegion(4.0))
    # frame mask area: 2 * (2T * 2S) - (2S)^2 with S=1, T=2 -> 12
    mask = FrameRegion(1.0, 2.0).weights(tg)
    assert mask.sum() == pytest.approx(12.0)
    assert StripRegion(1.0, 2.0).weights(tg).sum() == pytest.approx(8.0)


def test_energy_linear_in_potential():
    # the energy is linear in W, and each catalog W is linear in its coupling or value
    p = random_paths(2.0, 0.25, 1, 5)[0]
    region = SquareRegion(2.0)
    a, b = 2.5, 1.25
    for make, c1, c2 in ((nelson_pair, 0.7, 1.9), (step_pair, 0.4, 1.1),
                         (constant_pair, 0.3, -0.8)):
        e1, e2, e12 = (interaction_energy(make(c), p, region) for c in (c1, c2, a * c1 + b * c2))
        assert e1 != 0.0 and e2 != 0.0
        assert e12 == pytest.approx(a * e1 + b * e2, rel=1e-12)


def test_frame_and_strip_envelope_bounds():
    w = nelson_pair(1.0)
    for p in random_paths(4.0, 0.25, 10, 1, scale=2.0):
        ef = interaction_energy(w, p, FrameRegion(1.0, 4.0))
        assert abs(ef) <= 4.0 * math.pi * 1.0 + 1e-9
        es = interaction_energy(w, p, StripRegion(1.0, 4.0))
        assert abs(es) <= 2.0 * math.pi * 1.0 + 1e-9


@pytest.mark.parametrize("w", BOUND_PAIRS)
def test_region_bounds_and_tails_match_closed_forms(w):
    S, T = 0.75, 3.0
    budget = interaction_budget(w)
    assert SquareRegion(T).envelope_bound(w) == 2.0 * T * budget
    assert FrameRegion(S, T).envelope_bound(w) == 4.0 * S * budget
    assert StripRegion(S, T).envelope_bound(w) == 2.0 * S * budget
    # the strip's bound covers the unbounded strip: it ignores the truncation
    assert StripRegion(S, 4.0 * T).envelope_bound(w) == StripRegion(S, T).envelope_bound(w)
    tail = w.envelope_tail(T - S)
    if math.isfinite(w.envelope_tail(0.0)):
        assert tail == pytest.approx(integrate.quad(w.envelope, T - S, np.inf)[0], abs=1e-10)
    else:
        assert tail == math.inf


def test_apply_shift_formula():
    tg = TimeGrid(3.0, 0.5)
    p = Path(tg, tg.times.copy())
    s = apply_shift(p, 1.0)
    assert s.timegrid.T == pytest.approx(2.0)
    at = s.timegrid.index_of_time
    assert s.positions[at(0.5)] == pytest.approx(1.5)
    assert s.positions[at(-0.5)] == pytest.approx(-1.5)
    assert s.positions[at(0.0)] == pytest.approx(1.0)
    # identity, constant invariance, composition
    assert np.array_equal(apply_shift(p, 0.0).positions, p.positions)
    const = Path(tg, np.full(tg.n_times, 2.5))
    assert np.all(apply_shift(const, 1.5).positions == 2.5)
    two_step = apply_shift(apply_shift(p, 0.5), 1.0)
    assert np.array_equal(two_step.positions, apply_shift(p, 1.5).positions)
    with pytest.raises(ValueError):
        apply_shift(p, 0.3)
    with pytest.raises(ValueError):
        apply_shift(p, 3.0)


def test_shift_inequality_zero_potential():
    rep = check_shift_inequality(zero_pair(), random_paths(3.0, 0.25, 5, 4),
                                 T=2.0, taus=[0.25, 0.5, 1.0], C=0.0, D=0.0)
    assert rep.holds
    assert rep.c_star == 0.0 and rep.d_star == 0.0


def test_shift_inequality_nelson_fitted():
    paths = random_paths(3.0, 0.25, 50, 8)
    rep = check_shift_inequality(nelson_pair(0.5), paths, T=2.0,
                                 taus=[0.25, 0.5, 1.0])
    assert rep.holds  # fitted line is feasible on the sample by construction
    assert rep.c_star >= 0.0 and rep.d_star >= 0.0
    # flagging works: an infeasible (C, D) pair reports violations
    worst = max(rep.worst_gap_per_tau)
    if worst > 0:
        bad = check_shift_inequality(nelson_pair(0.5), paths, T=2.0,
                                     taus=[0.25, 0.5, 1.0], C=0.0, D=-1.0)
        assert not bad.holds


def test_batched_shift_gaps_match_per_path_loop():
    w = nelson_pair(0.5)
    paths = random_paths(3.0, 0.25, 12, 21)
    taus = [0.25, 0.5, 1.0]
    # with C = D = 0 and tol = -inf every (path, tau) is reported, its excess being the gap
    rep = check_shift_inequality(w, paths, T=2.0, taus=taus, C=0.0, D=0.0, tol=-math.inf)
    square = SquareRegion(2.0)
    expected = [(i, tau, interaction_energy(w, p, square)
                 - interaction_energy(w, apply_shift(p, tau), square))
                for i, p in enumerate(paths) for tau in taus]
    assert [(i, tau) for i, tau, _ in rep.violations] == [(i, tau) for i, tau, _ in expected]
    for (_, _, got), (_, _, want) in zip(rep.violations, expected):
        assert abs(got - want) < 1e-12
    for j, tau in enumerate(taus):
        worst = max(gap for _, t, gap in expected if t == tau)
        assert abs(rep.worst_gap_per_tau[j] - worst) < 1e-12


def test_ensembles_on_mixed_grids_raise():
    paths = random_paths(3.0, 0.25, 2, 22) + random_paths(3.5, 0.25, 1, 23)
    with pytest.raises(ValueError, match="one time grid"):
        check_shift_inequality(nelson_pair(0.5), paths, T=2.0, taus=[0.5])


def test_fold_and_doubled_energy_identity():
    w = nelson_pair(1.0)
    for p in random_paths(2.0, 0.25, 10, 11):
        dp = fold_path(p)
        assert dp.forward[0] == dp.backward[0]
        direct = interaction_energy(w, p, SquareRegion(2.0))
        assert doubled_energy(w, dp, 2.0) == pytest.approx(direct, abs=1e-9)
    assert doubled_energy(zero_pair(), fold_path(p), 2.0) == 0.0


def test_doubled_energy_symmetric_path():
    tg = TimeGrid(2.0, 0.25)
    half = np.linspace(0.0, 1.0, tg.n + 1)
    sym = Path(tg, np.concatenate([half[::-1], half[1:]]))
    dp = fold_path(sym)
    assert np.array_equal(dp.forward, dp.backward)
    w = nelson_pair(0.7)
    assert doubled_energy(w, dp, 2.0) == pytest.approx(
        interaction_energy(w, sym, SquareRegion(2.0)), abs=1e-9)


def test_doubled_energy_partial_window():
    p = random_paths(4.0, 0.5, 1, 13)[0]
    w = nelson_pair(1.0)
    assert doubled_energy(w, fold_path(p), 2.0) == pytest.approx(
        interaction_energy(w, p, SquareRegion(2.0)), abs=1e-9)
    with pytest.raises(ValueError):
        doubled_energy(w, DoubledPath(p.timegrid, np.zeros(9), np.zeros(9)), 5.0)


def test_step_potential_shift_scan_reports_growth():
    # the divergence signal, the half-line interaction growing with T on the
    # linear path, is checked in test_potentials; the fitted shift constants
    # are only reported
    w = step_pair(1.0)
    fits = []
    for T in (2.0, 4.0, 8.0):
        tg = TimeGrid(T + 1.0, 0.125)
        p = Path(tg, tg.times.copy())
        rep = check_shift_inequality(w, [p], T=T, taus=[0.5, 1.0])
        fits.append((rep.c_star, rep.d_star))
    assert all(c >= 0 and d >= 0 for c, d in fits)
