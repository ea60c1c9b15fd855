import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathgibbs.energy import Region, interaction_energy
from pathgibbs.grids import Path, TimeGrid
from pathgibbs.potentials import (
    box_zero,
    check_time_monotone,
    constant_pair,
    coulomb_3d,
    harmonic,
    interaction_budget,
    nelson_pair,
    step_pair,
    sufficient_condition_report,
    zero_pair,
)

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False)
lag_floats = st.floats(min_value=0, max_value=10, allow_nan=False)


def test_site_potential_values():
    assert harmonic().evaluate(2.0) == pytest.approx(2.0)
    assert harmonic(shift=-0.5).evaluate(0.0) == pytest.approx(-0.5)
    assert box_zero().evaluate(0.7) == 0.0
    v = coulomb_3d()
    assert v.evaluate_radial(1.0) == pytest.approx(-1.0)
    assert v.evaluate_radial(2.0) == pytest.approx(-0.5)
    # the singular origin maps to the clamp value
    assert v.evaluate_radial(0.0) == pytest.approx(-1.0e6)
    with pytest.raises(ValueError, match="evaluate_radial"):
        v.evaluate([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        harmonic().evaluate(np.nan)


def test_pair_potential_values():
    w = nelson_pair(1.0)
    assert w.evaluate(0.0, 0.0, 0.0) == pytest.approx(-1.0)
    assert w.evaluate(1.0, 0.0, 0.0) == pytest.approx(-0.5)
    assert nelson_pair(0.5).evaluate(0.0, 0.0, 1.0) == pytest.approx(-0.25)
    s = step_pair(1.0)
    assert s.evaluate(0.0, 0.0, 1.0) == pytest.approx(-0.5)
    assert s.evaluate(3.0, 0.0, 1.0) == 0.0
    assert constant_pair(2.0).evaluate(5.0, -5.0, 9.0) == 2.0
    assert zero_pair().evaluate(1.0, 2.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        w.evaluate(0.0, 0.0, -1.0)


def test_interaction_budget_closed_forms():
    # 2 int_0^inf dt/(1+t^2) = pi, scaled by the coupling
    assert interaction_budget(nelson_pair(1.0)) == pytest.approx(math.pi, abs=1e-10)
    assert interaction_budget(nelson_pair(0.5)) == pytest.approx(0.5 * math.pi, abs=1e-10)
    assert interaction_budget(step_pair(1.0)) == pytest.approx(math.pi, abs=1e-10)
    assert interaction_budget(zero_pair()) == 0.0
    assert interaction_budget(constant_pair(0.0)) == 0.0
    assert math.isinf(interaction_budget(constant_pair(-0.3)))


@given(finite_floats, finite_floats, lag_floats)
def test_envelope_dominates_nelson(x, y, t):
    w = nelson_pair(0.7)
    assert abs(w.evaluate(x, y, t)) <= w.envelope(t) + 1e-15


@given(finite_floats, finite_floats, lag_floats)
def test_envelope_dominates_step(x, y, t):
    w = step_pair(1.3)
    assert abs(w.evaluate(x, y, t)) <= w.envelope(t) + 1e-15


RADIAL_CATALOG = [
    zero_pair(),
    constant_pair(0.3),
    nelson_pair(0.7),
    step_pair(1.3),
]


@pytest.mark.parametrize("w", RADIAL_CATALOG, ids=lambda w: w.kind)
@given(xs=st.lists(finite_floats, min_size=1, max_size=4), y=finite_floats, t=lag_floats)
def test_radial_is_evaluate_bit_for_bit(w, xs, y, t):
    xs = np.asarray(xs)
    lags = np.full(xs.size, t)
    for got, want in ((w.radial(np.abs(xs - y), lags), w.evaluate(xs, y, lags)),
                      (w.radial(np.abs(xs[0] - y), t), w.evaluate(xs[0], y, t))):
        assert np.asarray(got, dtype=float).tobytes() == np.asarray(want).tobytes()


def test_verify_envelope_grid():
    xs = np.linspace(-4, 4, 17)
    ts = np.linspace(0, 6, 25)

    def worst_gap(w):
        vals = np.abs(w.evaluate(xs[:, None, None], xs[None, :, None], ts))
        return float(np.max(vals - w.envelope(ts)))
    # x == y attains the envelope, so the worst gap is exactly zero
    assert worst_gap(nelson_pair(1.0)) == pytest.approx(0.0, abs=1e-15)
    assert worst_gap(step_pair(2.0)) <= 0.0


def test_monotone_check_passes_nelson():
    pairs = [(x, y) for x in np.linspace(-3, 3, 7) for y in np.linspace(-3, 3, 7)]
    ts = np.linspace(0.0, 5.0, 41)
    rep = check_time_monotone(nelson_pair(1.0), pairs, ts)
    assert rep.monotone and rep.witness is None


def test_monotone_check_flags_step():
    pairs = [(1.0, 0.0)]
    ts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    rep = check_time_monotone(step_pair(1.0), pairs, ts)
    assert not rep.monotone
    x, y, t0, t1, w0, w1 = rep.witness
    assert (x, y) == (1.0, 0.0)
    assert w1 < w0  # the jump down onto the support of W
    assert t1 == pytest.approx(0.5)


def test_sufficient_condition_modes():
    rep = sufficient_condition_report(harmonic(), nelson_pair(1.0), mode="monotone")
    assert rep.holds and math.isinf(rep.margin)
    assert rep.threshold == pytest.approx(12 * math.pi, rel=1e-9)

    rep = sufficient_condition_report(harmonic(), nelson_pair(1.0), mode="finite_interaction")
    assert rep.holds
    assert rep.threshold == pytest.approx(8 * math.pi, rel=1e-9)

    # alpha = 0 cannot beat a positive threshold
    rep = sufficient_condition_report(box_zero(), nelson_pair(1.0), mode="monotone")
    assert not rep.holds and rep.margin < 0

    # non-monotone pair potential is rejected by the monotone route
    rep = sufficient_condition_report(harmonic(), step_pair(1.0), mode="monotone")
    assert not rep.holds and "monotone" in rep.note

    # divergent budget never holds, even against alpha = inf
    rep = sufficient_condition_report(harmonic(), constant_pair(1.0), mode="monotone")
    assert not rep.holds and "diverges" in rep.note

    # a vanishing pair potential holds for every admissible site potential
    for v in (harmonic(), box_zero(), coulomb_3d()):
        rep = sufficient_condition_report(v, zero_pair(), mode="monotone")
        assert rep.holds and rep.margin == v.effective_alpha

    with pytest.raises(ValueError):
        sufficient_condition_report(harmonic(), nelson_pair(1.0), mode="bogus")


def test_budget_scales_linearly_in_coupling():
    assert interaction_budget(nelson_pair(2.0)) == pytest.approx(2 * math.pi, abs=2e-8)


def test_shifted_alpha_enters_condition():
    v = harmonic(shift=-0.5)
    assert v.effective_alpha == math.inf
    v2 = replace(box_zero(), shift=50.0)
    rep = sufficient_condition_report(v2, nelson_pair(1.0), mode="monotone")
    assert rep.holds
    assert rep.alpha == pytest.approx(50.0)


def half_lines(T):
    """[-T, 0] x [0, T]: the coupling of the two half lines."""
    return Region(f"half_lines(T={T})", ((1.0, (-T, 0.0), (0.0, T)),))


def split_interaction(w, path, T):
    return abs(interaction_energy(w, path, half_lines(T)))


def test_split_interaction_constant_pair():
    tg = TimeGrid(2.0, 0.25)
    p = Path(tg, np.zeros(tg.n_times))
    # constant integrand integrates to value * T^2 exactly under trapezoid
    assert split_interaction(constant_pair(-3.0), p, 2.0) == pytest.approx(12.0)
    assert split_interaction(constant_pair(-3.0), p, 1.0) == pytest.approx(3.0)
    assert split_interaction(zero_pair(), p, 2.0) == 0.0
    with pytest.raises(ValueError):
        split_interaction(zero_pair(), p, 5.0)


def test_split_interaction_bounded_by_budget_times_side():
    # |int_{-T}^0 int_0^T W| <= budget * T for any path
    w = nelson_pair(1.0)
    rng = np.random.default_rng(7)
    tg = TimeGrid(1.0, 0.125)
    paths = [Path(tg, rng.normal(size=tg.n_times)) for _ in range(20)]
    assert half_lines(1.0).envelope_bound(w) == pytest.approx(math.pi * 1.0)
    assert max(split_interaction(w, p, 1.0) for p in paths) <= math.pi * 1.0


def test_split_interaction_grows_for_step_on_linear_path():
    # along x_t = t the step potential couples the half lines at every lag,
    # so the split interaction must grow with the window
    w = step_pair(1.0)
    vals = []
    for T in (2.0, 4.0, 8.0):
        tg = TimeGrid(T, 0.125)
        p = Path(tg, tg.times.copy())
        vals.append(split_interaction(w, p, T))
    assert vals[0] < vals[1] < vals[2]
