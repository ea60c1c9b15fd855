import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathgibbs.grids import Path, SpaceGrid, TimeGrid, radial_grid


def test_space_grid_nodes_and_spacing():
    g = SpaceGrid(-2.0, 2.0, 5)
    assert g.h == pytest.approx(1.0)
    assert np.allclose(g.x, [-2, -1, 0, 1, 2])
    assert g.index_of(1.0) == 3
    with pytest.raises(ValueError):
        g.index_of(0.3)


def test_space_grid_validation():
    with pytest.raises(ValueError):
        SpaceGrid(1.0, -1.0, 5)
    with pytest.raises(ValueError):
        SpaceGrid(0.0, 1.0, 2)


def test_nearest_index_clips_to_range():
    g = SpaceGrid(0.0, 1.0, 11)
    assert g.nearest_index(0.34) == 3
    assert np.all(g.nearest_index([-5.0, 5.0]) == [0, 10])


def test_grids_compare_by_defining_fields():
    assert TimeGrid(1.0, 0.5) == TimeGrid(1.0, 0.5)
    assert TimeGrid(1.0, 0.5) != TimeGrid(1.5, 0.5)
    assert TimeGrid(1.0, 0.5) != TimeGrid(1.0, 0.25)
    assert SpaceGrid(-2.0, 2.0, 5) == SpaceGrid(-2.0, 2.0, 5)
    assert SpaceGrid(-2.0, 2.0, 5) != SpaceGrid(-3.0, 3.0, 5)
    assert SpaceGrid(-2.0, 2.0, 5) != SpaceGrid(-2.0, 2.0, 7)


def test_radial_grid_excludes_origin():
    g = radial_grid(4.0, 8)
    assert g.x[0] == pytest.approx(0.5)
    assert g.x[-1] == pytest.approx(4.0)
    assert g.h == pytest.approx(0.5)


def test_time_grid_layout():
    tg = TimeGrid(2.0, 0.5)
    assert tg.n == 4
    assert tg.n_times == 9
    assert tg.times[0] == -2.0 and tg.times[-1] == 2.0
    assert tg.index_of_time(0.0) == 4
    with pytest.raises(ValueError):
        tg.index_of_time(0.3)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.3)


@given(st.integers(min_value=1, max_value=40), st.sampled_from([0.1, 0.25, 0.5, 1.0]))
def test_time_grid_weights_integrate_constants(n, dt):
    tg = TimeGrid(n * dt, dt)
    assert np.sum(tg.interval_weights(-tg.T, tg.T)) == pytest.approx(2 * n * dt)


def test_interval_weights_cover_subwindow():
    tg = TimeGrid(2.0, 0.25)
    w = tg.interval_weights(-1.0, 0.5)
    assert np.sum(w) == pytest.approx(1.5)
    assert w[tg.index_of_time(-2.0)] == 0.0
    assert w[tg.index_of_time(-1.0)] == pytest.approx(0.125)
    assert w[tg.index_of_time(0.0)] == pytest.approx(0.25)
    # degenerate window carries no weight
    assert np.sum(tg.interval_weights(0.5, 0.5)) == 0.0


def test_path_validation():
    tg = TimeGrid(1.0, 0.5)
    p = Path(tg, [0.0, 1.0, 2.0, 1.0, 0.0])
    assert p.positions[tg.index_of_time(0.5)] == 1.0
    with pytest.raises(ValueError):
        Path(tg, [0.0, 1.0])
    with pytest.raises(ValueError):
        Path(tg, [0.0, np.nan, 0.0, 0.0, 0.0])
