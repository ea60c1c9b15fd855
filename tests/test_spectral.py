import math

import numpy as np
import pytest

from pathgibbs.grids import SpaceGrid, radial_grid
from pathgibbs.potentials import box_zero, coulomb_3d, harmonic
from pathgibbs.spectral import (
    KERNEL_FLOOR,
    build_hamiltonian,
    default_grid,
    ground_state,
    ground_state_radial,
    heat_kernel,
)


@pytest.fixture(scope="module")
def harmonic_gs():
    return ground_state(harmonic(), default_grid())


@pytest.fixture(scope="module")
def harmonic_kernel(harmonic_gs):
    return heat_kernel(harmonic_gs, 0.1)


def test_stencil_values():
    op = build_hamiltonian(box_zero(), SpaceGrid(-1.0, 1.0, 3))
    assert np.allclose(op.diag, [1.0, 1.0, 1.0])
    assert np.allclose(op.off, [-0.5, -0.5])
    g = default_grid()
    op = build_hamiltonian(harmonic(), g)
    assert np.allclose(op.diag, 1.0 / g.h**2 + 0.5 * g.x**2)


def test_three_dim_potential_rejected():
    with pytest.raises(ValueError):
        build_hamiltonian(coulomb_3d(), default_grid())


def test_nonfinite_potential_reported():
    with pytest.raises(ValueError, match="not finite at grid point"):
        build_hamiltonian(harmonic(shift=math.inf), SpaceGrid(-8.0, 8.0, 5))


def test_harmonic_ground_state(harmonic_gs):
    gs = harmonic_gs
    assert gs.energy == pytest.approx(0.5, abs=1e-3)
    assert gs.psi[gs.grid.index_of(0.0)] == pytest.approx(math.pi**-0.25, abs=5e-3)
    assert np.min(gs.psi) > 0
    assert np.sum(gs.psi**2) * gs.grid.h == pytest.approx(1.0, abs=1e-10)
    assert gs.residual() < 1e-8
    # sup-norm match with the exact Gaussian on the bulk of the box
    mask = np.abs(gs.grid.x) <= 4.0
    exact = math.pi**-0.25 * np.exp(-gs.grid.x[mask] ** 2 / 2)
    assert np.max(np.abs(gs.psi[mask] - exact)) < 1e-3


def test_box_ground_state_energy():
    gs = ground_state(box_zero(), default_grid())
    assert gs.energy == pytest.approx(math.pi**2 / 512, abs=1e-4)


def test_spectral_shift_is_additive(harmonic_gs):
    gs = ground_state(harmonic(shift=1.0), default_grid())
    assert gs.energy == pytest.approx(harmonic_gs.energy + 1.0, abs=1e-10)
    assert np.max(np.abs(gs.psi - harmonic_gs.psi)) < 1e-9


def test_energy_monotone_in_potential(harmonic_gs):
    lowered = ground_state(harmonic(shift=-1.0), default_grid())
    assert lowered.energy < harmonic_gs.energy


def test_hydrogen_radial():
    gs = ground_state_radial(coulomb_3d(), radial_grid(40.0, 4000))
    assert gs.radial
    assert gs.energy == pytest.approx(-0.5, abs=1e-3)
    assert np.min(gs.psi) > 0


def test_radial_box_and_oscillator():
    gs = ground_state_radial(box_zero(), radial_grid(8.0, 1600))
    assert gs.energy == pytest.approx(math.pi**2 / 128, abs=5e-4)
    from pathgibbs.potentials import SitePotential

    # box kept tight: the profile underflows past r ~ 8 and positivity
    # of the computed eigenvector would be lost to rounding noise
    iso = SitePotential("harmonic", dim=3, alpha=math.inf)
    gs = ground_state_radial(iso, radial_grid(7.0, 1400))
    assert gs.energy == pytest.approx(1.5, abs=1e-3)


def test_kernel_invariants(harmonic_gs, harmonic_kernel):
    K = harmonic_kernel.matrix
    assert np.max(np.abs(K - K.T)) <= 1e-10 * np.max(np.abs(K))
    assert K.min() >= 0.0
    assert np.max(np.abs(K @ harmonic_gs.psi - harmonic_gs.psi)) <= 1e-8


def test_chapman_kolmogorov(harmonic_gs, harmonic_kernel):
    K2 = heat_kernel(harmonic_gs, 0.2)
    assert np.max(np.abs(harmonic_kernel.matrix @ harmonic_kernel.matrix - K2.matrix)) <= 1e-8
    # powers agree with repeated composition
    assert np.max(np.abs(harmonic_kernel.power(2) - K2.matrix)) <= 1e-10


def test_kernel_entrywise_relative_semigroup(harmonic_gs):
    # K(0.3) K(0.2) = K(0.5) in relative terms on every entry above the
    # floor, the rows at the box walls included
    k05 = heat_kernel(harmonic_gs, 0.5).matrix
    composed = heat_kernel(harmonic_gs, 0.3).matrix @ heat_kernel(harmonic_gs, 0.2).matrix
    assert k05.min() > 0.0
    live = k05 >= KERNEL_FLOOR
    assert live[0].all() and live[-1].all()
    assert np.max(np.abs(composed[live] / k05[live] - 1.0)) <= 1e-10


def test_long_time_projector(harmonic_gs):
    K = heat_kernel(harmonic_gs, 50.0)
    h = harmonic_gs.grid.h
    proj = np.outer(harmonic_gs.psi, harmonic_gs.psi)
    assert np.max(np.abs(K.matrix / h - proj)) <= 1e-6


def test_row_sums_bounded(harmonic_gs, harmonic_kernel):
    # Feynman-Kac bound: row mass <= exp(-dt * min shifted potential)
    v_shifted = harmonic_gs.v_grid - harmonic_gs.energy
    bound = math.exp(-harmonic_kernel.dt * v_shifted.min())
    assert harmonic_kernel.matrix.sum(axis=1).max() <= bound + 1e-12
