"""Finite-volume Gibbs measures on path space relative to a reference diffusion.

Layout:
    grids        space/time grids and the Path container
    potentials   catalog of site potentials V and pair potentials W
    spectral     tridiagonal Schroedinger solve and heat kernels
    reference    stationary reference process: densities, sampling, checks
    energy       the pair quadrature over one Region type, shifts, doubling
    sampler      path-space Metropolis-within-Gibbs and exact small oracles
    diagnostics  tightness, window convergence, hitting/ratio/growth checks
    cli          command-line entry points producing JSON summaries
"""

from .grids import Path, SpaceGrid, TimeGrid, radial_grid
from .potentials import (
    PairPotential,
    SitePotential,
    box_zero,
    constant_pair,
    coulomb_3d,
    harmonic,
    interaction_budget,
    nelson_pair,
    step_pair,
    sufficient_condition_report,
    zero_pair,
)
from .spectral import (
    GroundState,
    HeatKernel,
    default_grid,
    ground_state,
    ground_state_radial,
    heat_kernel,
)
from .reference import (
    PathEnsemble,
    sample_bridge,
    sample_paths,
    stationary_weights,
    transfer_matrix,
    transition_density,
)
from .energy import (
    FrameRegion,
    Region,
    SquareRegion,
    StripRegion,
    check_shift_inequality,
    doubled_energy,
    fold_path,
    interaction_energy,
)
from .sampler import (
    ChainConfig,
    GibbsSpec,
    Pinned,
    Smeared,
    brute_force_measure,
    run_ensemble,
    window_conditional_exact,
)
from .diagnostics import (
    hitting_time_moment,
    path_growth_check,
    psi_decay_fit,
    psi_tail,
    ratio_bound_check,
    tail_summability,
    tightness_profile,
    window_convergence_exact,
    window_convergence_mc,
)

__all__ = [
    "Path",
    "SpaceGrid",
    "TimeGrid",
    "radial_grid",
    "PairPotential",
    "SitePotential",
    "box_zero",
    "constant_pair",
    "coulomb_3d",
    "harmonic",
    "interaction_budget",
    "nelson_pair",
    "step_pair",
    "sufficient_condition_report",
    "zero_pair",
    "GroundState",
    "HeatKernel",
    "default_grid",
    "ground_state",
    "ground_state_radial",
    "heat_kernel",
    "PathEnsemble",
    "sample_bridge",
    "sample_paths",
    "stationary_weights",
    "transfer_matrix",
    "transition_density",
    "FrameRegion",
    "Region",
    "SquareRegion",
    "StripRegion",
    "check_shift_inequality",
    "doubled_energy",
    "fold_path",
    "interaction_energy",
    "ChainConfig",
    "GibbsSpec",
    "Pinned",
    "Smeared",
    "brute_force_measure",
    "run_ensemble",
    "window_conditional_exact",
    "hitting_time_moment",
    "path_growth_check",
    "psi_decay_fit",
    "psi_tail",
    "ratio_bound_check",
    "tail_summability",
    "tightness_profile",
    "window_convergence_exact",
    "window_convergence_mc",
]

__version__ = "0.1.0"
