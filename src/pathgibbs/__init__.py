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
