"""The three benchmark workloads and the recorder they report through.

Each workload drives the public functions of pathgibbs in the order the
matching CLI handlers call them, at fixed sizes, with every random seed
derived from the benchmark seed.  One call of a workload function is one
iteration: it builds its models, samples, and evaluates its checks.

The recorder times every call a workload makes into the package.  When
tracing, it also records those calls as spans, wraps the methods of the
instances the workload builds (`PairPotential.evaluate`, `HeatKernel.power`,
`SpaceGrid.nearest_index`) and the cross-module calls the diagnostics make
into the sampler and reference modules, so each layer's time is measured
from outside the package.
"""

import hashlib
import math
from contextlib import ExitStack
from time import perf_counter

import numpy as np

from pathgibbs import diagnostics
from pathgibbs.diagnostics import (hitting_time_moment, path_growth_check, ratio_bound_check,
                                   tightness_profile, window_convergence_exact,
                                   window_convergence_mc)
from pathgibbs.energy import (SquareRegion, StripRegion, check_shift_inequality,
                              doubled_energy, fold_path, interaction_energy)
from pathgibbs.grids import SpaceGrid, TimeGrid
from pathgibbs.potentials import (check_time_monotone, constant_pair, harmonic,
                                  interaction_budget, nelson_pair, step_pair, zero_pair)
from pathgibbs.reference import sample_paths, stationary_weights, transfer_matrix
from pathgibbs.sampler import (ChainConfig, GibbsSpec, Smeared, brute_force_measure,
                               empirical_node_marginals, run_ensemble,
                               window_conditional_exact)
from pathgibbs.spectral import default_grid, ground_state, heat_kernel
from pathgibbs.stats import ks_statistic_atomic, total_variation

from spans import Tracer, patched

# Sizes.  Space and time grids are the paper's; sweep and path counts are
# set so one iteration takes a few seconds and a run holds several.
TIGHTNESS_SWEEPS, TIGHTNESS_BURNIN = 160, 40
ORACLE_SWEEPS, ORACLE_BURNIN = 900, 100            # criterion-05 instance, 100 chains
WINDOW_MC_SWEEPS, WINDOW_MC_BURNIN = 600, 100      # window ladder, 32 chains
KS_PATHS, GROWTH_PATHS, HIT_PATHS = 200_000, 8000, 2000
ENERGY_PATHS, SHIFT_PATHS = 200, 2000


class Recorder:
    """Timings, counts, checks and (when traced) spans of one iteration."""

    def __init__(self, traced: bool, run_id: int):
        self.tracer = Tracer(run_id) if traced else None
        self.setup_s = 0.0
        self.chain_runs = []     # (space nodes, n_t, chains, burnin+sweeps, seconds, result)
        self.path_draws = []     # (paths, n_t, seconds)
        self.enumerated = 0
        self.checks = []         # (name, passed, detail)
        self.flags = []          # statistical outcomes, reported not gated
        self.numbers = []        # numeric results, hashed for the determinism check

    # -- timing and spans -------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        sid = self.tracer.begin(name) if self.tracer else None
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs), perf_counter() - t0
        finally:
            if sid is not None:
                self.tracer.finish(sid)

    def call(self, name, fn, *args, setup=False, **kwargs):
        """Call `fn`, recording it as span `name`; `setup` adds it to setup_s."""
        result, seconds = self._timed(name, fn, args, kwargs)
        if setup:
            self.setup_s += seconds
        return result

    def instrument(self, obj, method: str, name: str):
        """Record every call of one instance's method as span `name`."""
        if self.tracer:
            setattr(obj, method, self.tracer.wrap(name, getattr(obj, method)))
        return obj

    def boundaries(self) -> ExitStack:
        """Route the diagnostics' calls into sampler and reference through here."""
        stack = ExitStack()
        stack.enter_context(patched(diagnostics, "run_ensemble", self.run_ensemble))
        stack.enter_context(patched(diagnostics, "brute_force_measure", self.brute_force_measure))
        stack.enter_context(patched(diagnostics, "transfer_matrix", self.transfer_matrix))
        return stack

    # -- calls whose work the metrics count -------------------------------

    def run_ensemble(self, spec, config, record_indices=None):
        result, seconds = self._timed("sampler.run_ensemble", run_ensemble,
                                      (spec, config, record_indices), {})
        self.chain_runs.append((spec.grid.points, spec.timegrid.n_times, config.n_chains,
                                config.burnin + config.sweeps, seconds, result))
        return result

    def brute_force_measure(self, spec, setup=False):
        table, seconds = self._timed("sampler.brute_force_measure", brute_force_measure,
                                     (spec,), {})
        self.enumerated += table.configs.shape[0]
        if setup:
            self.setup_s += seconds
        return table

    def transfer_matrix(self, gs, kernel):
        return self.call("reference.transfer_matrix", transfer_matrix, gs, kernel)

    def sample_paths(self, gs, kernel, timegrid, n_paths, seed, mode):
        ens, seconds = self._timed("reference.sample_paths", sample_paths,
                                   (gs, kernel, timegrid, n_paths, seed, mode), {})
        self.path_draws.append((n_paths, timegrid.n_times, seconds))
        return ens

    # -- outcomes ---------------------------------------------------------

    def check(self, name: str, passed, detail: str = ""):
        self.checks.append((name, bool(passed), detail))

    def flag(self, name: str, passed, detail: str = ""):
        self.flags.append((name, bool(passed), detail))

    def keep(self, *values):
        for v in values:
            self.numbers.append(np.asarray(v, dtype=float).ravel())

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in self.numbers:
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _model(rec: Recorder, grid: SpaceGrid, dt: float):
    """Ground state and kernel on an instrumented grid (setup work)."""
    rec.instrument(grid, "nearest_index", "grids.nearest_index")
    gs = rec.call("spectral.ground_state", ground_state, harmonic(), grid, setup=True)
    kernel = rec.call("spectral.heat_kernel", heat_kernel, gs, dt, setup=True)
    rec.instrument(kernel, "power", "spectral.power")
    return gs, kernel


def _pair(rec: Recorder, w):
    return rec.instrument(w, "evaluate", "potentials.evaluate")


def _kernel_checks(rec: Recorder, gs, kernel, label: str):
    """Criterion 02: Chapman-Kolmogorov and eigen residuals at 1e-8."""
    def residuals():
        k = kernel.matrix
        return (float(np.max(np.abs(k @ k - kernel.at(2.0 * kernel.dt)))),
                float(np.max(np.abs(k @ gs.psi - gs.psi))))
    ck, eigen = rec.call("check.kernel_residuals", residuals)
    rec.check(f"ck-residual-{label}", ck <= 1e-8, f"{ck:.3e}")
    rec.check(f"eigen-residual-{label}", eigen <= 1e-8, f"{eigen:.3e}")
    rec.keep(ck, eigen)


# ---------------------------------------------------------------------------


def tightness(rec: Recorder, seed: int):
    """`diagnose` tightness report at paper scale (M = 801, n_t = 9, 17, 33)."""
    gs, kernel = _model(rec, default_grid(), 0.5)
    w = _pair(rec, nelson_pair(0.5))
    config = ChainConfig(sweeps=TIGHTNESS_SWEEPS, burnin=TIGHTNESS_BURNIN, block_len=3,
                         seed=seed * 100 + 9, n_chains=32, mode="interp")
    report = rec.call("diagnostics.tightness_profile", tightness_profile, gs, kernel, w,
                      [2.0, 4.0, 8.0], [1.0, 2.0, 3.0], config)
    rec.flag("tightness-no-upward-trend", report.trend_pvalue >= 0.05,
             f"p={report.trend_pvalue:.3f}")
    rec.flag("tightness-domination", report.domination_holds)
    rec.keep([c.p_hat for c in report.cells], report.k_hat, report.trend_pvalue)
    _kernel_checks(rec, gs, kernel, "dt0.5")


def oracle(rec: Recorder, seed: int):
    """Exact-oracle comparisons at oracle sizes, all in grid mode."""
    # the enumeration at the size cap: 9 nodes, n_t 7, 9^7 configurations
    gs9, k9 = _model(rec, SpaceGrid(-2.0, 2.0, 9), 0.5)
    w9 = _pair(rec, nelson_pair(0.5))
    spec9 = GibbsSpec(gs9, k9, w9, TimeGrid(1.5, 0.5), Smeared())
    table = rec.brute_force_measure(spec9, setup=True)
    mass = rec.call("check.enumeration_mass", lambda: float(table.probs.sum()))
    rec.check("enumeration-normalized", abs(mass - 1.0) <= 1e-9, f"|sum-1|={abs(mass - 1.0):.2e}")
    rec.keep(table.log_z)
    del table

    gs, kernel = _model(rec, SpaceGrid(-2.0, 2.0, 5), 0.5)
    w = _pair(rec, nelson_pair(0.5))

    # dlr-test on the n_t 7 instance (criterion 06)
    spec7 = GibbsSpec(gs, kernel, w, TimeGrid(1.5, 0.5), Smeared())
    table7 = rec.brute_force_measure(spec7, setup=True)
    outside = table7.configs[int(np.argmax(table7.probs))].astype(np.int64)
    cond = rec.call("sampler.window_conditional_exact", window_conditional_exact,
                    spec7, 1.0, outside, setup=True)

    def dlr():
        brute = table7.conditional_window(cond.window_indices, outside).reshape(-1)
        probs = cond.probs.reshape(-1)
        bridge = cond.bridge_probs.reshape(-1)
        live = (probs > 0) & (bridge > 0)
        log_ratio = np.abs(np.log(probs[live]) - np.log(bridge[live]))
        envelope_ok = bool(np.all(log_ratio <= 2.0 * cond.frame_bound + 1e-9))
        return total_variation(probs, brute), envelope_ok
    tv, envelope_ok = rec.call("check.dlr", dlr)
    rec.check("dlr-tv", tv < 1e-10, f"tv={tv:.3e}")
    rec.check("bridge-envelope", envelope_ok)
    rec.keep(tv)

    # exact window ladder (criterion 11, exact half)
    ladder = [0.5, 1.0, 1.5]
    exact = rec.call("diagnostics.window_convergence_exact", window_convergence_exact,
                     gs, kernel, w, ladder, 0.5, setup=True)
    rec.check("window-exact-decreasing", exact.strictly_decreasing)
    rec.keep([d.tv for d in exact.distances])

    # oracle-compare on the criterion-05 instance
    spec5 = GibbsSpec(gs, kernel, w, TimeGrid(1.0, 0.5), Smeared())
    table5 = rec.brute_force_measure(spec5, setup=True)
    config = ChainConfig(sweeps=ORACLE_SWEEPS, burnin=ORACLE_BURNIN, block_len=3,
                         seed=seed * 100 + 5, n_chains=100, mode="grid")
    result = rec.run_ensemble(spec5, config)
    empirical = rec.call("sampler.empirical_node_marginals", empirical_node_marginals,
                         result, gs.grid)

    def marginal_tvs():
        return [total_variation(empirical[row], table5.marginal(int(t)))
                for row, t in enumerate(result.record_indices)]
    tvs = rec.call("check.marginal_tv", marginal_tvs)
    rec.check("marginal-tv", max(tvs) < 0.02, f"max tv={max(tvs):.5f}")
    rec.keep(tvs, result.accept_single, result.accept_block)

    # sampled window ladder (criterion 11, MC half)
    config = ChainConfig(sweeps=WINDOW_MC_SWEEPS, burnin=WINDOW_MC_BURNIN, block_len=2,
                         seed=seed * 100 + 11, n_chains=32, mode="grid")
    mc = rec.call("diagnostics.window_convergence_mc", window_convergence_mc,
                  gs, kernel, w, ladder, 0.5, config)
    rec.flag("window-mc-nonincreasing", mc.nonincreasing_within_ci)
    rec.keep([(d.tv, d.stderr) for d in mc.distances])


def reference_mc(rec: Recorder, seed: int):
    """Monte Carlo on the stationary reference chain; never enters the sampler."""
    gs, k05 = _model(rec, default_grid(), 0.5)
    k025 = rec.call("spectral.heat_kernel", heat_kernel, gs, 0.25, setup=True)
    rec.instrument(k025, "power", "spectral.power")

    # stationary-ensemble KS (criterion 04)
    ens = rec.sample_paths(gs, k05, TimeGrid(0.5, 0.5), KS_PATHS, seed * 100 + 4, "grid")
    ks = rec.call("check.stationary_ks", lambda: ks_statistic_atomic(
        ens.positions[:, 1], gs.grid.x, stationary_weights(gs)))
    rec.check("stationary-ks", ks < 0.01, f"ks={ks:.5f}")
    rec.keep(ks)
    del ens

    # energy identities (criterion 07), in energy-check order
    w1 = _pair(rec, nelson_pair(1.0))
    const = _pair(rec, constant_pair(0.3))
    T, S = 2.0, 0.5
    ens = rec.sample_paths(gs, k025, TimeGrid(T, 0.25), ENERGY_PATHS, seed * 100 + 7, "interp")
    square, strip = SquareRegion(T), StripRegion(S, T)
    bound = rec.call("energy.envelope_bound", strip.envelope_bound, w1)
    fold_gap = const_gap = worst_strip = 0.0
    for i in range(ENERGY_PATHS):
        path = ens.path(i)
        folded = rec.call("energy.fold_path", fold_path, path)
        doubled = rec.call("energy.doubled_energy", doubled_energy, w1, folded, T)
        direct = rec.call("energy.interaction_energy", interaction_energy, w1, path, square)
        fold_gap = max(fold_gap, abs(doubled - direct))
        h_const = rec.call("energy.interaction_energy", interaction_energy, const, path, square)
        const_gap = max(const_gap, abs(h_const + 0.3 * (2.0 * T) ** 2))
        h_strip = rec.call("energy.interaction_energy", interaction_energy, w1, path, strip)
        worst_strip = max(worst_strip, abs(h_strip))
    rec.check("fold-identity", fold_gap <= 1e-9, f"gap={fold_gap:.3e}")
    rec.check("constant-identity", const_gap <= 1e-10, f"gap={const_gap:.3e}")
    rec.check("strip-bound", worst_strip <= bound + 1e-12,
              f"worst={worst_strip:.4f} bound={bound:.4f}")
    rec.keep(fold_gap, const_gap, worst_strip)

    # condition machinery and the shift inequality (criterion 08)
    budget = rec.call("potentials.interaction_budget", interaction_budget, w1)
    rec.check("interaction-budget", abs(budget - math.pi) <= 1e-8, f"{budget:.10f}")
    xs = np.linspace(-3.0, 3.0, 7)
    pairs = [(a, b) for a in xs for b in xs]
    ts = np.linspace(0.0, 5.0, 26)
    mono = rec.call("potentials.check_time_monotone", check_time_monotone, w1, pairs, ts)
    step = rec.call("potentials.check_time_monotone", check_time_monotone,
                    _pair(rec, step_pair(1.0)), pairs, ts)
    rec.check("monotone-detector", mono.monotone and not step.monotone)
    w05 = _pair(rec, nelson_pair(0.5))
    ens = rec.sample_paths(gs, k025, TimeGrid(3.0, 0.25), SHIFT_PATHS, seed * 100 + 8, "interp")
    shift = rec.call("energy.check_shift_inequality", check_shift_inequality, w05,
                     [ens.path(i) for i in range(SHIFT_PATHS)], 2.0, [0.25, 0.5, 1.0])
    rec.check("shift-inequality", shift.holds and shift.c_star >= 0.0 and shift.d_star >= 0.0,
              f"c*={shift.c_star:.4f} d*={shift.d_star:.4f}")
    rec.keep(shift.worst_gap_per_tau, shift.c_star, shift.d_star)
    del ens

    # diagnose: hitting moment at dt 0.25 (criterion 10)
    zero_rate = rec.call("diagnostics.hitting_time_moment", hitting_time_moment,
                         gs, k025, (2.0, 2.0), growth_rate=0.0, horizon=10.0, n_paths=10,
                         seed=seed * 100 + 10)
    rec.check("hitting-zero-rate-exact", zero_rate.estimate == 1.0)
    hit = rec.call("diagnostics.hitting_time_moment", hitting_time_moment,
                   gs, k025, (2.0, 2.0), growth_rate=0.2, horizon=30.0, n_paths=HIT_PATHS,
                   seed=seed * 100 + 3)
    rec.flag("hitting-certified", hit.certified,
             f"estimate={hit.estimate:.4f} rhs={hit.rhs_bound:.4f}")
    rec.keep(hit.estimate, hit.stderr, hit.hit_fraction)

    # diagnose: doubled-moment ratio ladder (5 nodes, dt 1, T = 1, 2, 3)
    gso, k1 = _model(rec, SpaceGrid(-2.0, 2.0, 5), 1.0)
    for name, pair in (("zero", zero_pair()), ("constant", constant_pair(0.4))):
        trivial = rec.call("diagnostics.ratio_bound_check", ratio_bound_check,
                           gso, k1, _pair(rec, pair), [1.0, 2.0, 3.0], radius=1.5)
        rec.check(f"ratio-trivial-{name}", trivial.m_hats == (1.0, 1.0, 1.0))
    ratio = rec.call("diagnostics.ratio_bound_check", ratio_bound_check,
                     gso, k1, w05, [1.0, 2.0, 3.0], radius=1.5)
    rec.flag("ratio-bounded", ratio.bounded, f"m_hats={[round(v, 6) for v in ratio.m_hats]}")
    rec.keep(ratio.m_hats, ratio.k_hat)

    # diagnose: growth envelope with tail summability (criterion 12)
    ens = rec.sample_paths(gs, k05, TimeGrid(16.0, 0.5), GROWTH_PATHS, seed * 100 + 12, "grid")
    growth = rec.call("diagnostics.path_growth_check", path_growth_check, ens, gs, 3.0)
    rec.flag("growth-exceedance-consistent", growth.all_consistent)
    rec.check("growth-tails-summable",
              growth.summability.summable and growth.gamma > 1.0 / growth.fit.beta,
              f"slope={growth.summability.slope:.3f}")
    rec.keep([(r.p_hat, r.ci_low, r.ci_high, r.exact) for r in growth.rows])

    _kernel_checks(rec, gs, k05, "dt0.5")
    _kernel_checks(rec, gs, k025, "dt0.25")


WORKLOADS = {"tightness": tightness, "oracle": oracle, "reference_mc": reference_mc}
