"""Config-driven experiment runner with reproducible JSON outputs.

Every subcommand reads one JSON config, resolves defaults, runs a pipeline,
and writes a summary whose embedded "config" block records every resolved
value.  Identical config and seed give byte-identical numeric output; no
timestamps or host details are written.  --strict turns the summary's check
list into the exit code for CI use.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path as FilePath

import numpy as np

from .grids import SpaceGrid, TimeGrid, radial_grid
from .potentials import (harmonic, box_zero, coulomb_3d, zero_pair, constant_pair,
                         nelson_pair, step_pair, interaction_budget,
                         check_time_monotone, sufficient_condition_report)
from .spectral import ground_state, ground_state_radial, heat_kernel
from .reference import sample_paths, stationary_weights
from .energy import SquareRegion, StripRegion, fold_path, doubled_energy, region_action
from .stats import ks_statistic_atomic, total_variation
from .sampler import (GibbsSpec, ChainConfig, Smeared, Pinned, run_ensemble,
                      brute_force_measure, window_conditional_exact,
                      empirical_node_marginals, write_snapshots_jsonl,
                      check_enumerable)
from .diagnostics import (tightness_profile, window_convergence_exact,
                          window_convergence_mc, hitting_time_moment,
                          ratio_bound_check, path_growth_check, psi_tail, TightnessCell)

SITES = {"harmonic": harmonic, "box_zero": box_zero, "coulomb3d": coulomb_3d}
# each pair constructor reads the config's model section
PAIRS = {
    "zero": lambda model: zero_pair(),
    "constant": lambda model: constant_pair(model["constant"]),
    "nelson": lambda model: nelson_pair(model["coupling"]),
    "step": lambda model: step_pair(model["coupling"]),
}

DEFAULTS = {
    "model": {
        "v": "harmonic",
        "w": "zero",
        "coupling": 1.0,     # pair strength for nelson / step
        "constant": 0.0,     # pair value when w = constant
        "dim": 1,
        "pin": None,         # [left, right] endpoint values, or null for smeared
    },
    "grid": {
        "lower": -8.0,
        "upper": 8.0,
        "points": 801,
        "dt": 0.5,
        "t_half": 2.0,
        "s_half": 0.5,
        "radial_rmax": 40.0,
        "radial_points": 4000,
    },
    "run": {
        "seed": None,        # mandatory
        "sweeps": 1000,
        "burnin": 100,
        "block_len": 5,
        "chains": 8,
        "mode": "interp",
        "record_every": 1,
    },
    "diagnostics": {
        "reports": ["tightness"],
        "t_ladder": [1.0, 2.0],
        "r_list": [1.0, 2.0],
        "growth_gamma": 3.0,
        "growth_t": 16.0,
        "growth_paths": 2000,
        "hit_rate": 0.2,
        "hit_start": [2.0, 2.0],
        "hit_horizon": 30.0,
        "hit_paths": 2000,
        "ratio_radius": 1.5,
    },
    "output": {
        "directory": "pathgibbs-out",
        "formats": ["json"],
    },
}


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


# ---------------------------------------------------------------------------
# config loading and validation


# smallest accepted value of each count field
MINIMUMS = {"grid.points": 3, "grid.radial_points": 3, "run.sweeps": 1, "run.burnin": 0,
            "run.block_len": 1, "run.chains": 1, "run.record_every": 1,
            "diagnostics.growth_paths": 1, "diagnostics.hit_paths": 2}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_number(value) -> bool:
    """An int or float within the finite floats; booleans are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _typed(default, value, here: str):
    """The user's value checked against the type of its default: an int
    default takes an integer (an integral float becomes it), a float default
    a finite number, a list of floats a non-empty list of finite numbers."""
    if isinstance(default, (int, float)):
        _require(_is_number(value), f"{here}: expected a finite number")
        if isinstance(default, int):
            _require(isinstance(value, int) or value.is_integer(),
                     f"{here}: expected an integer")
            if here in MINIMUMS:
                _require(value >= MINIMUMS[here], f"{here}: expected at least {MINIMUMS[here]}")
        return type(default)(value)
    if isinstance(default, list) and isinstance(default[0], float):
        _require(isinstance(value, list) and len(value) > 0 and all(map(_is_number, value)),
                 f"{here}: expected a non-empty list of finite numbers")
        return [float(v) for v in value]
    return value


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    prefix = f"{path}." if path else ""
    for key in user:
        _require(key in defaults, f"{prefix}{key}: unknown config field")
    out = {}
    for key, default in defaults.items():
        here = prefix + key
        if key not in user:
            out[key] = default
        elif isinstance(default, dict):
            _require(isinstance(user[key], dict), f"{here}: expected an object")
            out[key] = _merge(default, user[key], here)
        else:
            out[key] = _typed(default, user[key], here)
    return out


def validate_config(user: dict) -> dict:
    """Resolve defaults and validate; raises ConfigError with a field path."""
    _require(isinstance(user, dict), "config root: expected an object")
    cfg = _merge(DEFAULTS, user)

    _require(cfg["model"]["v"] in SITES,
             f"model.v: unknown potential {cfg['model']['v']!r}; "
             f"choose one of {', '.join(SITES)}")
    _require(cfg["model"]["w"] in PAIRS,
             f"model.w: unknown pair potential {cfg['model']['w']!r}; "
             f"choose one of {', '.join(PAIRS)}")
    _require(cfg["model"]["dim"] in (1, 3), "model.dim: expected 1 or 3")
    pin = cfg["model"]["pin"]
    if pin is not None:
        _require(isinstance(pin, list) and len(pin) == 2 and all(map(_is_number, pin)),
                 "model.pin: expected null or a [left, right] pair of finite numbers")
        cfg["model"]["pin"] = [float(v) for v in pin]

    _require(cfg["grid"]["lower"] < cfg["grid"]["upper"],
             "grid.lower: must be below grid.upper")
    _require(cfg["grid"]["dt"] > 0, "grid.dt: expected a positive step")

    _require(isinstance(cfg["run"]["seed"], int)
             and not isinstance(cfg["run"]["seed"], bool),
             "run.seed: an integer seed is required")
    _require(cfg["run"]["record_every"] <= cfg["run"]["sweeps"],
             "run.record_every: must not exceed run.sweeps, or nothing is recorded")
    _require(cfg["run"]["mode"] in ("grid", "interp"),
             "run.mode: expected 'grid' or 'interp'")

    reports = cfg["diagnostics"]["reports"]
    known = ("tightness", "window", "hitting", "ratio", "growth")
    _require(isinstance(reports, list) and all(r in known for r in reports),
             f"diagnostics.reports: expected a list drawn from {', '.join(known)}")
    _require(len(cfg["diagnostics"]["hit_start"]) == 2,
             "diagnostics.hit_start: expected a pair of coordinates")

    formats = cfg["output"]["formats"]
    _require(isinstance(formats, list)
             and all(f in ("json", "csv", "jsonl") for f in formats),
             "output.formats: expected a list drawn from json, csv, jsonl")
    _require(isinstance(cfg["output"]["directory"], str),
             "output.directory: expected a string")
    return cfg


# ---------------------------------------------------------------------------
# model construction from a validated config


def _site_potential(cfg: dict):
    return SITES[cfg["model"]["v"]]()


def _pair_potential(cfg: dict):
    return PAIRS[cfg["model"]["w"]](cfg["model"])


def _solve(cfg: dict):
    v = _site_potential(cfg)
    if cfg["model"]["dim"] == 3:
        gs = ground_state_radial(v, radial_grid(cfg["grid"]["radial_rmax"],
                                                cfg["grid"]["radial_points"]))
    else:
        grid = SpaceGrid(cfg["grid"]["lower"], cfg["grid"]["upper"],
                         cfg["grid"]["points"])
        gs = ground_state(v, grid)
    return v, gs


def _chain_model(cfg: dict):
    """Ground state, kernel and Gibbs layout for the 1-d sampling commands."""
    if cfg["model"]["dim"] != 1:
        raise ConfigError("model.dim: sampling pipelines support dim = 1 only")
    _, gs = _solve(cfg)
    kernel = heat_kernel(gs, cfg["grid"]["dt"])
    pin = cfg["model"]["pin"]
    boundary = Smeared() if pin is None else Pinned(pin[0], pin[1])
    spec = GibbsSpec(gs, kernel, _pair_potential(cfg),
                     TimeGrid(cfg["grid"]["t_half"], cfg["grid"]["dt"]), boundary)
    return gs, kernel, spec


def _chain_config(cfg: dict, mode: str | None = None) -> ChainConfig:
    run = cfg["run"]
    return ChainConfig(sweeps=run["sweeps"], burnin=run["burnin"],
                       block_len=run["block_len"], seed=run["seed"],
                       n_chains=run["chains"], mode=mode or run["mode"],
                       record_every=run["record_every"])


# ---------------------------------------------------------------------------
# output plumbing


def _jsonable(obj):
    """Recursively convert numpy and dataclass values to plain JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _resolve_out_dir(cfg: dict, out_flag: str | None) -> FilePath:
    # precedence: command-line flag, then environment, then config
    target = out_flag or os.environ.get("PATHGIBBS_OUTDIR") or cfg["output"]["directory"]
    path = FilePath(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_summary(out_dir: FilePath, name: str, summary: dict, cfg: dict) -> FilePath:
    payload = _jsonable({**summary, "config": cfg})
    target = out_dir / f"{name}.json"
    with open(target, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target


def _write_csv(out_dir: FilePath, name: str, header, rows, cfg: dict) -> FilePath:
    target = out_dir / f"{name}.csv"
    with open(target, "w", newline="") as fh:
        fh.write("# config=" + json.dumps(_jsonable(cfg), sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_jsonable(v) for v in row])
    return target


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve_ground_state(cfg, out_dir):
    _, gs = _solve(cfg)
    residual = gs.residual()
    summary = {
        "energy": gs.energy,
        "eigen_residual": residual,
        "psi_max": float(gs.psi.max()),
        "psi_l1": psi_tail(gs, 0.0),
        "radial": gs.radial,
        "grid": {"lower": float(gs.grid.x[0]), "upper": float(gs.grid.x[-1]),
                 "points": gs.grid.points},
    }
    checks = [_check("eigen-residual", residual <= 1e-8, f"residual={residual:.3e}")]
    if "csv" in cfg["output"]["formats"]:
        _write_csv(out_dir, "ground_state", ["x", "psi"],
                   zip(gs.grid.x, gs.psi), cfg)
    return summary, checks


def _cmd_sample(cfg, out_dir):
    gs, kernel, spec = _chain_model(cfg)
    result = run_ensemble(spec, _chain_config(cfg))
    center = spec.timegrid.n   # every time index is recorded, so this is its column
    positions = result.positions
    pooled = positions[:, :, center].reshape(-1)
    nodes = result.nodes[:, :, center].reshape(-1)
    ks = ks_statistic_atomic(gs.grid.x[nodes], gs.grid.x, stationary_weights(gs))
    checks = [_check("acceptance-positive",
                     result.accept_single > 0.0,
                     f"single={result.accept_single:.3f} block={result.accept_block:.3f}")]
    if spec.w.kind == "zero" and isinstance(spec.boundary, Smeared):
        checks.append(_check("stationary-ks", ks < 0.01, f"ks={ks:.5f}"))
    means = positions.mean(axis=(0, 1))
    stds = positions.std(axis=(0, 1))
    summary = {
        "accept_single": result.accept_single,
        "accept_block": result.accept_block,
        "records": int(positions.shape[0]),
        "chains": int(positions.shape[1]),
        "center_mean": float(pooled.mean()),
        "center_std": float(pooled.std()),
        "stationary_ks": ks,
    }
    if "csv" in cfg["output"]["formats"]:
        _write_csv(out_dir, "sample_stats", ["time", "mean", "std"],
                   zip(spec.timegrid.times[result.record_indices], means, stds), cfg)
    if "jsonl" in cfg["output"]["formats"]:
        with open(out_dir / "sample_paths.jsonl", "w") as fh:
            fh.write(json.dumps({"config": _jsonable(cfg)}, sort_keys=True) + "\n")
            write_snapshots_jsonl(result, fh)
    return summary, checks


def _cmd_oracle_compare(cfg, out_dir):
    gs, kernel, spec = _chain_model(cfg)
    table = brute_force_measure(spec)
    result = run_ensemble(spec, _chain_config(cfg, mode="grid"))
    empirical = empirical_node_marginals(result, gs.grid)
    tvs = [total_variation(empirical[row], table.marginal(int(t)))
           for row, t in enumerate(result.record_indices)]
    worst = float(max(tvs))
    summary = {
        "tv_per_slice": tvs,
        "tv_max": worst,
        "log_z": table.log_z,
        "slices": [int(t) for t in result.record_indices],
    }
    checks = [_check("marginal-tv", worst < 0.02, f"max tv={worst:.5f}")]
    if "csv" in cfg["output"]["formats"]:
        _write_csv(out_dir, "oracle_tv", ["time_index", "tv"],
                   zip(result.record_indices, tvs), cfg)
    return summary, checks


def _cmd_dlr_test(cfg, out_dir):
    gs, kernel, spec = _chain_model(cfg)
    table = brute_force_measure(spec)
    outside = table.configs[int(np.argmax(table.probs))].astype(np.int64)
    s_half = cfg["grid"]["s_half"]
    cond = window_conditional_exact(spec, s_half, outside)
    ids = cond.window_indices
    brute = table.conditional_window(ids, outside).reshape(-1)
    probs = cond.probs.reshape(-1)
    tv = total_variation(probs, brute)
    live = (probs > 0) & (cond.bridge_probs.reshape(-1) > 0)
    log_ratio = np.abs(np.log(probs[live]) - np.log(cond.bridge_probs.reshape(-1)[live]))
    envelope_ok = bool(np.all(log_ratio <= 2.0 * cond.frame_bound + 1e-9))
    summary = {
        "tv_vs_brute_force": tv,
        "frame_bound": cond.frame_bound,
        "max_log_ratio_to_bridge": float(log_ratio.max()) if live.any() else 0.0,
        "window_indices": [int(i) for i in ids],
        "conditioning_mode": "highest-probability exterior",
    }
    checks = [_check("dlr-tv", tv < 1e-10, f"tv={tv:.3e}"),
              _check("bridge-envelope", envelope_ok)]
    return summary, checks


def _cmd_energy_check(cfg, out_dir):
    gs, kernel, spec = _chain_model(cfg)
    w = spec.w
    T = cfg["grid"]["t_half"]
    s_half = cfg["grid"]["s_half"]
    ens = sample_paths(gs, kernel, spec.timegrid, 100,
                       seed=(cfg["run"]["seed"], 51), mode="grid")
    square = SquareRegion(T)
    direct = region_action(w, ens.positions, spec.timegrid, square)
    fold_gap = float(max(abs(doubled_energy(w, fold_path(ens.path(i)), T) - direct[i])
                         for i in range(len(ens))))
    const_value = cfg["model"]["constant"] if w.kind == "constant" else 0.3
    const_h = region_action(constant_pair(const_value), ens.positions, spec.timegrid, square)
    const_gap = float(np.max(np.abs(const_h + const_value * (2.0 * T) ** 2)))
    budget = interaction_budget(w)
    strip = StripRegion(s_half, T)
    bound = strip.envelope_bound(w)
    violations = 0
    worst_strip = 0.0
    if math.isfinite(bound):
        strip_h = np.abs(region_action(w, ens.positions, spec.timegrid, strip))
        worst_strip = float(strip_h.max())
        violations = int(np.sum(strip_h > bound + 1e-12))
    summary = {
        "fold_identity_max_gap": fold_gap,
        "constant_identity_max_gap": const_gap,
        "constant_value": const_value,
        "interaction_budget": budget,
        "strip_bound": bound,
        "strip_max_abs_energy": worst_strip,
        "strip_violations": violations,
        "paths": 100,
    }
    checks = [_check("fold-identity", fold_gap <= 1e-9, f"gap={fold_gap:.3e}"),
              _check("constant-identity", const_gap <= 1e-10, f"gap={const_gap:.3e}")]
    if math.isfinite(bound):
        checks.append(_check("strip-bound", violations == 0,
                             f"worst={worst_strip:.4f} bound={bound:.4f}"))
    return summary, checks


def _cmd_diagnose(cfg, out_dir):
    gs, kernel, spec = _chain_model(cfg)
    w = spec.w
    diag = cfg["diagnostics"]
    summary = {}
    checks = []
    if "tightness" in diag["reports"]:
        report = tightness_profile(gs, kernel, w, diag["t_ladder"],
                                   diag["r_list"], _chain_config(cfg))
        summary["tightness"] = report
        checks.append(_check("tightness-domination", report.domination_holds))
        checks.append(_check("tightness-no-upward-trend",
                             report.trend_pvalue >= 0.05,
                             f"p={report.trend_pvalue:.3f}"))
        if "csv" in cfg["output"]["formats"]:
            _write_csv(out_dir, "tightness_cells",
                       [f.name for f in dataclasses.fields(TightnessCell)],
                       map(dataclasses.astuple, report.cells), cfg)
    if "window" in diag["reports"]:
        ladder = diag["t_ladder"]
        s_half = cfg["grid"]["s_half"]
        slices = [TimeGrid(t, kernel.dt).n_times for t in ladder]
        try:
            # the exact route enumerates a full path table per rung
            for n_t in slices:
                check_enumerable(gs.grid.points, n_t, n_t)
        except ValueError:
            report = window_convergence_mc(gs, kernel, w, ladder, s_half,
                                           _chain_config(cfg, mode="grid"))
            checks.append(_check("window-nonincreasing-ci", report.nonincreasing_within_ci))
            route = "mc"
        else:
            report = window_convergence_exact(gs, kernel, w, ladder, s_half)
            checks.append(_check("window-decreasing", report.strictly_decreasing))
            route = "exact"
        summary["window"] = {**dataclasses.asdict(report), "route": route}
    if "hitting" in diag["reports"]:
        v = _site_potential(cfg)
        report = hitting_time_moment(gs, kernel, diag["hit_start"],
                                     diag["hit_rate"], diag["hit_horizon"],
                                     diag["hit_paths"],
                                     seed=(cfg["run"]["seed"], 61),
                                     alpha=v.effective_alpha)
        summary["hitting"] = {**dataclasses.asdict(report), "certified": report.certified}
        checks.append(_check("hitting-certified", report.certified,
                             f"estimate={report.estimate:.4f} rhs={report.rhs_bound:.4f}"))
    if "ratio" in diag["reports"]:
        report = ratio_bound_check(gs, kernel, w, diag["t_ladder"],
                                   diag["ratio_radius"])
        summary["ratio"] = {**dataclasses.asdict(report), "bounded": report.bounded}
        checks.append(_check("ratio-bounded", report.bounded,
                             f"m_hats={[round(v, 6) for v in report.m_hats]}"))
    if "growth" in diag["reports"]:
        ens = sample_paths(gs, kernel, TimeGrid(diag["growth_t"], kernel.dt),
                           diag["growth_paths"], seed=(cfg["run"]["seed"], 62),
                           mode="grid")
        report = path_growth_check(ens, gs, diag["growth_gamma"])
        summary["growth"] = report
        if report.fit_ok:
            checks.append(_check("growth-exceedance-consistent",
                                 report.all_consistent))
            if report.gamma > 1.0 / report.fit.beta:
                checks.append(_check("growth-tails-summable",
                                     report.summability.summable,
                                     f"slope={report.summability.slope:.3f}"))
    return summary, checks


def _cmd_conditions(cfg, out_dir):
    v = _site_potential(cfg)
    w = _pair_potential(cfg)
    budget = interaction_budget(w)
    xs = np.linspace(-3.0, 3.0, 7)
    pairs = [(a, b) for a in xs for b in xs]
    mono = check_time_monotone(w, pairs, np.linspace(0.0, 5.0, 26))
    report = sufficient_condition_report(v, w, mode="monotone")
    summary = {
        "interaction_budget": budget,
        "monotone": mono.monotone,
        "monotone_witness": mono.witness,
        "alpha": report.alpha,
        "threshold": report.threshold,
        "margin": report.margin,
        "sufficient_condition_holds": report.holds,
        "mode": report.mode,
        "note": report.note,
    }
    checks = [_check("pair-monotone-in-t", mono.monotone),
              _check("w2-sufficient", report.holds,
                     f"threshold={report.threshold:.4f} alpha={report.alpha}")]
    return summary, checks


_HANDLERS = {
    "solve-ground-state": _cmd_solve_ground_state,
    "sample": _cmd_sample,
    "oracle-compare": _cmd_oracle_compare,
    "dlr-test": _cmd_dlr_test,
    "energy-check": _cmd_energy_check,
    "diagnose": _cmd_diagnose,
    "conditions": _cmd_conditions,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathgibbs",
        description="Finite-volume path measure experiments from a JSON config.")
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True,
                        help="path to the JSON experiment config")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides PATHGIBBS_OUTDIR "
                             "and the config)")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when any summary check fails")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            user_cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = validate_config(user_cfg)
        out_dir = _resolve_out_dir(cfg, args.out)
        summary, checks = _HANDLERS[args.command](cfg, out_dir)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary["checks"] = checks
    target = _write_summary(out_dir, args.command.replace("-", "_"), summary, cfg)
    failed = [c["name"] for c in checks if not c["passed"]]
    for c in checks:
        status = "ok" if c["passed"] else "FAIL"
        detail = f" ({c['detail']})" if c["detail"] else ""
        print(f"{c['name']}: {status}{detail}")
    print(f"summary written to {target}")
    if args.strict and failed:
        print(f"strict mode: {len(failed)} failed check(s): "
              + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
