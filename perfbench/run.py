#!/usr/bin/env python3
"""Run one pathgibbs benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tightness --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The workload is repeated, with the same seed, until `--seconds` have passed
(at least three times), and each metric is the median over the repetitions.
With `--trace 0` the last line of output is a JSON object holding the
end-to-end metrics; with `--trace 1` every other repetition is traced and
the JSON holds the per-layer metrics, and the spans are written to
`.perfbench_out/spans-<workload>-<iteration>.npz`.  `correct`, `attempted` and `failed`
count the exactness checks, so failed/attempted is the check-fail ratio.
The exit code is 0 only if every check passed.
"""

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import machine
from spread import describe

machine.pin_blas_threads(1)   # before anything imports numpy

import numpy as np
from spans import SpanTable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_ITERATIONS = 3
MAX_ITERATIONS = 200


def _chain_rate(runs) -> float:
    sweeps = sum(chains * total for _, _, chains, total, _, _ in runs)
    seconds = sum(s for *_, s, _ in runs)
    return sweeps / seconds if seconds > 0 else 0.0


def end_to_end(rec, wall: float) -> dict:
    if rec.chain_runs:
        rate = _chain_rate(rec.chain_runs)
    else:
        # the reference chain's sweep: one path drawn across every time slice
        rate = sum(p for p, _, _ in rec.path_draws) / sum(s for *_, s in rec.path_draws)
    return {"setup_s": rec.setup_s, "wall_s": wall, "chain_sweeps_per_s": rate}


# per-layer metrics read straight off one span name: a total time, or a count
LAYER_SPANS = {
    f"{span}_{kind}": span
    for span, kinds in (
        ("spectral.ground_state", ("s",)),
        ("spectral.heat_kernel", ("s", "calls")),
        ("spectral.power", ("s", "calls")),
        ("reference.transfer_matrix", ("s", "calls")),
        ("reference.sample_paths", ("s",)),
        ("potentials.evaluate", ("s", "calls")),
        ("grids.nearest_index", ("s", "calls")),
        ("sampler.brute_force_measure", ("s",)),
        ("sampler.window_conditional_exact", ("s",)),
        ("energy.interaction_energy", ("s",)),
        ("energy.doubled_energy", ("s",)),
        ("energy.check_shift_inequality", ("s",)),
        ("diagnostics.tightness_profile", ("s",)),
        ("diagnostics.window_convergence_exact", ("s",)),
        ("diagnostics.window_convergence_mc", ("s",)),
        ("diagnostics.hitting_time_moment", ("s",)),
        ("diagnostics.path_growth_check", ("s",)),
        ("diagnostics.ratio_bound_check", ("s",)),
    )
    for kind in kinds
}


def per_layer(rec, table) -> dict:
    m = {}
    for metric, span in LAYER_SPANS.items():
        m[metric] = table.count(span) if metric.endswith("_calls") else table.total(span)
    for layer in ("spectral", "reference", "energy", "diagnostics"):
        m[f"{layer}.self_s"] = table.layer_self(layer)

    draws_s = m["reference.sample_paths_s"]
    steps = sum(p * (n_t - 1) for p, n_t, _ in rec.path_draws)
    m["reference.path_steps_per_s"] = steps / draws_s if draws_s > 0 else 0.0

    site_moves = sum(total * n_t for _, n_t, _, total, _, _ in rec.chain_runs)
    in_chains = table.inside("sampler.run_ensemble") & table.mask("potentials.evaluate")
    m["potentials.evaluate_calls_per_site_move"] = (
        int(in_chains.sum()) / site_moves if site_moves else 0.0)

    for label, pick in (("nt9", lambda M, n: M > 9 and n == 9),
                        ("nt17", lambda M, n: M > 9 and n == 17),
                        ("nt33", lambda M, n: M > 9 and n == 33),
                        ("oracle", lambda M, n: M <= 9)):
        m[f"sampler.chain_sweeps_per_s.{label}"] = _chain_rate(
            [r for r in rec.chain_runs if pick(r[0], r[1])])
    m["sampler.self_s"] = float(table.self_time[table.mask("sampler.run_ensemble")].sum())
    moves = {"single": [0, 0], "block": [0, 0]}
    for _, n_t, chains, _, _, result in rec.chain_runs:
        cfg = result.config
        proposed_block = chains * cfg.sweeps if n_t - cfg.block_len - 1 > 0 else 0
        for kind, proposed, rate in (("single", chains * cfg.sweeps * n_t, result.accept_single),
                                     ("block", proposed_block, result.accept_block)):
            moves[kind][0] += proposed
            moves[kind][1] += round(rate * proposed)
    for kind, (proposed, accepted) in moves.items():
        m[f"sampler.accept_{kind}"] = accepted / proposed if proposed else 0.0
    m["sampler.proposed_moves"] = moves["single"][0] + moves["block"][0]
    m["sampler.accepted_moves"] = moves["single"][1] + moves["block"][1]
    m["sampler.enumerated_configs"] = rec.enumerated
    bf_s = m["sampler.brute_force_measure_s"]
    m["sampler.enumerated_configs_per_s"] = rec.enumerated / bf_s if bf_s > 0 else 0.0

    m["diagnostics.flags_failed"] = sum(not ok for _, ok, _ in rec.flags)
    m["trace.coverage"] = table.coverage()
    return m


def run_iteration(workload, name: str, seed: int, traced: bool, run_id: int):
    from workloads import Recorder   # imports pathgibbs, so only once src/ is on the path

    rec = Recorder(traced, run_id)
    root = rec.tracer.begin(f"workload.{name}") if traced else None
    t0 = perf_counter()
    with rec.boundaries():
        workload(rec, seed)
    wall = perf_counter() - t0
    if traced:
        rec.tracer.finish(root)
        return rec, wall, SpanTable(rec.tracer, root)
    return rec, wall, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "pathgibbs" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} is not a pathgibbs checkout (needs src/pathgibbs and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text())
    sys.path.insert(0, str(src))
    import pathgibbs
    if Path(pathgibbs.__file__).resolve().parent != (src / "pathgibbs").resolve():
        print(f"error: imported pathgibbs from {pathgibbs.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    facts = machine.facts(ROOT)
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    iterations = []   # (rec, wall, span table or None)
    started = perf_counter()
    while len(iterations) < MAX_ITERATIONS:
        traced = bool(args.trace) and len(iterations) % 2 == 0
        rec, wall, table = run_iteration(workload, args.workload, args.seed, traced,
                                         len(iterations))
        iterations.append((rec, wall, table))
        bad = [name for name, ok, _ in rec.checks if not ok]
        print(f"iteration {len(iterations) - 1} ({'traced' if traced else 'untraced'}): "
              f"wall_s {wall:.4f}, setup_s {rec.setup_s:.4f}, digest {rec.digest()[:16]}"
              + (f", FAILED {', '.join(bad)}" if bad else ""), flush=True)
        typical = statistics.median(w for _, w, _ in iterations)
        if (len(iterations) >= MIN_ITERATIONS
                and perf_counter() - started + typical > args.seconds):
            break

    first = iterations[0][0]
    run_checks = [("same-seed-identical", len({rec.digest() for rec, _, _ in iterations}) == 1)]
    traced_runs = [(rec, wall, table) for rec, wall, table in iterations if table is not None]
    plain = [(rec, wall) for rec, wall, table in iterations if table is None]

    if args.trace:
        layers = [per_layer(rec, table) for rec, _, table in traced_runs]
        count_names = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
        counts = [{k: v for k, v in m.items() if k in count_names} for m in layers]
        run_checks.append(("trace-counts-repeat", all(c == counts[0] for c in counts)))
        run_checks.append(("span-coverage", all(m["trace.coverage"] >= 0.95 for m in layers)))
        values = {name: [m[name] for m in layers] for name in layers[0]}
        values["trace.overhead_s"] = [statistics.median(w for _, w, _ in traced_runs)
                                      - statistics.median(w for _, w in plain)]
        wanted = spec["per_layer"]
    else:
        rows = [end_to_end(rec, wall) for rec, wall in plain]
        values = {name: [r[name] for r in rows] for name in rows[0]}
        values["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        wanted = spec["end_to_end"]

    print("checks:")
    for name, ok, detail in first.checks + [(name, ok, "") for name, ok in run_checks]:
        print(f"  {name}: {'ok' if ok else 'FAIL'}{f' ({detail})' if detail else ''}")
    checks = [ok for rec, _, _ in iterations for _, ok, _ in rec.checks]
    checks += [ok for _, ok in run_checks]
    failed = checks.count(False)
    print(f"  check_fail_ratio: {failed}/{len(checks)} over {len(iterations)} iterations")
    print(f"digest: {first.digest()}")
    print("statistical flags (reported, not gated):")
    for name, ok, detail in first.flags:
        print(f"  {name}: {'ok' if ok else 'FLAGGED'}{f' ({detail})' if detail else ''}")

    metrics = {}
    print("metrics:")
    for entry in wanted:
        series = values[entry["name"]]
        if entry["unit"] == "count":
            # counts repeat exactly (checked above), so any iteration's is the count
            value, note = series[0], f"same in all {len(series)} traced iterations"
        else:
            value = statistics.median(series)
            note = describe(series, "iterations") if len(series) > 1 else "once per run"
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {entry['name']} = {shown} {entry['unit']} ({note})")

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        for rec, _, _ in traced_runs:
            np.savez(OUT_DIR / f"spans-{args.workload}-{rec.tracer.run_id}.npz",
                     **rec.tracer.arrays())

    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
