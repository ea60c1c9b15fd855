#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py                       # every workload, seed 1
    python3 perfbench/spread.py --workloads oracle --seeds 1-10 --out a.json
    python3 perfbench/spread.py --seeds 11-20 --against a.json

Each run is a separate `run.py` process.  For every end-to-end metric this
prints the median over the runs, the quartile spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json, the highest percentile
with at least ten runs beyond it, and the run count.  `--against` compares
the medians with an earlier `--out` file and fails when one is worse by
more than its bound.  Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def tail_percentile(values):
    """Highest of the usual percentiles with at least ten values beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
    return None


def describe(values, what: str) -> str:
    tail = tail_percentile(values)
    spread = f"p{tail[0]:g} {tail[1]:.6g}" if tail else f"no percentile with 10 {what} beyond it"
    return f"median of {len(values)}, {spread}"


def quartile_spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["machine"] = next((json.loads(line[len("machine: "):]) for line in lines
                              if line.startswith("machine: ")), None)
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1", help="a range like 1-10 or a list like 3,5")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the runs and their summary here (JSON)")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    report = {"seeds": _seeds(args.seeds), "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in report["seeds"]:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {sum(r['correct'] for r in runs)}/{len(runs)} runs correct, "
              f"{failed}/{attempted} checks failed")
        ok &= all(r["correct"] for r in runs)
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            summary[name] = {"median": median, "spread": spread, "unit": meta["unit"],
                             "values": values}
            line = (f"  {name} = {median:.6g} {meta['unit']} ({describe(values, 'runs')}); "
                    f"spread {spread:.4f} of bound {meta['bound']}")
            if name != "setup_s" and spread > meta["bound"]:
                line += "  SPREAD ABOVE BOUND"
                ok = False
            if earlier and workload in earlier["workloads"]:
                before = earlier["workloads"][workload][name]["median"]
                change = (median - before) / before
                worse = change if meta["better"] == "lower" else -change
                line += f"; {change:+.2%} against {before:.6g}"
                if worse > meta["bound"]:
                    line += "  WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)
        report["workloads"][workload] = summary
        report.setdefault("machine", runs[0]["machine"])
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
