"""Repeat the benchmark over seeds and record the baseline; run from the
repository root:

    python3 bench/prove.py

Each workload runs RUNS times untraced, with seeds 1..RUNS and the
run_seconds of BENCHMARK.json.  For every end-to-end metric it reports the
median, the quartiles and their distance as a share of the median (the
spread), against its bound in BENCHMARK.json where it has one.  The tracing
overhead is the median, over OVERHEAD_PAIRS back-to-back pairs of one-pass
runs with seed 1, of the traced minus the untraced item wall time; the
host's speed drifts over minutes, so only adjacent runs are compared.
Everything is written to bench/baseline.json.
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run
import workloads

RUNS = 10
OVERHEAD_PAIRS = 3
OUT = "bench/baseline.json"


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def prove(workload, seconds, bounds):
    values = {name: [] for name in run.UNITS}
    results = []
    for seed in range(1, RUNS + 1):
        res = run.run_workload(workload, seed, seconds, 0)
        results.append(res)
        for name in values:
            values[name].append(res["metrics"][name])
        print(f"{workload} seed={seed} passes={res['passes']} "
              f"failed={res['failed']}/{res['attempted']} "
              + " ".join(f"{k}={v:.5g}" for k, v in res["metrics"].items()),
              flush=True)
    summary = {}
    for name, vals in values.items():
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound,
                         "spread_below_third_of_bound":
                         None if bound is None else spread < bound / 3}
    pairs = []
    for _ in range(OVERHEAD_PAIRS):
        plain = run.run_workload(workload, 1, 0, 0)
        traced = run.run_workload(workload, 1, 0, 1)
        pairs.append((traced["item_wall_s"], plain["item_wall_s"]))
    return {
        "why": workloads.WHY[workload],
        "seeds": list(range(1, RUNS + 1)),
        "failed": [r["failed"] for r in results],
        "attempted": [r["attempted"] for r in results],
        "correct": all(r["correct"] for r in results),
        "failures_seed_1": plain["failures"],
        "end_to_end": summary,
        "tracing_overhead_s_per_pass": statistics.median(
            t - p for t, p in pairs),
        "traced_and_untraced_item_wall_s_per_pass": pairs,
        "per_layer_seed_1": traced["layers"]["metrics"],
    }


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "commit": _commit(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "date": time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime()),
        "run_seconds": spec["run_seconds"],
        "battery_seeds": {"pullback-battery": workloads.BATTERY_SEED,
                          "chazy-fp": workloads.CHAZY_SEED},
        "layer_to_end_to_end": {
            **{k: {"workload": w, "moves": m}
               for k, (w, m) in workloads.DRIVES.items()},
            **{k: {"moves": m} for k, m in workloads.COUNTER_DRIVES.items()}},
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        out["workloads"][workload] = prove(workload, spec["run_seconds"],
                                           bounds)
        for name, s in out["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.5g} spread "
                  f"{s['spread']:.3f} (bound {s['bound']})", flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
