"""ode3geom benchmark: cold table reports, the pullback battery and Chazy
fibre-preserving recovery.

    python3 bench/run.py --workload tables-cold --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every pass of a workload runs in fresh
interpreters started one at a time (tables-cold: one per item).  Passes
repeat while the next one is expected to end within --seconds.  The last
line of standard output is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1); the
lines before it list the same numbers for a reader.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 30         # extra set-up-only children per untraced run
RUN_LIMIT_S = 170.0       # a run must end within 180 s
UNITS = {"setup_s": "s", "items_per_ref_s": "1/s", "peak_rss_mb": "MB",
         "setup_wall_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
         "host_speed": "ratio"}
# The JSON line carries times at the reference host speed (hostspeed.py).
# Wall-clock figures are printed only: on a shared host the ten-seed spread
# of items_per_s reached 0.44 of its median, and that of item_p50_s 0.37
# (the median item falls between clusters of item costs).
JSON_METRICS = ("setup_s", "items_per_ref_s", "peak_rss_mb")


class ProgramMissing(Exception):
    pass


def _child(workload, seed, trace, target, deadline):
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    spawn = time.perf_counter()
    if spawn >= deadline:
        return None, "run time limit reached"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(trace), repr(spawn), target]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=deadline - spawn)
    except subprocess.TimeoutExpired:
        return None, "timeout"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(lines[-1]), ""


def _pass(workload, seed, trace, deadline):
    """One pass over the workload's items; returns the child payloads."""
    if workload == "tables-cold":
        targets = [str(i) for i in
                   workloads.shuffled(range(len(workloads.TABLES)), seed)]
    else:
        targets = ["all"]
    out = []
    for target in targets:
        payload, err = _child(workload, seed, trace, target, deadline)
        if payload is None:         # the child produced no report
            payload = {"setup_s": None, "rss_mb": None, "items": [
                {"name": f"{workload}:{target}", "wall_s": 0.0,
                 "outcome": "wrong", "detail": err, "digest": None}]}
        out.append(payload)
    return out


def run_workload(workload, seed, seconds, trace):
    """Run one benchmark run and return every measurement it took."""
    if not os.path.isfile(os.path.join("src", "ode3geom", "cli.py")):
        raise ProgramMissing("src/ode3geom not found under the working "
                             "directory; run from the repository root")
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            payload, err = _child(workload, seed, 0, "setup", deadline)
            if payload is None:
                raise RuntimeError(f"set-up failed: {err}")
            probes.append(payload)
    passes = []
    pass_s = 0.0
    while not passes or (time.perf_counter() - start + pass_s <= seconds):
        t0 = time.perf_counter()
        passes.append(_pass(workload, seed, trace, deadline))
        pass_s = time.perf_counter() - t0
    return _summarise(workload, seed, trace, probes, passes,
                      time.perf_counter() - start)


def _summarise(workload, seed, trace, probes, passes, wall):
    items = []                      # (pass number, item record)
    ref_s = 0.0                     # item time at the reference speed
    for k, payloads in enumerate(passes):
        items += [(k, it) for p in payloads for it in p["items"]]
        ref_s += sum(it["wall_s"] * p.get("speed", 1.0)
                     for p in payloads for it in p["items"])
    first = {}
    for k, it in items:             # a fresh interpreter must repeat itself
        if it["outcome"] == "ok":
            want = first.setdefault(it["name"], it["digest"])
            if it["digest"] != want:
                it["outcome"] = "wrong"
                it["detail"] = "report differs from the first pass"
    attempted = len(items)
    failed = [it for _k, it in items if it["outcome"] != "ok"]
    short = [k for k, ps in enumerate(passes)
             if sum(len(p["items"]) for p in ps)
             != workloads.PASS_ITEMS[workload]]
    walls = [it["wall_s"] for _k, it in items]
    children = probes + [p for ps in passes for p in ps
                         if p["setup_s"] is not None]
    setups = [p["setup_s"] for p in children]
    rss = [p["rss_mb"] for ps in passes for p in ps if p["rss_mb"]]
    res = {
        "workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
        "passes": len(passes), "attempted": attempted, "failed": len(failed),
        "correct": not short and not any(it["outcome"] == "wrong"
                                         for it in failed),
        "failures": [f"{it['name']}: {it['detail']}" for it in failed]
        + [f"pass {k}: item count differs from "
           f"{workloads.PASS_ITEMS[workload]}" for k in short],
        "item_wall_s": sum(walls), "n_items": len(walls),
        "verdicts": {it["name"]: (it["outcome"], it["digest"])
                     for k, it in items if k == 0},
        "metrics": {
            "setup_s": statistics.median(
                p["setup_s"] * p["setup_speed"] for p in children)
            if children else 0.0,
            "items_per_ref_s": (attempted - len(failed)) / ref_s
            if ref_s else 0.0,
            "peak_rss_mb": max(rss) if rss else 0.0,
            "setup_wall_s": statistics.median(setups) if setups else 0.0,
            "items_per_s": (attempted - len(failed)) / sum(walls)
            if sum(walls) else 0.0,
            "item_p50_s": statistics.median(walls),
            "host_speed": ref_s / sum(walls) if sum(walls) else 1.0,
        },
        "failed_frac": len(failed) / attempted,
    }
    if trace:
        res["layers"] = _layers(passes)
        if not res["layers"]["counts_repeat"]:
            res["correct"] = False
            res["failures"].append("per-layer counts differ between passes")
    return res


def _layers(passes):
    """Per-layer metrics: counts of the first pass, median self times."""
    per_pass = []
    for payloads in passes:
        total, hits = {}, 0
        for p in payloads:
            for key, val in p.get("trace", {}).items():
                if key.endswith("_size"):
                    total[key] = max(total.get(key, 0), val)
                else:
                    total[key] = total.get(key, 0) + val
            hits += p.get("div_hits", 0)
        divs = total.get("expr.poly.poly_div_exact.calls", 0)
        total["expr.poly.div_exact.hit_ratio"] = hits / divs if divs else 0.0
        per_pass.append(total)
    out = dict(per_pass[0])
    for key in out:
        if key.endswith(".self_s"):
            out[key] = statistics.median(t.get(key, 0.0) for t in per_pass)
    counts_repeat = all(
        {k: v for k, v in t.items() if not k.endswith(".self_s")}
        == {k: v for k, v in per_pass[0].items() if not k.endswith(".self_s")}
        for t in per_pass)
    return {"metrics": out, "counts_repeat": counts_repeat}


def per_layer_units(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = run_workload(args.workload, args.seed, args.seconds,
                           args.trace)
    except (ProgramMissing, RuntimeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in res["failures"]:
        print(f"FAILED {line}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={res['passes']} wall={res['wall_s']:.2f} s")
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_units(k)}
                   for k, v in res["layers"]["metrics"].items()}
        shown = metrics
    else:
        shown = {k: {"value": v, "unit": UNITS[k]}
                 for k, v in res["metrics"].items()}
        metrics = {k: shown[k] for k in JSON_METRICS}
    for k, m in shown.items():
        extra = f" (n={res['n_items']})" if k == "item_p50_s" else ""
        print(f"  {k} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"  failed_frac = {res['failed_frac']:.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
