"""One benchmark child process: set up, run items, report one JSON line.

Usage: worker.py WORKLOAD SEED TRACE SPAWN_CLOCK TARGET

SPAWN_CLOCK is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by processes on one host), so the
reported set-up time includes interpreter start.  TARGET is a table index
for tables-cold, ``all`` for the in-process workloads, or ``setup`` to stop
once the inputs exist.

Every child also measures the host's speed (``hostspeed``) with a few
probes right after set-up; untraced children also probe on a timer while
the items run, and take the probe time out of each item's wall time.
"""
import json
import resource
import sys
import time

SAMPLES = 5                 # probes right after set-up and after the items


def main(argv) -> int:
    workload, seed, trace, spawn_clock, target = argv
    import ode3geom.cli  # noqa: F401  (import cost belongs to set-up)
    import hostspeed
    import workloads
    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    items = workloads.SETUP[workload](
        int(seed), int(target) if target.isdigit() else None)
    setup_s = time.perf_counter() - float(spawn_clock)
    at_setup = hostspeed.Sampler()
    at_setup.sample(SAMPLES)
    sampler = hostspeed.Sampler()
    results = []
    if target != "setup":
        run = workloads.RUN[workload]
        if tracer is None:          # probes would add to traced self times
            sampler.start()
        for name, spec in items:
            outcome, detail, digest = "ok", "", None
            start = time.perf_counter()
            probed = sampler.probe_s
            try:
                digest = run(spec)
            except workloads.ItemFailure as exc:
                outcome, detail = "wrong", str(exc)
            except Exception as exc:  # a leaked error fails the item
                outcome, detail = "error", f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start - (sampler.probe_s - probed)
            results.append({"name": name, "wall_s": wall, "outcome": outcome,
                            "detail": detail, "digest": digest})
        sampler.stop()
        sampler.sample(SAMPLES)
    payload = {"setup_s": setup_s, "setup_speed": at_setup.speed(),
               "speed": sampler.speed(), "items": results,
               "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024.0}
    if tracer is not None:
        payload["trace"] = tracer.metrics()
        payload["div_hits"] = tracer.div_hits
    sys.stdout.write("\n" + json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
