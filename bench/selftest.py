"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

For every workload it makes one traced pass twice and one untraced pass with
the same seed, and checks that
  1. the two traced passes give identical verdicts and per-layer counts,
  2. traced and untraced passes give identical report digests,
  3. each traced function records a call on the workload it is said to
     drive (workloads.DRIVES).
Exits 1 and names each failed check otherwise.
"""
import sys

import run
import workloads

SEED = 7


def _counts(res):
    return {k: v for k, v in res["layers"]["metrics"].items()
            if not k.endswith(".self_s")}


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        first = run.run_workload(workload, SEED, 0, 1)
        second = run.run_workload(workload, SEED, 0, 1)
        plain = run.run_workload(workload, SEED, 0, 0)
        if first["verdicts"] != second["verdicts"]:
            problems.append(f"{workload}: verdicts differ between runs")
        if _counts(first) != _counts(second):
            diff = sorted(k for k, v in _counts(first).items()
                          if _counts(second).get(k) != v)
            problems.append(f"{workload}: per-layer counts differ: {diff}")
        if first["verdicts"] != plain["verdicts"]:
            problems.append(f"{workload}: tracing changes the reports")
        calls = first["layers"]["metrics"]
        for label, (driven, _metric) in workloads.DRIVES.items():
            if driven == workload and not calls.get(f"{label}.calls"):
                problems.append(f"{workload}: {label} was never called")
        print(f"{workload}: {len(first['verdicts'])} items, "
              f"{first['failed']} failed", flush=True)
    for line in problems:
        print(f"SELFTEST FAILED {line}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
