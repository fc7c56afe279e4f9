#!/usr/bin/env python3
"""Performance gate: a floor under the benchmark, measured with bench/.

    python3 scripts/bench_gate.py

Runs sim-pointer and sim-resident at seeds 1 and 2 (the seeds with
golden answers, so every simulated cell is also checked against
bench/golden.json) and serve-cached at seed 1, each once through
bench/baseline.py's ``run_once``.  That stops the gate on a wrong
answer, a failed operation or a nonzero exit, and measures once more a
serving run that could not keep to its schedule.  Each end-to-end
metric of each run must be at most its bench/baseline.json median times
(1 + its BENCHMARK.json bound); a workload or metric missing from either
file or from the run fails.  Prints one line per check and exits 1 when
any check fails.

The metrics are scaled by host speed (bench/hostspeed.py), so the limits
hold on a slower or busier host; they are loose, since the paired
benchmark runs judge small differences.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from baseline import run_once  # noqa: E402
from run import END_TO_END  # noqa: E402

#: (workload, seed) of each run, in order.
RUNS = (
    ("sim-pointer", 1), ("sim-resident", 1),
    ("sim-pointer", 2), ("sim-resident", 2),
    ("serve-cached", 1),
)


def _load(*path) -> dict:
    with open(os.path.join(ROOT, *path)) as handle:
        return json.load(handle)


def main() -> int:
    declared = _load("BENCHMARK.json")
    workloads = {entry["name"] for entry in declared["workloads"]}
    bounds = {entry["name"]: entry["bound"]
              for entry in declared["end_to_end"]}
    baseline = _load("bench", "baseline.json")["workloads"]
    failed = set()
    for workload, seed in RUNS:
        metrics, _unscaled = run_once(workload, seed)
        for name, unit in END_TO_END:
            value = metrics.get(name)
            median = baseline.get(workload, {}).get(name, {}).get("median")
            if workload not in workloads or name not in bounds:
                ok, detail = False, "not declared in BENCHMARK.json"
            elif median is None:
                ok, detail = False, "no median in bench/baseline.json"
            elif value is None:
                ok, detail = False, "not reported by the run"
            else:
                limit = median * (1 + bounds[name])
                ok = value <= limit
                detail = "%.4f %s, limit %.4f (median %.4f x %.2f)" % (
                    value, unit, limit, median, 1 + bounds[name])
            print("%-4s %-12s seed %d %-13s %s" % (
                "ok" if ok else "FAIL", workload, seed, name, detail),
                flush=True)
            if not ok:
                failed.add(workload)
    if failed:
        print("bench gate: FAILED on %s" % ", ".join(sorted(failed)))
        return 1
    print("bench gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
