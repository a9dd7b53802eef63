"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload: two traced runs with one seed must give identical count
metrics (calls, gens_*, pivots, steps, bytes, useful_ratio, failed), a run
with another seed must report the same metric names, and every run must
pass its output and span checks.  An untraced run must report the
end-to-end metrics BENCHMARK.json lists.  Exits 1 and names each mismatch
if any of that fails.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads


def counts(report: dict) -> dict:
    return {k: v["value"] for k, v in report["metrics"].items()
            if k.endswith(tracing.COUNT_SUFFIXES)}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    end_to_end = [m["name"] for m in spec["end_to_end"]]

    quick = run.run_workload("pipeline", 1, 0, False, min_passes=1)
    if set(quick["metrics"]) != set(end_to_end) or not quick["correct"]:
        problems.append(f"untraced pipeline run: {list(quick['metrics'])}, "
                        f"correct={quick['correct']}")

    for name in workloads.WORKLOADS:
        first, again, other = (run.run_workload(name, seed, 0, True, min_passes=2)
                               for seed in (1, 1, 2))
        for label, report in (("seed 1", first), ("seed 1 again", again), ("seed 2", other)):
            if not report["correct"]:
                problems.append(f"{name} {label}: failures {report['failures']}, "
                                f"span problems {report['span_problems'][:3]}")
        if set(first["metrics"]) != set(other["metrics"]):
            problems.append(f"{name}: seeds 1 and 2 report different metric names")
        a, b = counts(first), counts(again)
        diff = sorted(k for k in a if a[k] != b.get(k))
        if diff or set(a) != set(b):
            problems.append(f"{name}: counts differ between two runs of seed 1: {diff}")
        print(f"{name}: {len(a)} count metrics repeat; overhead "
              f"{first['metrics']['trace.overhead']['value']:.3f}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
