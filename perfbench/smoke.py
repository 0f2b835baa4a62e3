"""Self-test of the benchmark on cut-down corpora.

    python3 perfbench/smoke.py

For every workload it makes one untraced run and two traced runs on a small
corpus, and checks that every metric named in BENCHMARK.json is reported
with its unit, that no op failed, and that the deterministic counters repeat
exactly between the two traced runs.  Exits 1 on the first problem.
"""

import json
import os
import sys

from run import ROOT, WORKLOADS, run

REPEATED = ("lp.solves", "lp.eps_solves", "polyhedra.polyhedron.calls",
            "scalars.eps.created")


def _units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {key: {m["name"]: m["unit"] for m in spec[key]}
              for key in ("end_to_end", "per_layer")}
    problems = []
    for workload in WORKLOADS:
        results = {"end_to_end": [run(workload, 1, 0, 0, "smoke")],
                   "per_layer": [run(workload, 1, 0, 1, "smoke")
                                 for _ in range(2)]}
        for key, runs in results.items():
            for result in runs:
                if _units(result["metrics"]) != wanted[key]:
                    problems.append("%s %s: metrics or units differ from "
                                    "BENCHMARK.json" % (workload, key))
                if result["failed_ops"]:
                    problems.append("%s %s: failed ops %s" % (
                        workload, key, result["failed_ops"]))
        first, second = (r["metrics"] for r in results["per_layer"])
        for name in REPEATED:
            if first[name][0] != second[name][0]:
                problems.append("%s: %s differs between runs (%s, %s)" % (
                    workload, name, first[name][0], second[name][0]))
        print("%-20s %s" % (workload, ", ".join(
            "%s=%s" % (name, first[name][0]) for name in REPEATED)))
    for problem in problems:
        print("FAIL " + problem)
    if problems:
        sys.exit(1)
    print("smoke: ok")


if __name__ == "__main__":
    main()
