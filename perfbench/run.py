"""Benchmark of deltaforms: four workloads, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen): ``wedge-diagonal``,
``wedge-displacement``, ``identities`` and ``cli-cold``.  The load is a
closed loop with one client: one measured child process at a time, and each
op starts when the previous one has finished.  An op is one verdict: one
wedge pair, one identity, or one CLI invocation.

With ``--trace 0`` the run makes cold passes, at least two, and starts
another only while it can end within S seconds.  The host's throughput swings
by up to 2x, so every end-to-end time is scaled by a calibration timed next
to it (see ``calibration.py`` and ``end_to_end``).  With ``--trace 1`` it
alternates an untraced pass, a pass under the outside tracer and a warm
double pass, and reports the per-layer metrics.  Every op output is compared
with its pinned reference; traced outputs must also equal the untraced ones.
The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibration import scaled  # noqa: E402
from tracer import NAMED, Tracer, merge  # noqa: E402

WORKLOADS = ("wedge-diagonal", "wedge-displacement", "identities", "cli-cold")
MIN_PASSES = 2  # passes per untraced run, however short `seconds` is
SETUP_SAMPLES = 5
RUN_LIMIT = 170  # seconds; a run that would take longer fails instead


class BenchmarkError(RuntimeError):
    pass


def worker(mode, manifest, deadline, stats_dir=None):
    """Run one worker process and return its report."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               manifest, repr(time.monotonic())]
    if stats_dir:
        command.append(stats_dir)
    # its own process group, so a timeout also stops the CLI processes a
    # cli-cold worker has started
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError("run exceeded %d s in a %s worker"
                             % (RUN_LIMIT, mode))
    if proc.returncode != 0:
        raise BenchmarkError("worker %s failed:\n%s" % (mode, err))
    return json.loads(out.splitlines()[-1])


def check(report, expected):
    """Failed op names of one pass against the pinned references."""
    failed = []
    for op in report["ops"]:
        code, digest = expected[op["name"]]
        if (op["error"] is not None or op.get("digest") != digest
                or (code is not None and op["exit"] != code)):
            failed.append(op["name"])
    return failed


def median(values):
    return statistics.median(values)


def end_to_end(passes, setups):
    """End-to-end metrics, every time in quiet-host seconds.

    Each op time is scaled by the calibration timed around it (see
    calibration.py; a CLI op's calibration runs in its own process).  Every
    pass starts from a cold cache and runs the same ops in the same order, so
    an op's times in different passes measure the same work, and the median
    over the passes is the op's time.  wall_s is the sum of the op times,
    op_p50_s and op_max_s their median and maximum; setup_s is the median
    set-up time, each scaled by the calibration timed right after it.
    """
    op_s = [median(scaled(p["ops"][k]["seconds"], p["ops"][k]["calibration"])
                   for p in passes)
            for k in range(len(passes[0]["ops"]))]
    return {
        "wall_s": (sum(op_s), "s"),
        "setup_s": (median(scaled(s["setup_s"], s["setup_calibration"])
                           for s in setups), "s"),
        "op_p50_s": (median(op_s), "s"),
        "op_max_s": (max(op_s), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MiB"),
    }


def per_layer(traced, untraced, warm):
    """Per-layer metrics: medians over the traced passes of the run."""
    rows = []
    for report in traced:
        summary = report.get("trace") or Tracer().summary()
        cli = {"interpreter_s": 0.0, "import_s": 0.0}
        if "cli_stats" in report:
            for stats in report["cli_stats"]:
                merge(summary, stats)
            cli = {key: median(s["cli"][key] for s in report["cli_stats"])
                   for key in cli}
        calls, self_s, extra = (summary["calls"], summary["self_s"],
                                summary["extra"])

        def ratio(part, whole):
            return part / whole if whole else 0.0

        row = {}
        for name, spans in NAMED.items():
            row[name + ".calls"] = (sum(calls.get(s, 0) for s in spans),
                                    "count")
            row[name + ".self_s"] = (sum(self_s.get(s, 0.0) for s in spans),
                                     "s")
        for layer, seconds in summary["layer_self_s"].items():
            # the scalars and cli layers are one span each, reported below
            if layer not in ("scalars", "cli"):
                row[layer + ".self_s"] = (seconds, "s")
        slices = row["currents.slice_cell.calls"][0]
        row.update({
            "lp.solves": (extra["lp.solves"], "count"),
            "lp.eps_solves": (extra["lp.eps_solves"], "count"),
            "lp.eps_self_s": (extra["lp.eps_self_s"], "s"),
            "lp.infeasible_ratio": (ratio(extra["lp.infeasible"],
                                          extra["lp.feasible_calls"]), "1"),
            "scalars.eps.created": (
                calls.get("scalars.EpsRational.__init__", 0), "count"),
            "scalars.eps.self_s": (
                self_s.get("scalars.EpsRational.__init__", 0.0), "s"),
            "polyhedra.polyhedron.empty": (
                extra["polyhedra.polyhedron.empty"], "count"),
            "polyhedra.polyhedron.distinct": (
                extra["polyhedra.polyhedron.distinct"], "count"),
            "polyhedra.polyhedron.distinct_ratio": (
                ratio(extra["polyhedra.polyhedron.distinct"],
                      row["polyhedra.polyhedron.calls"][0]), "1"),
            "currents.slice_cell.hyperplanes": (
                extra["currents.slice_cell.hyperplanes"], "count"),
            "currents.slice_cell.cut_ratio": (
                ratio(extra["currents.slice_cell.pieces"] - slices,
                      extra["currents.slice_cell.hyperplanes"]), "1"),
            "intersection.is_generic.calls": (
                calls.get("intersection.is_generic", 0), "count"),
            "intersection.generic_vector.tries_ratio": (
                ratio(extra["intersection.generic_vector.tries"],
                      row["intersection.generic_vector.calls"][0]), "1"),
            "io.bytes_in": (extra["io.bytes_in"], "B"),
            "io.bytes_out": (extra["io.bytes_out"], "B"),
            "io.op_calls": (extra["io.op_calls"], "count"),
            "cli.interpreter_s": (cli["interpreter_s"], "s"),
            "cli.import_s": (cli["import_s"], "s"),
            "cli.main.self_s": (self_s.get("cli.main", 0.0), "s"),
            "trace.wall_s": (report["wall_s"], "s"),
        })
        rows.append(row)
    metrics = {name: (median(row[name][0] for row in rows), unit)
               for name, (_, unit) in rows[0].items()}
    # both ratios compare passes timed at different moments, so they use
    # the calibrated pass times
    metrics["trace.overhead_ratio"] = (
        median(t["scaled_s"] for t in traced)
        / median(p["scaled_s"] for p in untraced) - 1, "1")
    metrics["polyhedra.warm_pass_ratio"] = (
        median(w["warm_scaled_s"] / w["scaled_s"] for w in warm), "1")
    return metrics


def run(workload, seed, seconds, trace, size="full"):
    """Measure one workload; return the result object the command prints."""
    import corpus
    manifest_path = corpus.generate(ROOT, workload, seed, size)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(corpus.PINNED, encoding="utf-8") as fh:
        expected = corpus.expected(json.load(fh), manifest)
    reports = {"pass": [], "traced": [], "warm": []}
    modes = ("pass", "traced", "warm") if trace else ("pass",)
    start = time.monotonic()
    deadline = start + RUN_LIMIT
    cache = os.path.dirname(manifest_path)
    # A cycle (one worker per mode) starts only if it can end within
    # `seconds`, judged by the longest cycle so far, once the minimum is done.
    cycles = 1 if trace else MIN_PASSES
    longest = 0.0
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        while (len(reports[modes[-1]]) < cycles
               or time.monotonic() - start + longest <= seconds):
            began = time.monotonic()
            for mode in modes:
                reports[mode].append(worker(mode, manifest_path, deadline,
                                            tmp))
            longest = max(longest, time.monotonic() - began)
    measured = reports["pass"] + reports["traced"] + reports["warm"]
    failed = sorted(name for report in measured
                    for name in check(report, expected))
    attempted = sum(len(report["ops"]) for report in measured)
    if trace:
        # the tracer must not change a single output byte
        for plain, traced in zip(reports["pass"], reports["traced"]):
            failed += [a["name"] for a, b in zip(plain["ops"], traced["ops"])
                       if a.get("digest") != b.get("digest")]
        metrics = per_layer(reports["traced"], reports["pass"],
                            reports["warm"])
    else:
        setups = [p for p in reports["pass"] if workload != "cli-cold"]
        while len(setups) < SETUP_SAMPLES:
            setups.append(worker("setup", manifest_path, deadline))
        metrics = end_to_end(reports["pass"], setups)
    return {"failed_ops": failed, "attempted": attempted, "metrics": metrics,
            "passes": len(reports[modes[-1]])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "deltaforms",
                                       "__init__.py")):
        sys.exit("perfbench: no deltaforms source tree at %s"
                 % os.path.join(ROOT, "src"))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        sys.exit("perfbench: %s" % exc)
    failed = len(result["failed_ops"])
    attempted = result["attempted"]
    for name, (value, unit) in sorted(result["metrics"].items()):
        print("%-44s %14.6g %s" % (name, value, unit))
    print("%-44s %14.6g %s" % ("fail_ratio", failed / attempted, "1"))
    print("%-44s %14d" % ("passes", result["passes"]))
    if failed:
        print("failed ops: %s" % ", ".join(result["failed_ops"]))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))


if __name__ == "__main__":
    main()
