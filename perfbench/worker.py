"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py MODE MANIFEST SPAWN_TIME [STATS_DIR]

MODE is ``setup`` (import and parse only), ``pass`` (one pass over the ops),
``traced`` (one pass with the outside tracer installed before parsing) or
``warm`` (two passes in the same process, to show what the polyhedron
intern cache saves).  SPAWN_TIME is the parent's ``time.monotonic()`` just
before it started this process, so set-up time includes interpreter start.
The report is one JSON object on the last line of standard output.  Each
op record and each set-up time comes with the calibration timed next to it.

For ``cli-cold`` every op is its own deltaforms command-line process, started
through cli_child.py, which times the calibration in the child; ``setup``
measures the import of ``deltaforms.cli`` instead.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

from calibration import calibration, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _load_ops(manifest, directory):
    """Parse every document of the manifest; return [(name, fn, args)]."""
    from deltaforms import (DeltaForm, WeightedCell,
                            boundary_prime_via_contraction,
                            boundary_second_via_contraction,
                            displacement_product, generic_vector,
                            load_document, parse_deltaform, parse_polyhedron,
                            parse_superform, stokes_check, wedge_diagonal)
    from deltaforms.io import parse_q

    def doc(name):
        return load_document(os.path.join(directory, name))

    def displacement(S, T):
        return displacement_product(S, T, generic_vector(S, T))

    def algebra(T):
        zero = DeltaForm(T.n)
        bp, bs = T.boundary_prime(), T.boundary_second()
        mixed = (T.dp_second().boundary_prime() + bp.dp_second()
                 + T.dp_prime().boundary_second() + bs.dp_prime())
        return (T.is_balanced()[0]
                and bp.boundary_prime().equals(zero)
                and bs.boundary_second().equals(zero)
                and (bs.boundary_prime() + bp.boundary_second()).equals(zero)
                and (T.dp_prime().boundary_prime()
                     + bp.dp_prime()).equals(zero)
                and (T.dp_second().boundary_second()
                     + bs.dp_second()).equals(zero)
                and mixed.equals(zero))

    def boundary(T):
        return (T.boundary_prime().equals(boundary_prime_via_contraction(T))
                and T.boundary_second().equals(
                    boundary_second_via_contraction(T)))

    def duality(T, eta, window):
        # T has tridegree (0,1,0): (d'T)(eta) = (-1)^{0+1+1} T(d'eta)
        lhs = T.boundary_prime().eval_pairing(eta, window)
        rhs = (T.dp_prime().eval_pairing(eta, window)
               - T.eval_pairing(eta.dprime(), window))
        return lhs == rhs

    def stokes(alpha, wc, which):
        lhs, rhs, equal = stokes_check(alpha, wc, which)
        return equal and lhs == rhs

    ops, checks = [], None
    for op in manifest["ops"]:
        kind = op["kind"]
        if kind in ("diagonal", "displacement"):
            args = (parse_deltaform(doc(op["left"])),
                    parse_deltaform(doc(op["right"])))
            fn = wedge_diagonal if kind == "diagonal" else displacement
        elif kind == "suite":
            if checks is None:
                from suite import suite_ops
                checks = {name: (fn, args) for name, fn, args in suite_ops()}
            fn, args = checks[op["check"]]
        elif kind in ("algebra", "boundary"):
            fn = algebra if kind == "algebra" else boundary
            args = (parse_deltaform(doc(op["current"])),)
        elif kind == "duality":
            T = parse_deltaform(doc(op["current"]))
            fn, args = duality, (T, parse_superform(doc(op["eta"]), T.n),
                                 parse_polyhedron(doc(op["window"])))
        elif kind == "stokes":
            d = doc(op["integrand"])
            cell = parse_polyhedron(d["cell"])
            fn = stokes
            args = (parse_superform(d["form"], cell.n),
                    WeightedCell(cell, parse_q(d["weight"])), d["which"])
        else:
            raise ValueError("unknown op kind %r" % kind)
        ops.append((op["name"], fn, args))
    return ops


def _run_ops(ops, tracer):
    """Time each op; return (summed op time, records, results).

    The calibration (see calibration.py) is timed before every op and after
    the last one, and each record keeps the mean of the two around its op.
    """
    records, results = [], []
    clock = time.perf_counter
    measured, before = 0.0, calibration()
    for name, fn, args in ops:
        start = clock()
        try:
            result = (tracer.span("op", fn, *args) if tracer
                      else fn(*args))
            error = None
        except Exception as exc:  # a failing op is counted, not fatal
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        seconds = clock() - start
        after = calibration()
        records.append({"name": name, "seconds": seconds, "error": error,
                        "calibration": (before + after) / 2})
        results.append(result)
        measured += seconds
        before = after
    return measured, records, results


def _scaled_sum(records):
    return sum(scaled(r["seconds"], r["calibration"]) for r in records)


def _in_process(mode, manifest, directory, spawned):
    sys.path.insert(0, SRC)
    tracer = None
    if mode == "traced":
        import deltaforms  # noqa: F401  (load every module before patching)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = _load_ops(manifest, directory)
    report = {"setup_s": time.monotonic() - spawned,
              "setup_calibration": calibration()}
    if mode == "setup":
        return report
    wall, records, results = _run_ops(ops, tracer)
    if mode == "warm":
        report["warm_scaled_s"] = _scaled_sum(_run_ops(ops, None)[1])
    from deltaforms import DeltaForm, deltaform_json, dumps_canonical
    for record, result in zip(records, results):
        if record["error"] is None:
            if isinstance(result, DeltaForm):
                result = deltaform_json(result)
            record["digest"] = hashlib.sha256(
                dumps_canonical(result).encode()).hexdigest()
    report.update(wall_s=wall, scaled_s=_scaled_sum(records), ops=records)
    if tracer:
        report["trace"] = tracer.summary()
    return report


def _cli(mode, manifest, directory, stats_dir):
    env = dict(os.environ, PYTHONPATH=SRC)
    if mode == "setup":
        code = ("import time; t = time.perf_counter(); import deltaforms.cli; "
                "t = time.perf_counter() - t; from calibration import "
                "calibration; print(t, calibration())")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             env=dict(env, PYTHONPATH=SRC + os.pathsep + HERE),
                             capture_output=True, text=True).stdout.split()
        return {"setup_s": float(out[0]), "setup_calibration": float(out[1])}
    passes = 2 if mode == "warm" else 1
    records, stats, totals = [], [], []
    clock = time.perf_counter
    for repeat in range(passes):
        done = []
        for k, op in enumerate(manifest["ops"]):
            stats_path = os.path.join(stats_dir, "op%d.json" % k)
            if mode == "traced":
                command = [sys.executable, os.path.join(HERE, "tracer.py"),
                           stats_path, repr(time.monotonic()), "--"]
            else:
                command = [sys.executable, os.path.join(HERE, "cli_child.py"),
                           stats_path, "--"]
            start = clock()
            proc = subprocess.run(command + op["argv"], cwd=directory,
                                  env=env, capture_output=True, check=False)
            seconds = clock() - start
            with open(stats_path, encoding="utf-8") as fh:
                child = json.load(fh)
            # the child's calibrations are not part of the op
            done.append({"name": op["name"],
                         "seconds": seconds - sum(child["calibration"]),
                         "calibration": sum(child["calibration"]) / 2,
                         "exit": proc.returncode, "error": None,
                         "digest": hashlib.sha256(proc.stdout).hexdigest()})
            if proc.stderr:
                done[-1]["error"] = proc.stderr.decode(errors="replace")[-400:]
            if mode == "traced":
                stats.append(child)
        records = records or done
        totals.append(_scaled_sum(done))
    report = {"wall_s": sum(r["seconds"] for r in records),
              "scaled_s": totals[0], "ops": records}
    if mode == "warm":
        report["warm_scaled_s"] = totals[1]
    if mode == "traced":
        report["cli_stats"] = stats
    return report


def main():
    mode, manifest_path, spawned = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    directory = os.path.dirname(manifest_path)
    if manifest["workload"] == "cli-cold":
        report = _cli(mode, manifest, directory,
                      sys.argv[4] if len(sys.argv) > 4 else None)
        usage = resource.RUSAGE_CHILDREN
    else:
        report = _in_process(mode, manifest, directory, spawned)
        usage = resource.RUSAGE_SELF
    report["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    main()
