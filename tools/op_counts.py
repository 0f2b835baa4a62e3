"""Deterministic call counts for one pass of a benchmark workload.

    python tools/op_counts.py WORKLOAD [--seed N] [--size full|smoke]

WORKLOAD is one of the in-process workloads of perfbench/run.py
(wedge-diagonal, wedge-displacement, identities).  The seed's documents
come from perfbench/corpus.generate and are parsed by worker._load_ops
with the intern table empty, as in a benchmark pass; then one pass over the ops runs under cProfile, in a
process started with PYTHONHASHSEED=0 so that set and dict orders, and with
them the counts, repeat from run to run.  Prints one JSON object: the total
number of calls in the pass, and the calls of each function in FUNCTIONS.
polyhedron counts only the calls through the public door, which takes
rational rows; every cell the package builds from integer rows is a call of
_from_rows.  Needs no tracer, so it runs on every supported Python.
"""

import argparse
import cProfile
import json
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("wedge-diagonal", "wedge-displacement", "identities")
# label -> (file name, function name) as cProfile records them
FUNCTIONS = {
    "polyhedron": ("polyhedra.py", "polyhedron"),
    "_from_rows": ("polyhedra.py", "_from_rows"),
    "Polyhedron._holds": ("polyhedra.py", "_holds"),
    "intersect": ("polyhedra.py", "intersect"),
    "product_polyhedron": ("polyhedra.py", "product_polyhedron"),
    "double_description": ("cones.py", "double_description"),
    "cut": ("cones.py", "cut"),
    "_reaches_diagonal": ("intersection.py", "_reaches_diagonal"),
    "lattice_index": ("linalg.py", "lattice_index"),
    "_balanced_presentation": ("intersection.py", "_balanced_presentation"),
    "_first_misfit": ("polyhedra.py", "_first_misfit"),
    "_meeting_pairs": ("polyhedra.py", "_meeting_pairs"),
    "implicit_rows": ("polyhedra.py", "implicit_rows"),
    "Polyhedron.faces": ("polyhedra.py", "faces"),
    "slice_cell": ("currents.py", "slice_cell"),
    "transport_form": ("currents.py", "transport_form"),
    "integer_kernel": ("linalg.py", "integer_kernel"),
    "_int_rref": ("linalg.py", "_int_rref"),
    "hnf": ("linalg.py", "hnf"),
    "smith_normal_form": ("linalg.py", "smith_normal_form"),
    "primitive_normal": ("polyhedra.py", "primitive_normal"),
    "_ivec_primitive": ("linalg.py", "_ivec_primitive"),
    "int_dot": ("cones.py", "int_dot"),
    "pullback_affine": ("superforms.py", "pullback_affine"),
    "pushforward": ("currents.py", "pushforward"),
    "transition_to": ("polyhedra.py", "transition_to"),
    "recession_cone": ("polyhedra.py", "recession_cone"),
    "_stable_pairs": ("intersection.py", "_stable_pairs"),
    "_stable_scan": ("intersection.py", "_stable_scan"),
    "_monomial_integral": ("superforms.py", "_monomial_integral"),
    "Fraction.__new__": ("fractions.py", "__new__"),
}


def counts(workload, seed, size):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from corpus import generate
    from worker import _load_ops

    from deltaforms import polyhedra

    manifest = generate(ROOT, workload, seed, size)
    polyhedra._CACHE.clear()  # what building the corpus interned
    with open(manifest, encoding="utf-8") as fh:
        ops = _load_ops(json.load(fh), os.path.dirname(manifest))
    profile = cProfile.Profile()
    profile.enable()
    for _, fn, args in ops:
        fn(*args)
    profile.disable()
    stats = pstats.Stats(profile).stats
    labels = {where: label for label, where in FUNCTIONS.items()}
    calls = dict.fromkeys(FUNCTIONS, 0)
    for (path, _, name), (_, total, _, _, _) in stats.items():
        label = labels.get((os.path.basename(path), name))
        if label:
            calls[label] += total
    return {"workload": workload, "seed": seed, "size": size,
            "total_calls": sum(s[1] for s in stats.values()),
            "calls": calls}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    print(json.dumps(counts(args.workload, args.seed, args.size)))


if __name__ == "__main__":
    main()
