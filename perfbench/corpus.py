"""Seeded workload corpora for the deltaforms benchmark, and their references.

Each workload's inputs are built here from a seed, outside any timing, and
written as canonical JSON documents next to a manifest of the operations to
run on them.  A timed pass only loads and parses those documents.

The wedge and CLI corpora are moved by a signed coordinate permutation that
the seed picks, which keeps every input in its difficulty class.  Their
expected outputs are pinned in ``pinned.json`` as SHA-256 digests of the
canonical bytes, one set per class.  ``python3 perfbench/corpus.py --pin``
rebuilds that file, and only pins a wedge result after checking that the
diagonal and displacement routes agree exactly and that the result matches
the closed form of the flagship corpus.  Identity verdicts, the property
suite's among them, are expected to be true.
"""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction as Q
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned.json")
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from deltaforms import (  # noqa: E402
    DeltaForm,
    Poly,
    SuperForm,
    box,
    deltaform_json,
    displacement_product,
    dumps_canonical,
    fundamental_cycle,
    generic_vector,
    gradient_second_form,
    load_document,
    map_json,
    parse_deltaform,
    pl_max,
    polyhedron,
    polyhedron_json,
    ps_multiply,
    pushforward,
    ray_from,
    segment,
    single_point,
    superform_json,
    translate_delta,
    value_form,
    wedge_diagonal,
    whole_space,
)
from deltaforms.currents import AffineMap  # noqa: E402
from deltaforms.linalg import mat_mul_vec  # noqa: E402
from suite import suite_ops  # noqa: E402

# A seed picks one of CLASSES signed coordinate permutations and applies it
# to every input.  These lattice automorphisms keep each input's
# combinatorics and number sizes, so every class costs about the same; an
# integer translation does not (a nonzero right-hand side sends every LP
# through phase one and makes the R^3 pair six times slower).
CLASSES = 8


def signed_permutation(seed, n):
    """Matrix of the seed's class in dimension n.

    Bits 0..n-1 of the class flip coordinate signs; in the plane, bit 2 also
    swaps the two coordinates.
    """
    c = seed % CLASSES
    order = [1, 0] if n == 2 and c & 4 else list(range(n))
    return [[(-1) ** ((c >> i) & 1) if j == order[i] else 0
             for j in range(n)] for i in range(n)]


def moved(T, seed):
    """The current pushed forward along the seed's signed permutation."""
    return pushforward(AffineMap(signed_permutation(seed, T.n), [0] * T.n), T)


def moved_box(lo, hi, seed):
    """Image of the box [lo, hi] under the seed's signed permutation."""
    m = signed_permutation(seed, len(lo))
    a, b = mat_mul_vec(m, lo), mat_mul_vec(m, hi)
    return box([min(x, y) for x, y in zip(a, b)],
               [max(x, y) for x, y in zip(a, b)])


WEDGE_ROUTES = {"wedge-diagonal": "diagonal",
                "wedge-displacement": "displacement"}


def digest(data):
    return hashlib.sha256(data).hexdigest()


def result_bytes(value):
    """Canonical bytes of an operation's result, as the CLI would print it."""
    if isinstance(value, DeltaForm):
        value = deltaform_json(value)
    return dumps_canonical(value).encode()


def _save(directory, name, doc):
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(doc))
    return name


# ------------------------------------------------------------ flagship pairs

def min_line(weights=(1, 1, 1), apex=(0, 0)):
    dirs = [(1, 0), (0, 1), (-1, -1)]
    return DeltaForm(2, [(ray_from(apex, d), SuperForm.scalar(1, 1), w)
                         for d, w in zip(dirs, weights)])


def max_line(apex=(0, 0)):
    dirs = [(1, 1), (-1, 0), (0, -1)]
    return DeltaForm(2, [(ray_from(apex, d), SuperForm.scalar(1, 1), 1)
                         for d in dirs])


def point(coords):
    n = len(coords)
    return DeltaForm(n, [(single_point(coords), SuperForm.scalar(0, 1), 1)])


def flagship_pairs():
    """The flagship pairs as (name, left, right, expected).

    ``expected`` is a DeltaForm the product must equal, a rational point
    mass, or None when only the two routes are compared.  The two pairs with
    a degree-two plane curve (line x conic, conic x conic) are left out: one
    pass over them takes about a minute per route, more than a benchmark run
    may last.  The pair in R^3 is a tropical line against the plane
    x + 2y + 3z = 0, which meets it at the origin with multiplicity 6: the
    tropical plane of the flagship corpus takes 5 to 7 s per op, too long to
    time more than twice in a run.
    """
    plane = DeltaForm(3, [(polyhedron(3, [], eqs=[([1, 2, 3], 0)]),
                           SuperForm.scalar(2, 1), 1)])
    line3 = DeltaForm(3, [(ray_from((0, 0, 0), d), SuperForm.scalar(1, 1), 1)
                          for d in [(-1, 0, 0), (0, -1, 0), (0, 0, -1),
                                    (1, 1, 1)]])
    poly_fan = DeltaForm(2, [(whole_space(2), SuperForm.from_poly(
        Poly(2, {(1, 1): Q(1), (0, 0): Q(2)})), 1)])
    return [
        ("line-line", min_line(), min_line(), point([0, 0])),
        ("maxline-shifted", max_line(),
         translate_delta(max_line(), (3, 1)), point([1, 1])),
        ("maxline-maxline", max_line(), max_line(), point([0, 0])),
        ("line2-line", min_line(weights=(2, 2, 2)), min_line(), Q(2)),
        ("line-plane", min_line(), fundamental_cycle(2), min_line()),
        ("polyfan-line", poly_fan, min_line(), None),
        ("line3-plane", line3, plane, Q(6)),
        ("line-point", min_line(), point([0, 0]), DeltaForm(2)),
        ("line2shift-line", min_line(weights=(2, 2, 2), apex=(3, 1)),
         min_line(), Q(2)),
    ]


def _point_mass(T):
    total = Q(0)
    for cell, form, w in T.canonicalize().terms:
        if cell.dim != 0:
            return None
        (coef,) = form.terms.values()
        total += w * coef.constant_value()
    return total


def _base_wedge_documents(cache):
    """Flagship inputs before the seed's move, built once per checkout."""
    base = os.path.join(cache, "flagship-base.json")
    if not os.path.exists(base):
        os.makedirs(cache, exist_ok=True)
        docs = [{"name": name, "left": deltaform_json(S),
                 "right": deltaform_json(T),
                 "expected": (deltaform_json(e) if isinstance(e, DeltaForm)
                              else None if e is None else str(e))}
                for name, S, T, e in flagship_pairs()]
        tmp = base + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(docs))
        os.replace(tmp, base)
    return load_document(base)


def _moved(doc, seed):
    """A flagship input moved by the seed; the pair in R^3 stays put.

    The sign classes of the R^3 pair differ by up to a third in displacement
    cost (the simplex's pivot order follows the signs), so moving it would
    let the seed, not the program, set the spread between runs.
    """
    T = parse_deltaform(doc)
    return T if T.n == 3 else moved(T, seed)


def wedge_corpus(cache, directory, seed, route, pairs=None):
    ops = []
    for k, item in enumerate(_base_wedge_documents(cache)):
        if pairs is not None and item["name"] not in pairs:
            continue
        S, T = _moved(item["left"], seed), _moved(item["right"], seed)
        ops.append({"name": item["name"], "kind": route,
                    "left": _save(directory, "p%d-left.json" % k,
                                  deltaform_json(S)),
                    "right": _save(directory, "p%d-right.json" % k,
                                   deltaform_json(T))})
    return ops


# ------------------------------------------------------------- identities

# The identities corpora take their shapes (cells, degrees, which terms a
# form has, weights) from a fixed generator and only their coefficient values
# from the seed: shapes set the cost, so every seed costs the same.
SHAPES = 0
NONZERO = (-3, -2, -1, 1, 2, 3)


def random_poly(shape, values, n, max_degree=3):
    terms = {}
    for _ in range(shape.randint(1, 4)):
        exps = [0] * n
        for _ in range(shape.randint(0, max_degree)):
            exps[shape.randrange(n)] += 1
        terms[tuple(exps)] = Q(values.choice(NONZERO))
    terms.setdefault(tuple([0] * n), Q(values.randint(1, 3)))
    return Poly(n, terms)


def _full_current(shape, values, cell, prime):
    d = cell.dim
    full = tuple(range(d))
    other = tuple(sorted(shape.sample(range(d), shape.randint(0, d))))
    key = (full, other) if prime else (other, full)
    return DeltaForm(cell.n, [(cell, SuperForm(d, {
        key: random_poly(shape, values, d)}), shape.randint(1, 2))])


def algebra_currents(shape, values, size):
    """Balanced currents shaped like the operator-algebra corpus."""
    a = [shape.randint(1, 3) for _ in range(3)]
    cells = [box([0, 0], [a[0], a[1]]),
             segment((0, 0), (a[2], 1)),
             ray_from((1, 1), (1, a[0])),
             whole_space(2),
             polyhedron(2, [([-1, 0], 0), ([0, -1], 0), ([1, 1], a[1])]),
             segment((0, 0, 0), (1, a[0], 1))]
    corpus = []
    for cell in cells:
        corpus.append(_full_current(shape, values, cell, True))
        corpus.append(_full_current(shape, values, cell, False))
    g = SuperForm.from_poly(random_poly(shape, values, 2))
    rays = [ray_from((0, 0), d) for d in [(1, 0), (0, 1), (-1, -1)]]
    corpus.append(DeltaForm(2, [(r, g.restrict(r.chart), 1) for r in rays]))
    phi = pl_max(2, [([1, 0], 0), ([0, 1], 0), ([0, 0], 0)])
    kink = ps_multiply(gradient_second_form(phi), fundamental_cycle(2))
    corpus.append(ps_multiply(value_form(phi), kink))
    return corpus[:size]


def segment_current(shape, values, pieces=2):
    cuts = sorted(shape.sample(range(-4, 5), pieces + 1))
    return DeltaForm(1, [(segment((a,), (b,)), SuperForm(1, {
        ((), (0,)): random_poly(shape, values, 1)}), shape.randint(1, 2))
                         for a, b in zip(cuts, cuts[1:])])


def stokes_integrands(shape, values, counts):
    """Integrands (cell, weight, form, which) shaped like the Stokes corpus."""
    out = []
    for n, count in counts:
        full = tuple(range(n))
        for _ in range(count):
            if shape.random() < 0.5:
                lo = [shape.randint(-3, 0) for _ in range(n)]
                cell = box(lo, [x + shape.randint(1, 3) for x in lo])
            else:
                base = [shape.randint(-2, 0) for _ in range(n)]
                ineqs = [([-1 if j == i else 0 for j in range(n)], -base[i])
                         for i in range(n)]
                ineqs.append(([1] * n, sum(base) + shape.randint(1, 3)))
                cell = polyhedron(n, ineqs)
            weight = shape.randint(1, 3)
            for which in ("first", "second"):
                terms = {}
                for keep in combinations(range(n), n - 1):
                    if shape.random() < 1 / 3:
                        continue
                    key = (keep, full) if which == "first" else (full, keep)
                    terms[key] = random_poly(shape, values, n)
                if not terms:
                    key = ((full[1:], full) if which == "first"
                           else (full, full[1:]))
                    terms[key] = random_poly(shape, values, n)
                out.append({"cell": polyhedron_json(cell),
                            "weight": "%d/1" % weight,
                            "form": superform_json(SuperForm(n, terms)),
                            "which": which})
    return out


# Corpus sizes of the identities workload: full, and cut down for smoke runs.
IDENTITY_SIZES = {"full": {"algebra": 14, "boundary": 6, "duality": 6,
                           "stokes": ((1, 4), (2, 4)), "suite": True},
                  "smoke": {"algebra": 2, "boundary": 2, "duality": 2,
                            "stokes": ((1, 1), (2, 1)), "suite": False}}


def identities_corpus(directory, seed, size):
    shape, values = random.Random(SHAPES), random.Random(seed)
    sizes = IDENTITY_SIZES[size]
    ops = []
    if sizes["suite"]:
        ops += [{"name": "suite-" + name, "kind": "suite", "check": name}
                for name, _, _ in suite_ops()]
    for i, T in enumerate(algebra_currents(shape, values, sizes["algebra"])):
        ops.append({"name": "algebra-%d" % i, "kind": "algebra",
                    "current": _save(directory, "algebra-%d.json" % i,
                                     deltaform_json(T))})
    for i in range(sizes["boundary"]):
        T = segment_current(shape, values)
        ops.append({"name": "boundary-%d" % i, "kind": "boundary",
                    "current": _save(directory, "boundary-%d.json" % i,
                                     deltaform_json(T))})
    window = _save(directory, "window.json", polyhedron_json(box([-5], [5])))
    for i in range(sizes["duality"]):
        T = segment_current(shape, values)
        eta = SuperForm.from_poly(random_poly(shape, values, 1))
        ops.append({"name": "duality-%d" % i, "kind": "duality",
                    "window": window,
                    "current": _save(directory, "duality-%d.json" % i,
                                     deltaform_json(T)),
                    "eta": _save(directory, "duality-%d-eta.json" % i,
                                 superform_json(eta))})
    for i, doc in enumerate(stokes_integrands(shape, values,
                                              sizes["stokes"])):
        ops.append({"name": "stokes-%d" % i, "kind": "stokes",
                    "integrand": _save(directory, "stokes-%d.json" % i, doc)})
    return ops


# -------------------------------------------------------------------- CLI

def cli_corpus(directory, seed, size):
    """CLI invocations over small documents, moved by the seed's class.

    Every verb of the command line except ``suite`` appears once, plus one
    unbalanced input that must exit with code 2.
    """
    def save(name, doc):
        return _save(directory, name, doc)

    def current(name, T):
        return save(name, deltaform_json(moved(T, seed)))

    line = current("line.json", min_line())
    bad = current("bad.json", min_line(weights=(1, 1, 2)))
    axis = current("axis.json", DeltaForm(2, [(
        polyhedron(2, [], eqs=[([0, 1], 0)]), SuperForm.scalar(1, 1), 1)]))
    steep = current("steep.json", DeltaForm(2, [(
        polyhedron(2, [], eqs=[([2, -1], 0)]), SuperForm.scalar(1, 1), 1)]))
    shear = save("shear.json", map_json(AffineMap([[1, 1], [0, 1]], [0, 0])))
    dil = save("dil.json", map_json(AffineMap([[2, 0], [0, 2]], [0, 0])))
    eta4 = SuperForm.d_prime_x(2, 0).wedge(SuperForm.d_second_x(2, 0)) \
        .wedge(SuperForm.d_prime_x(2, 1)).wedge(SuperForm.d_second_x(2, 1))
    square = save("square.json",
                  {"cell": polyhedron_json(moved_box([0, 0], [1, 1], seed)),
                   "weight": "1/1", "form": superform_json(eta4)})
    x2 = SuperForm(1, {((), (0,)): Poly(1, {(2,): Q(1)})})
    interval = polyhedron_json(moved_box([0], [1], seed))
    stokes = save("stokes.json", {"cell": interval,
                                  "form": superform_json(x2),
                                  "which": "first"})
    fund = save("fund.json", deltaform_json(fundamental_cycle(1)))
    eta = save("eta.json", superform_json(SuperForm(
        1, {((0,), (0,)): Poly(1, {(2,): Q(1)})})))
    window = save("window.json", interval)
    ops = [
        ("check-balance", ["check-balance", line], 0),
        ("check-balance-unbalanced", ["check-balance", bad], 2),
        ("apply-d1", ["apply", "--op", "d1", line], 0),
        ("apply-bd1", ["apply", "--op", "bd1", line], 0),
        ("wedge-both", ["wedge", "--method", "both", line, line], 0),
        ("transversal", ["transversal", axis, steep], 0),
        ("pushforward", ["pushforward", "--map", shear, line], 0),
        ("pullback", ["pullback", "--map", dil, line], 0),
        ("integrate", ["integrate", square], 0),
        ("stokes-check", ["stokes-check", stokes], 0),
        ("eval", ["eval", "--window", window, fund, eta], 0),
    ]
    if size == "smoke":
        ops = [op for op in ops if op[0] in ("check-balance",
                                             "check-balance-unbalanced",
                                             "integrate")]
    return [{"name": name, "argv": argv, "exit": code}
            for name, argv, code in ops]


# --------------------------------------------------------------- generator

SMOKE_PAIRS = ("line-line", "maxline-shifted", "line-point")


def generate(root, workload, seed, size="full"):
    """Write the seed's documents and manifest; return the manifest path.

    Documents are cached per (workload, seed, size) in the checkout, so a
    seed is built once however many runs use it.
    """
    cache = os.path.join(root, "perfbench", ".cache")
    directory = os.path.join(cache, "%s-%s-%d" % (workload, size, seed))
    manifest = os.path.join(directory, "manifest.json")
    if os.path.exists(manifest):
        return manifest
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    if workload in WEDGE_ROUTES:
        ops = wedge_corpus(cache, directory, seed, WEDGE_ROUTES[workload],
                           SMOKE_PAIRS if size == "smoke" else None)
    elif workload == "identities":
        ops = identities_corpus(directory, seed, size)
    elif workload == "cli-cold":
        ops = cli_corpus(directory, seed, size)
    else:
        raise ValueError("unknown workload %r" % workload)
    with open(manifest + ".tmp", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "class": seed % CLASSES, "ops": ops}, fh)
    os.replace(manifest + ".tmp", manifest)
    return manifest


def expected(pinned, manifest):
    """Map op name -> (exit code or None, digest) that the op must produce."""
    workload = manifest["workload"]
    cls = str(manifest["class"])
    if workload in WEDGE_ROUTES:
        table = pinned["wedge"][cls][WEDGE_ROUTES[workload]]
        return {op["name"]: (None, table[op["name"]])
                for op in manifest["ops"]}
    if workload == "cli-cold":
        table = pinned["cli"][cls]
        return {op["name"]: tuple(table[op["name"]]) for op in manifest["ops"]}
    true = digest(result_bytes(True))
    return {op["name"]: (None, true) for op in manifest["ops"]}


# ------------------------------------------------------------------ pinning

def _pin_wedge(root, seed):
    """Digests of both routes for one class, after checking them."""
    out = {"diagonal": {}, "displacement": {}}
    base = _base_wedge_documents(os.path.join(root, "perfbench", ".cache"))
    for item in base:
        S, T = _moved(item["left"], seed), _moved(item["right"], seed)
        diag = wedge_diagonal(S, T)
        disp = displacement_product(S, T, generic_vector(S, T))
        if not diag.equals(disp):
            raise AssertionError("routes disagree on %s" % item["name"])
        exp = item["expected"]
        if isinstance(exp, dict):
            if not diag.equals(_moved(exp, seed)):
                raise AssertionError("wrong product on %s" % item["name"])
        elif exp is not None and _point_mass(diag) != Q(exp):
            raise AssertionError("wrong point mass on %s" % item["name"])
        out["diagonal"][item["name"]] = digest(result_bytes(diag))
        out["displacement"][item["name"]] = digest(result_bytes(disp))
    return out


def _pin_cli(root, seed):
    directory = os.path.join(root, "perfbench", ".cache", "pin-cli-%d" % seed)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = {}
    for op in cli_corpus(directory, seed, "full"):
        proc = subprocess.run([sys.executable, "-m", "deltaforms.cli"]
                              + op["argv"], cwd=directory, env=env,
                              capture_output=True, check=False)
        doc = json.loads(proc.stdout)
        if proc.returncode != op["exit"] or proc.stderr:
            raise AssertionError("%s exited %d" % (op["name"],
                                                   proc.returncode))
        if op["name"] == "wedge-both" and doc["verdict"] != "match":
            raise AssertionError("wedge routes disagree in the CLI")
        if op["name"] == "integrate" and doc["value"] != "1/1":
            raise AssertionError("unit square does not integrate to 1")
        if op["name"] == "stokes-check" and not doc["equal"]:
            raise AssertionError("Stokes sides differ")
        out[op["name"]] = [proc.returncode, digest(proc.stdout)]
    shutil.rmtree(directory)
    return out


def pin(root):
    pinned = {"wedge": {}, "cli": {}}
    for seed in range(CLASSES):
        print("pinning class %d of %d" % (seed + 1, CLASSES),
              file=sys.stderr, flush=True)
        pinned["wedge"][str(seed)] = _pin_wedge(root, seed)
        pinned["cli"][str(seed)] = _pin_cli(root, seed)
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python3 perfbench/corpus.py --pin")
    pin(ROOT)
