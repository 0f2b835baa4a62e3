"""Outside tracer for deltaforms: spans around each module's public functions.

``Tracer.install()`` wraps every public function and method defined in the
layer modules, plus a few named private entry points, and rebinds each
wrapper everywhere the original is bound: ``from .lp import lp_feasible``
copies the function into ``polyhedra`` and ``intersection``, so patching
``deltaforms.lp`` alone would miss most solves.  After patching, the garbage
collector is asked for every remaining reference to an original; any that is
not the wrapper's own makes ``install`` raise, so no call can go unseen.

A span records its name, start, end, parent and an optional note taken from
the call (the LP field, a result status, a size).  Spans stay in memory until
``summary()`` folds them into per-layer counts and self times; a span's self
time is its duration minus the time its child spans cover.  Time spent in
private helpers and operator methods counts toward the wrapped function that
called them.

Run as a script, it is a traced stand-in for ``python -m deltaforms.cli``
that, like cli_child.py, also times the calibration around the command:

    python3 perfbench/tracer.py STATS_FILE SPAWN_TIME -- ARGS...
"""

import time

_STARTED = time.monotonic()

import functools  # noqa: E402
import gc  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from fractions import Fraction  # noqa: E402

from calibration import calibration  # noqa: E402

LAYERS = ("scalars", "linalg", "lp", "polyhedra", "superforms", "currents",
          "intersection", "io", "cli")

# Private functions that are layer entry points in their own right.
PRIVATE_TARGETS = {
    "lp": ("_Simplex.run",),
    "scalars": ("EpsRational.__init__",),
    "currents": ("_boundary", "_boundary_contraction"),
}

# Public helpers called once per scalar or per row.  Wrapping them would
# multiply the tracer's overhead; their time counts toward their caller.
SKIPPED = {
    "scalars": ("qof", "qstr", "EpsRational.*"),
    "linalg": ("vec_dot", "vec_sub", "vec_add", "vec_scale", "mat_mul_vec",
               "mat_copy"),
    "polyhedra": ("Polyhedron.eqs_rational", "Polyhedron.ineqs_rational",
                  "Polyhedron.contains"),
}

# Per-layer metric name -> span names it sums over.
NAMED = {
    "polyhedra.polyhedron": ("polyhedra.polyhedron",),
    "polyhedra.facets": ("polyhedra.Polyhedron.facets",),
    "polyhedra.relint_point": ("polyhedra.Polyhedron.relint_point",),
    "polyhedra.intersect": ("polyhedra.intersect",),
    "currents.slice_cell": ("currents.slice_cell",),
    "currents.transport_form": ("currents.transport_form",),
    "currents.equals": ("currents.DeltaForm.equals",),
    "currents.refine": ("currents.DeltaForm.refine",),
    "currents.is_balanced": ("currents.DeltaForm.is_balanced",),
    "currents.boundary": ("currents._boundary",
                          "currents._boundary_contraction"),
    "currents.pushforward": ("currents.pushforward",),
    "currents.exterior_product": ("currents.exterior_product",),
    "superforms.pullback_affine": ("superforms.SuperForm.pullback_affine",),
    "superforms.wedge": ("superforms.SuperForm.wedge",),
    "superforms.compose_affine": ("superforms.Poly.compose_affine",),
    "superforms.integrate_top": ("superforms.integrate_top",),
    "linalg.rref": ("linalg.rref",),
    "linalg.det": ("linalg.det",),
    "linalg.invert": ("linalg.invert",),
    "linalg.hnf": ("linalg.hnf",),
    "linalg.smith_normal_form": ("linalg.smith_normal_form",),
    "intersection.wedge_diagonal": ("intersection.wedge_diagonal",),
    "intersection.displacement_product": (
        "intersection.displacement_product",),
    "intersection.generic_vector": ("intersection.generic_vector",),
    "intersection.divisor_intersect": ("intersection.divisor_intersect",),
    "io.load_document": ("io.load_document",),
    "io.parse_deltaform": ("io.parse_deltaform",),
    "io.deltaform_json": ("io.deltaform_json",),
    "io.dumps_canonical": ("io.dumps_canonical",),
}


class TraceError(RuntimeError):
    pass


def _file_size(args, result):
    try:
        return os.path.getsize(args[0])
    except (OSError, TypeError, IndexError):
        return 0


# Span name -> note(args, result) kept with the span.  ``result`` is None
# when the call raised.
NOTES = {
    "lp._Simplex.run": lambda args, result: args[0].field is not Fraction,
    "lp.lp_feasible": lambda args, result: (
        result is not None and result.status == "infeasible"),
    "polyhedra.polyhedron": lambda args, result: (
        None if result is None else result.key),
    "currents.slice_cell": lambda args, result: (
        len(args[1]), 0 if result is None else len(result)),
    "io.load_document": _file_size,
    "io.dumps_canonical": lambda args, result: (
        0 if result is None else len(result.encode())),
}


def _skipped(layer, qualname):
    for pattern in SKIPPED.get(layer, ()):
        if qualname == pattern or (pattern.endswith(".*") and
                                   qualname.startswith(pattern[:-1])):
            return True
    return False


def _targets(module, layer):
    """(qualname, function) for each function to wrap in a module."""
    private = PRIVATE_TARGETS.get(layer, ())
    out = []
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if not name.startswith("_") or name in private:
                out.append((name, obj))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in vars(obj).items():
                qual = "%s.%s" % (name, attr)
                if attr.startswith("_") and qual not in private:
                    continue
                raw = getattr(raw, "__func__", raw)  # static/class methods
                if inspect.isfunction(raw):
                    out.append((qual, raw))
    return [t for t in out if t[0] in private or not _skipped(layer, t[0])]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.originals = {}

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                note(args, result) if note else None)

        return wrapper

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span of the given name (e.g. one op)."""
        return self.wrap(name, fn)(*args)

    def install(self):
        """Wrap the layer functions of every loaded deltaforms module."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "deltaforms" or name.startswith("deltaforms.")}
        replace = {}
        for layer in LAYERS:
            module = modules.get("deltaforms." + layer)
            if module is None:
                continue
            for qual, fn in _targets(module, layer):
                wrapper = self.wrap("%s.%s" % (layer, qual), fn)
                self.originals[fn] = wrapper
                replace[id(fn)] = wrapper
        for module in modules.values():
            holders = [module] + [obj for obj in vars(module).values()
                                  if inspect.isclass(obj)
                                  and obj.__module__ == module.__name__]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    wrapper = replace.get(id(getattr(value, "__func__",
                                                     value)))
                    if wrapper is None:
                        continue
                    if isinstance(value, (staticmethod, classmethod)):
                        wrapper = type(value)(wrapper)
                    setattr(holder, key, wrapper)
        self._check_unpatched()

    def _check_unpatched(self):
        """Raise if anything but a wrapper still refers to an original."""
        allowed = {id(self.originals), id(self.stack), id(self.spans)}
        for wrapper in self.originals.values():
            allowed.add(id(wrapper.__dict__))
            allowed.update(id(cell) for cell in wrapper.__closure__)
        for ref in gc.get_referrers(*self.originals):
            # a frame holds a local of the installing code, not a binding
            if id(ref) in allowed or isinstance(ref, types.FrameType):
                continue
            if (isinstance(ref, dict)
                    and ref.get("__wrapped__") in self.originals):
                continue
            names = [fn.__qualname__ for fn in self.originals
                     if _refers(ref, fn)]
            if names:
                raise TraceError("unpatched reference to %s in %s" % (
                    ", ".join(sorted(names)), type(ref).__name__))

    def summary(self):
        """Fold the spans into per-name and per-layer totals."""
        spans = self.spans
        count = len(spans)
        child_time = [0.0] * count
        eps = [False] * count
        in_op = [False] * count
        for i, (name, start, end, parent, note) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_op[i] = in_op[parent] or spans[parent][0] == "op"
        for i in range(count - 1, -1, -1):
            name, _, _, parent, note = spans[i]
            if name == "lp._Simplex.run" and note:
                eps[i] = True
            if eps[i] and parent >= 0 and spans[parent][0].startswith("lp."):
                eps[parent] = True
        calls, self_s = {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        extra = {"lp.solves": 0, "lp.eps_solves": 0, "lp.eps_self_s": 0.0,
                 "lp.feasible_calls": 0, "lp.infeasible": 0,
                 "polyhedra.polyhedron.empty": 0,
                 "currents.slice_cell.hyperplanes": 0,
                 "currents.slice_cell.pieces": 0,
                 "intersection.generic_vector.tries": 0,
                 "io.bytes_in": 0, "io.bytes_out": 0, "io.op_calls": 0}
        distinct = set()
        for i, (name, start, end, parent, note) in enumerate(spans):
            own = end - start - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            layer = name.split(".", 1)[0]
            if layer == "lp" and eps[i]:
                extra["lp.eps_self_s"] += own
            elif layer in layer_self:
                layer_self[layer] += own
            if name == "lp._Simplex.run":
                extra["lp.eps_solves" if note else "lp.solves"] += 1
            elif name == "lp.lp_feasible":
                extra["lp.feasible_calls"] += 1
                extra["lp.infeasible"] += bool(note)
            elif name == "polyhedra.polyhedron":
                if note is None:
                    extra["polyhedra.polyhedron.empty"] += 1
                else:
                    distinct.add(note)
            elif name == "currents.slice_cell":
                extra["currents.slice_cell.hyperplanes"] += note[0]
                extra["currents.slice_cell.pieces"] += note[1]
            elif (name == "intersection.is_generic" and parent >= 0
                  and spans[parent][0] == "intersection.generic_vector"):
                extra["intersection.generic_vector.tries"] += 1
            elif name == "io.load_document":
                extra["io.bytes_in"] += note
            elif name == "io.dumps_canonical":
                extra["io.bytes_out"] += note
            if layer == "io" and in_op[i]:
                extra["io.op_calls"] += 1
        extra["polyhedra.polyhedron.distinct"] = len(distinct)
        return {"calls": calls, "self_s": self_s, "layer_self_s": layer_self,
                "extra": extra}


def _refers(container, fn):
    if isinstance(container, dict):
        return any(v is fn for v in container.values())
    if isinstance(container, (list, tuple, set, frozenset)):
        return any(v is fn for v in container)
    if isinstance(container, types.CellType):
        return container.cell_contents is fn
    return True  # an unknown holder: assume the worst


def merge(total, part):
    """Add one summary into another (CLI children into their pass)."""
    for key in ("calls", "self_s", "layer_self_s", "extra"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    return total


def _traced_cli():
    """Run the CLI traced: ``tracer.py STATS_FILE SPAWN_TIME -- ARGS...``."""
    started = _STARTED
    stats_path, spawned = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[4:]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    before = calibration()
    importing = time.monotonic()
    import deltaforms.cli
    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span("op", deltaforms.cli.main, argv)
    finally:
        sys.stdout.flush()
        after = calibration()
        stats = tracer.summary()
        stats["cli"] = {"interpreter_s": started - spawned,
                        "import_s": imported - importing}
        stats["calibration"] = [before, after]
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(_traced_cli())
