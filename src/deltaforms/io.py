"""Deterministic JSON documents for currents, forms, and reports.

Conventions: rationals are "p/q" strings, generator index sets are 0-based
sorted integer lists, charts are optional on input and always canonical on
output, and serialization is byte-stable (sorted keys, fixed separators).
"""

import json
import re
from fractions import Fraction as Q

from .currents import AffineMap, DeltaForm
from .linalg import Lattice
from .polyhedra import Chart, Complex, Polyhedron, polyhedron
from .scalars import qof, qstr
from .superforms import PLFunction, Poly, SuperForm


class DocumentError(ValueError):
    """Input document malformed or inconsistent with its schema."""


# Largest total degree of a monomial in a document.  Evaluation and affine
# substitution take one multiplication per unit of exponent, so an unbounded
# exponent would let a short document hang the process.
MAX_DEGREE = 64

# The rational pattern of the schemas.  Fraction alone also takes "1.5",
# " 2 " and exponent notation, where "1e100000000" builds an integer of a
# hundred million digits.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

# Most digits in the numerator or the denominator of an input rational.  The
# product of two input weights then stays below Python's 4300-digit limit on
# converting an integer to a string, which writing the output would hit.
MAX_RATIONAL_DIGITS = 1000
_TOO_MANY_DIGITS = (f"rational has more than MAX_RATIONAL_DIGITS = "
                    f"{MAX_RATIONAL_DIGITS} digits in its numerator or denominator")


def _is_int(value):
    """A JSON integer: bool is a subclass of int, but true is not 1."""
    return isinstance(value, int) and not isinstance(value, bool)


# ------------------------------------------------------------------ rationals

def parse_q(value):
    if isinstance(value, bool):
        raise DocumentError("expected a rational, got a boolean")
    if isinstance(value, int):
        if len(str(abs(value))) > MAX_RATIONAL_DIGITS:
            raise DocumentError(_TOO_MANY_DIGITS)
        return Q(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise DocumentError(f"malformed rational {value!r}")
        if any(len(part) > MAX_RATIONAL_DIGITS
               for part in value.lstrip("-").split("/")):
            raise DocumentError(_TOO_MANY_DIGITS)
        try:
            return Q(value)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"malformed rational {value!r}")
    raise DocumentError(f"expected a rational, got {type(value).__name__}")


def q_json(value):
    return qstr(qof(value))


def parse_q_vector(values, n=None):
    if not isinstance(values, list):
        raise DocumentError("expected a list of rationals")
    v = [parse_q(x) for x in values]
    if n is not None and len(v) != n:
        raise DocumentError(f"expected a vector of length {n}, got {len(v)}")
    return v


def vector_json(v):
    return [q_json(x) for x in v]


def parse_vector_text(text):
    """Displacement vector given on the command line as "a/b,c/d,..."."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise DocumentError(f"malformed vector {text!r}")
    return [parse_q(p) for p in parts]


def _require_keys(doc, required, optional=(), what="document"):
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} must be an object")
    missing = [k for k in required if k not in doc]
    if missing:
        raise DocumentError(f"{what} is missing keys {missing}")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise DocumentError(f"{what} has unknown keys {unknown}")


# ----------------------------------------------------------------- polyhedra

def polyhedron_json(cell):
    rows = []
    for r in cell.eq_rows:
        rows.append((r[:-1], r[-1]))
        rows.append((tuple(-x for x in r[:-1]), -r[-1]))
    rows += [(r[:-1], r[-1]) for r in cell.ineq_rows]
    rows.sort()
    return {"n": cell.n,
            "ineqs": [{"a": vector_json(a), "b": q_json(b)}
                      for a, b in rows]}


def _parse_constraint(doc, n, what):
    _require_keys(doc, ["a", "b"], what=what)
    return parse_q_vector(doc["a"], n), parse_q(doc["b"])


def parse_polyhedron(doc):
    _require_keys(doc, ["n", "ineqs"], optional=["eqs"], what="polyhedron")
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise DocumentError("polyhedron dimension must be a nonneg integer")
    if not isinstance(doc["ineqs"], list):
        raise DocumentError("polyhedron inequalities must be a list")
    if not isinstance(doc.get("eqs", []), list):
        raise DocumentError("polyhedron equalities must be a list")
    ineqs = [_parse_constraint(c, n, "inequality") for c in doc["ineqs"]]
    eqs = [_parse_constraint(c, n, "equality") for c in doc.get("eqs", [])]
    cell = polyhedron(n, ineqs, eqs=eqs)
    if cell is None:
        raise DocumentError("polyhedron is empty")
    return cell


# --------------------------------------------------------------- polynomials

def poly_json(p):
    return [{"exps": list(e), "c": q_json(c)}
            for e, c in sorted(p.terms.items())]


def parse_poly(doc, n):
    if not isinstance(doc, list):
        raise DocumentError("polynomial must be a list of monomials")
    terms = {}
    for mono in doc:
        _require_keys(mono, ["exps", "c"], what="monomial")
        exps = mono["exps"]
        if (not isinstance(exps, list) or len(exps) != n
                or any(not _is_int(e) or e < 0 for e in exps)):
            raise DocumentError(f"monomial exponents must be {n} nonneg ints")
        if sum(exps) > MAX_DEGREE:
            raise DocumentError(
                f"monomial total degree exceeds the maximum {MAX_DEGREE}")
        key = tuple(exps)
        if key in terms:
            raise DocumentError("duplicate monomial in polynomial")
        terms[key] = parse_q(mono["c"])
    return Poly(n, terms)


# ---------------------------------------------------------------- superforms

def _index_set_json(idx):
    return [int(i) for i in idx]


def _parse_index_set(doc, n, what):
    if not isinstance(doc, list) or any(not _is_int(i) for i in doc):
        raise DocumentError(f"{what} must be a list of integers")
    if any(i < 0 or i >= n for i in doc):
        raise DocumentError(f"{what} index out of range for {n} variables")
    if list(doc) != sorted(set(doc)):
        raise DocumentError(f"{what} must be strictly increasing")
    return tuple(doc)


def superform_json(form):
    return {"terms": [{"poly": poly_json(p),
                       "dp": _index_set_json(i),
                       "ds": _index_set_json(j)}
                      for (i, j), p in sorted(form.terms.items())]}


def parse_superform(doc, n):
    _require_keys(doc, ["terms"], what="superform")
    if not isinstance(doc["terms"], list):
        raise DocumentError("superform terms must be a list")
    terms = {}
    for term in doc["terms"]:
        _require_keys(term, ["poly", "dp", "ds"], what="superform term")
        key = (_parse_index_set(term["dp"], n, "dp"),
               _parse_index_set(term["ds"], n, "ds"))
        if key in terms:
            raise DocumentError("duplicate generator index pair in superform")
        terms[key] = parse_poly(term["poly"], n)
    return SuperForm(n, terms)


# -------------------------------------------------------------------- charts

def chart_json(chart):
    return {"base": vector_json(chart.base),
            "basis": [[int(x) for x in row] for row in chart.basis]}


def parse_chart(doc, cell):
    """Validate a user-supplied chart of the cell and build it.

    A base point in the cell lies on its affine hull, so containment is the
    one test it needs.  The chart shares the cell's own complement: the
    transition into it reads its dual rows only on span vectors, whose
    coordinates in the basis do not depend on the complement.
    """
    _require_keys(doc, ["base", "basis"], what="chart")
    base = parse_q_vector(doc["base"], cell.n)
    basis_doc = doc["basis"]
    if not isinstance(basis_doc, list) or len(basis_doc) != cell.dim:
        raise DocumentError(f"chart basis must list {cell.dim} vectors")
    basis = []
    for row in basis_doc:
        v = parse_q_vector(row, cell.n)
        if any(x.denominator != 1 for x in v):
            raise DocumentError("chart basis vectors must be integral")
        basis.append([int(x) for x in v])
    lat = Lattice(cell.n, basis)
    if lat != cell.span:
        raise DocumentError("chart basis does not generate the cell lattice")
    if not cell.contains(base):
        raise DocumentError("chart base point does not lie on the cell")
    return Chart(cell.n, base, basis, cell.chart.comp)


# --------------------------------------------------------------- delta-forms

def deltaform_json(T):
    return {"n": T.n,
            "terms": [{"cell": polyhedron_json(cell),
                       "weight": q_json(w),
                       "form": superform_json(form),
                       "chart": chart_json(cell.chart)}
                      for cell, form, w in T.terms]}


def parse_deltaform(doc):
    _require_keys(doc, ["n", "terms"], what="delta-form")
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise DocumentError("delta-form dimension must be a nonneg integer")
    if not isinstance(doc["terms"], list):
        raise DocumentError("delta-form terms must be a list")
    terms = []
    for term in doc["terms"]:
        _require_keys(term, ["cell", "weight", "form"], optional=["chart"],
                      what="delta-form term")
        cell = parse_polyhedron(term["cell"])
        if cell.n != n:
            raise DocumentError("term cell has the wrong ambient dimension")
        weight = parse_q(term["weight"])
        form = parse_superform(term["form"], cell.dim)
        if "chart" in term:
            src = parse_chart(term["chart"], cell)
            rows, shift = cell.chart.transition_to(src)
            form = form.pullback_affine(rows, shift, k=cell.dim)
        terms.append((cell, form, weight))
    return DeltaForm(n, terms)


# ------------------------------------------------------------- PL functions

def plfunction_json(phi):
    cells = sorted(phi.maximal, key=lambda c: c.sort_key)
    pieces = []
    for i, cell in enumerate(cells):
        lin, const = phi.pieces[cell]
        pieces.append({"cell": i, "linear": vector_json(lin),
                       "const": q_json(const)})
    return {"complex": {"cells": [polyhedron_json(c) for c in cells]},
            "pieces": pieces}


def parse_plfunction(doc):
    _require_keys(doc, ["complex", "pieces"], what="PL function")
    _require_keys(doc["complex"], ["cells"], what="complex")
    cells_doc = doc["complex"]["cells"]
    if not isinstance(cells_doc, list) or not cells_doc:
        raise DocumentError("complex must list at least one cell")
    cells = [parse_polyhedron(c) for c in cells_doc]
    cx = Complex(cells)
    if not isinstance(doc["pieces"], list):
        raise DocumentError("PL function pieces must be a list")
    pieces = {}
    for piece in doc["pieces"]:
        _require_keys(piece, ["cell", "linear", "const"], what="piece")
        idx = piece["cell"]
        if not _is_int(idx) or not 0 <= idx < len(cells):
            raise DocumentError(f"piece refers to unknown cell {idx}")
        cell = cells[idx]
        if cell in pieces:
            raise DocumentError(f"duplicate piece for cell {idx}")
        pieces[cell] = (parse_q_vector(piece["linear"], cell.n),
                        parse_q(piece["const"]))
    try:
        return PLFunction(cx, pieces)
    except ValueError as e:
        raise DocumentError(str(e))


# -------------------------------------------------------------- affine maps

def map_json(f):
    return {"lin": [vector_json(row) for row in f.lin],
            "shift": vector_json(f.shift)}


def parse_map(doc):
    _require_keys(doc, ["lin", "shift"], what="affine map")
    lin = doc["lin"]
    if not isinstance(lin, list) or not lin:
        raise DocumentError("affine map needs at least one linear row")
    n = None
    rows = []
    for row in lin:
        v = parse_q_vector(row, n)
        n = len(v)
        rows.append(v)
    shift = parse_q_vector(doc["shift"], len(rows))
    return AffineMap(rows, shift)


# ------------------------------------------------------------------ reports

def jsonable(obj):
    """Best-effort conversion of report payloads to plain JSON values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Q):
        return qstr(obj)
    if isinstance(obj, Polyhedron):
        return polyhedron_json(obj)
    if isinstance(obj, SuperForm):
        return superform_json(obj)
    if isinstance(obj, DeltaForm):
        return deltaform_json(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return str(obj)


def dumps_canonical(doc):
    return json.dumps(jsonable(doc), sort_keys=True,
                      separators=(",", ":")) + "\n"


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror or e}")
    except RecursionError:
        # arrays or objects nested past the interpreter's recursion limit
        raise DocumentError(f"{path} is nested too deeply to decode")
    except ValueError as e:
        # JSONDecodeError, or an integer literal past Python's digit limit
        raise DocumentError(f"{path} is not valid JSON: {e}")
