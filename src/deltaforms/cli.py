"""Command line interface: parse documents, dispatch, print canonical JSON.

Exit codes: 0 on success, 1 on parse or validation errors, 2 on mathematical
precondition violations (with a machine-readable certificate in the error
document), 3 when an internal invariant fails (an AssertionError inside a
verb, reported as kind "internal").  Output is byte-identical across runs
and parallelism settings.
"""

import argparse
import os
import sys

from .currents import PreconditionError, pullback_surjective, pushforward
from .intersection import (displacement_product, generic_vector,
                           product_property_suite, pullback_general,
                           transversal_product, wedge_diagonal)
from .io import (DocumentError, _require_keys, deltaform_json,
                 dumps_canonical, jsonable, load_document, parse_deltaform,
                 parse_map, parse_polyhedron, parse_q, parse_superform,
                 parse_vector_text, q_json, vector_json)
from .polyhedra import ComplexError, WeightedCell
from .superforms import ContinuityError, integrate_top, stokes_check

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3

_OPERATORS = {
    "dP1": "dp_prime",
    "dP2": "dp_second",
    "bd1": "boundary_prime",
    "bd2": "boundary_second",
    "d1": "d_prime",
    "d2": "d_second",
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors surface as document errors."""

    def error(self, message):
        raise DocumentError(message)


def _build_parser():
    parser = _Parser(prog="deltaforms",
                     description="Exact calculus of delta-forms.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check-balance", help="verify the balancing condition")
    p.add_argument("input", help="delta-form document")

    p = sub.add_parser("apply", help="apply a differential operator")
    p.add_argument("--op", required=True, choices=sorted(_OPERATORS))
    p.add_argument("input", help="delta-form document")

    p = sub.add_parser("wedge", help="wedge product of two delta-forms")
    p.add_argument("--method", default="both",
                   choices=["diagonal", "displacement", "both"])
    p.add_argument("--vector", help='displacement vector "a/b,c/d,..."')
    p.add_argument("left", help="delta-form document")
    p.add_argument("right", help="delta-form document")

    p = sub.add_parser("transversal", help="transversal product")
    p.add_argument("left", help="delta-form document")
    p.add_argument("right", help="delta-form document")

    p = sub.add_parser("pushforward", help="push forward along an affine map")
    p.add_argument("--map", required=True, dest="map_path",
                   help="affine map document")
    p.add_argument("input", help="delta-form document")

    p = sub.add_parser("pullback", help="pull back along an affine map")
    p.add_argument("--map", required=True, dest="map_path",
                   help="affine map document")
    p.add_argument("input", help="delta-form document")

    p = sub.add_parser("integrate", help="integrate a top-degree form")
    p.add_argument("input", help="integrand document (cell, weight, form)")

    p = sub.add_parser("stokes-check", help="compare both sides of Stokes")
    p.add_argument("input",
                   help="integrand document (cell, weight, form, which)")

    p = sub.add_parser("eval", help="pair a delta-form with a test form")
    p.add_argument("--window", required=True, help="polyhedron document")
    p.add_argument("input", help="delta-form document")
    p.add_argument("form", help="superform document")

    sub.add_parser("suite", help="run the product property suite")
    return parser


def _parse_integrand(path, need_which=False):
    doc = load_document(path)
    required = ["cell", "form"]
    optional = ["weight"]
    if need_which:
        required.append("which")
    _require_keys(doc, required, optional=optional, what="integrand")
    cell = parse_polyhedron(doc["cell"])
    weight = parse_q(doc.get("weight", 1))
    form = parse_superform(doc["form"], cell.n)
    which = None
    if need_which:
        which = doc["which"]
        if which not in ("first", "second"):
            raise DocumentError('"which" must be "first" or "second"')
    return WeightedCell(cell, weight), form, which


def _run_check_balance(args):
    T = parse_deltaform(load_document(args.input))
    ok, cert = T.is_balanced()
    if not ok:
        raise PreconditionError("delta-form is not balanced", cert)
    return {"balanced": True}


def _run_apply(args):
    T = parse_deltaform(load_document(args.input))
    result = getattr(T, _OPERATORS[args.op])()
    return deltaform_json(result)


def _parse_factors(args):
    S = parse_deltaform(load_document(args.left))
    T = parse_deltaform(load_document(args.right))
    if S.n != T.n:
        raise DocumentError("right factor dimension does not match the left")
    return S, T


def _run_wedge(args):
    S, T = _parse_factors(args)
    if args.vector is not None and args.method == "diagonal":
        raise DocumentError("--vector applies to the displacement method")
    if args.method == "diagonal":
        return deltaform_json(wedge_diagonal(S, T))
    vector = (parse_vector_text(args.vector) if args.vector is not None
              else generic_vector(S, T))
    if len(vector) != S.n:
        raise DocumentError(
            f"displacement vector must have {S.n} coordinates")
    if args.method == "displacement":
        return deltaform_json(displacement_product(S, T, vector))
    diag = wedge_diagonal(S, T)
    disp = displacement_product(S, T, vector)
    return {"diagonal": deltaform_json(diag),
            "displacement": deltaform_json(disp),
            "vector": vector_json(vector),
            "verdict": "match" if diag.equals(disp) else "mismatch"}


def _run_transversal(args):
    S, T = _parse_factors(args)
    return deltaform_json(transversal_product(S, T))


def _run_pushforward(args):
    f = parse_map(load_document(args.map_path))
    T = parse_deltaform(load_document(args.input))
    if f.n != T.n:
        raise DocumentError("map source dimension does not match the input")
    return deltaform_json(pushforward(f, T))


def _run_pullback(args):
    f = parse_map(load_document(args.map_path))
    S = parse_deltaform(load_document(args.input))
    if f.m != S.n:
        raise DocumentError("map target dimension does not match the input")
    if f.is_surjective():
        return deltaform_json(pullback_surjective(f, S))
    return deltaform_json(pullback_general(f, S))


def _run_integrate(args):
    wc, form, _ = _parse_integrand(args.input)
    return {"value": q_json(integrate_top(form, wc))}


def _run_stokes_check(args):
    wc, form, which = _parse_integrand(args.input, need_which=True)
    lhs, rhs, equal = stokes_check(form, wc, which)
    return {"lhs": q_json(lhs), "rhs": q_json(rhs), "equal": equal}


def _run_eval(args):
    T = parse_deltaform(load_document(args.input))
    eta = parse_superform(load_document(args.form), T.n)
    window = parse_polyhedron(load_document(args.window))
    if window.n != T.n:
        raise DocumentError("window has the wrong ambient dimension")
    return {"value": q_json(T.eval_pairing(eta, window))}


def _run_suite(args):
    return product_property_suite()


_HANDLERS = {
    "check-balance": _run_check_balance,
    "apply": _run_apply,
    "wedge": _run_wedge,
    "transversal": _run_transversal,
    "pushforward": _run_pushforward,
    "pullback": _run_pullback,
    "integrate": _run_integrate,
    "stokes-check": _run_stokes_check,
    "eval": _run_eval,
    "suite": _run_suite,
}


def _parallelism_from_env():
    raw = os.environ.get("DELTAFORMS_PARALLELISM", "1")
    try:
        value = int(raw)
    except ValueError:
        raise DocumentError(
            f"DELTAFORMS_PARALLELISM must be an integer, got {raw!r}")
    if value < 1:
        raise DocumentError("DELTAFORMS_PARALLELISM must be at least 1")
    return value


def main(argv=None):
    out = sys.stdout
    try:
        _parallelism_from_env()  # accepted and validated; work is sequential
        args = _build_parser().parse_args(argv)
        document = _HANDLERS[args.verb](args)
    except DocumentError as e:
        out.write(dumps_canonical(
            {"error": {"kind": "parse", "message": str(e)}}))
        return EXIT_PARSE
    except (PreconditionError, ContinuityError, ComplexError) as e:
        out.write(dumps_canonical(
            {"error": {"kind": "precondition", "message": str(e),
                       "certificate": jsonable(e.certificate)}}))
        return EXIT_PRECONDITION
    except ValueError as e:
        out.write(dumps_canonical(
            {"error": {"kind": "precondition", "message": str(e),
                       "certificate": None}}))
        return EXIT_PRECONDITION
    except AssertionError as e:
        out.write(dumps_canonical(
            {"error": {"kind": "internal", "message": str(e)}}))
        return EXIT_INTERNAL
    out.write(dumps_canonical(document))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
