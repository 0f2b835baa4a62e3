"""Source hygiene checks on the library modules.

The static checks use only the stdlib ast: no unused import, no function
that only the tests reach, and no float.  The runtime checks run seeded
corpora and assert that every coefficient the superform layer builds is in
its normal form: an int when integral, else a Fraction.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import test_bernstein as bernstein
from deltaforms import superforms
from deltaforms.currents import (DeltaForm, boundary_prime_via_contraction,
                                 boundary_second_via_contraction,
                                 fundamental_cycle)
from deltaforms.intersection import (displacement_product, generic_vector, pl_max,
                                     product_property_suite, wedge_diagonal)
from deltaforms.polyhedra import WeightedCell, box, segment
from deltaforms.superforms import Poly, SuperForm, integrate_top, stokes_check

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deltaforms"


def _imported_names(tree):
    """(name, line) for each name an import statement binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _used_names(tree):
    """Every bare name the module reads, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_no_unused_imports_in_library_modules():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    names = {p.name for p in modules}
    assert {"polyhedra.py", "currents.py", "io.py", "cli.py"} <= names, (
        "found no library modules under %s" % PACKAGE)
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used_names(tree)
        unused += ["%s:%d imports %s" % (path.name, line, name)
                   for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("__init__.py defines no __all__")


def test_every_library_function_is_used_in_the_library_or_exported():
    """A module-level function that only the tests reach belongs in the tests.

    A function counts as used when some code in src/ other than its own body
    names it, or when the package exports it.
    """
    exported = _exported_names()
    defined = []
    readers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = (path.name, node.name)
                defined.append(owner)
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None:
                    readers.setdefault(name, set()).add(owner)
    assert len(defined) > 50, "found too few library functions under %s" % PACKAGE
    unused = ["%s: %s" % (module, name) for module, name in defined
              if name not in exported
              and not readers.get(name, set()) - {(module, name)}]
    assert not unused, "functions used only outside src/:\n" + "\n".join(unused)


# -------------------------------------------------------------- no floats --

def _float_sites(tree):
    """(line, what) for each float constant, float( or round( call and true
    division in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, "float constant %r" % node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            out.append((node.lineno, "%s( call" % node.func.id))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append((node.lineno, "true division"))
    return out


def test_library_modules_make_no_float():
    """Exact arithmetic only: a ratio is Q(a, b) or linalg._ratio, never a / b."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += ["%s:%d %s" % (path.name, line, what) for line, what in _float_sites(tree)]
    assert not sites, "floats in the library:\n" + "\n".join(sites)


def test_the_float_scan_sees_each_kind():
    tree = ast.parse("a = 0.5\nb = float(a)\nc = round(b)\nd = a / 2\nd /= 3\ne = a // 2\n")
    assert sorted(_float_sites(tree)) == [
        (1, "float constant 0.5"), (2, "float( call"), (3, "round( call"),
        (4, "true division"), (5, "true division")]


# --------------------------------------- coefficients in their normal form --

def _assert_normal(c):
    """An int when the value is integral, else a Fraction with denominator > 1."""
    assert type(c) in (int, Fraction), repr(c)
    assert (type(c) is int) == (c.denominator == 1), repr(c)


@pytest.fixture
def built_polys(monkeypatch):
    """Check every coefficient of every Poly that superform arithmetic builds.

    Each arithmetic result goes through superforms._poly; the fixture wraps
    it and collects the coefficients it saw.
    """
    seen = []
    real = superforms._poly

    def checked(n, terms):
        for c in terms.values():
            assert c != 0
            _assert_normal(c)
        seen.extend(terms.values())
        return real(n, terms)

    monkeypatch.setattr(superforms, "_poly", checked)
    return seen


def _current_coefficients(T):
    return [c for _, form, _ in T.terms for p in form.terms.values()
            for c in p.terms.values()]


def _rational(rng):
    """A nonzero rational with denominator 1, 2 or 3."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3))


def _rational_poly(rng, n):
    return Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)): _rational(rng)
                    for _ in range(3)})


# generator index pairs of a global form that restricts to a nonzero form
# of bidegree (1, 0), (0, 1), (1, 2) or (2, 1) on a cell of each shape
_KEYS = {(1, 1): [((0,), ()), ((), (0,))],
         (2, 2): [((0,), (0, 1)), ((0, 1), (1,))],
         (2, 1): [((0,), ()), ((), (1,))]}


def _cell_currents(rng):
    """Intervals, boxes in R^2 and segments in R^2, each with a restricted
    global form of rational coefficients and a rational weight: balanced,
    with nonzero boundaries."""
    out = []
    for _ in range(4):
        lo = [_rational(rng) for _ in range(2)]
        hi = [x + abs(_rational(rng)) for x in lo]
        cells = [box(lo[:1], hi[:1]), box(lo, hi), segment(lo, hi)]
        for cell in cells:
            key = rng.choice(_KEYS[cell.n, cell.dim])
            g = SuperForm(cell.n, {key: _rational_poly(rng, cell.n)})
            out.append(DeltaForm(cell.n, [(cell, g.restrict(cell.chart), _rational(rng))]))
    return out


def test_bernstein_products_keep_the_normal_form(built_polys):
    for k, (A, B) in enumerate(bernstein.cases()[:4]):
        rng = random.Random(3203 + k)
        S, T = bernstein.curve(rng, A), bernstein.curve(rng, B)
        for P in (wedge_diagonal(S, T),
                  displacement_product(S, T, generic_vector(S, T))):
            assert P.terms
            for c in _current_coefficients(P):
                _assert_normal(c)
    assert built_polys


def test_boundaries_and_pairings_keep_the_normal_form(built_polys):
    rng = random.Random(3301)
    kinds = set()
    for T in _cell_currents(rng):
        for B in (T.boundary_prime(), T.boundary_second(),
                  boundary_prime_via_contraction(T),
                  boundary_second_via_contraction(T), T.d_prime(), T.d_second()):
            for c in _current_coefficients(B):
                _assert_normal(c)
                kinds.add(type(c))
        n, (cell, form, _) = T.n, T.terms[0]
        (p, q), = form.bidegrees()
        r = n - cell.dim
        eta = SuperForm(n, {(tuple(range(n - p - r)), tuple(range(n - q - r))):
                            _rational_poly(rng, n)})
        value = T.eval_pairing(eta, box([-9] * n, [9] * n))
        assert type(value) is Fraction  # a public scalar result stays a Fraction
    assert kinds == {int, Fraction}
    assert {type(c) for c in built_polys} == {int, Fraction}


def test_the_product_suite_keeps_the_normal_form(built_polys):
    assert product_property_suite()["ok"]
    assert built_polys


def test_public_scalar_results_stay_fractions_when_integral():
    square = box([0, 0], [1, 1])
    top = SuperForm(2, {((0, 1), (0, 1)): Poly.const(2, 2)})
    value = integrate_top(top, WeightedCell(square, 1))
    assert value == -2 and type(value) is Fraction
    alpha = SuperForm(2, {((0,), (0, 1)): Poly.variable(2, 1)})
    lhs, rhs, ok = stokes_check(alpha, WeightedCell(square, 3), "first")
    assert ok and lhs == rhs == 3
    assert type(lhs) is Fraction and type(rhs) is Fraction
    paired = fundamental_cycle(2).eval_pairing(top, square)
    assert paired == -2 and type(paired) is Fraction
    f = pl_max(2, [([1, 0], 0), ([0, 1], 0)])
    assert f.value([3, 1]) == 3 and type(f.value([3, 1])) is Fraction
    assert Poly(1, {(0,): "3"}).constant_value() == 3
    assert type(Poly(1, {(0,): "3"}).constant_value()) is int
    assert type(Poly(1, {}).constant_value()) is int
