"""Public functions called with arguments that do not fit together.

One row per argument check: the call, the exact exception type it raises
and its exact message.  A check that a row names must fire before any work
is done on the arguments.
"""

import pytest

from deltaforms.currents import (AffineMap, DeltaForm, fundamental_cycle,
                                 ps_multiply, pullback_surjective, pushforward)
from deltaforms.intersection import (displacement_product, divisor_intersect,
                                     pl_max, pullback_general, transversal_product,
                                     value_form, wedge_diagonal)
from deltaforms.polyhedra import Complex, WeightedCell, box, polyhedron, ray_from, whole_space
from deltaforms.superforms import (PiecewiseForm, PLFunction, Poly, SuperForm,
                                   boundary_integral, integrate_top)


def half_planes():
    """x <= 0 and x >= 0 in R^2, a complex with two maximal cells."""
    return polyhedron(2, [([1, 0], 0)]), polyhedron(2, [([-1, 0], 0)])


def tropical_line():
    return DeltaForm(2, [(ray_from([0, 0], d), SuperForm.scalar(1, 1), 1)
                         for d in ([1, 0], [0, 1], [-1, -1])])


MISUSE = [
    ("pushforward with a map from R^3 on a current in R^2",
     lambda: pushforward(AffineMap.identity(3), tropical_line()),
     ValueError, "map domain does not match the current"),
    ("pullback_surjective with a map into R^3 on a current in R^2",
     lambda: pullback_surjective(AffineMap.identity(3), tropical_line()),
     ValueError, "map target does not match the current"),
    ("pullback_surjective with a map of rank 1 into R^2",
     lambda: pullback_surjective(AffineMap([[1, 2], [2, 4]], [0, 0]),
                                 tropical_line()),
     ValueError, "map is not surjective; use the general pull-back"),
    ("wedge_diagonal with factors in R^2 and R^3",
     lambda: wedge_diagonal(tropical_line(), fundamental_cycle(3)),
     ValueError, "wedge factors live in different spaces"),
    ("DeltaForm in R^3 with a cell of R^2",
     lambda: DeltaForm(3, [(whole_space(2), SuperForm.scalar(2, 1), 1)]),
     ValueError, "cell lives in the wrong ambient space"),
    ("DeltaForm with a number as coefficient",
     lambda: DeltaForm(2, [(whole_space(2), 1, 1)]),
     TypeError, "coefficient must be a SuperForm"),
    ("DeltaForm with an ambient coefficient on a ray",
     lambda: DeltaForm(2, [(ray_from([0, 0], [1, 0]), SuperForm.scalar(2, 1), 1)]),
     ValueError, "coefficient must be written in the chart coordinates of its cell"),
    ("divisor_intersect with a function on R^3 and a current in R^2",
     lambda: divisor_intersect(pl_max(3, [([1, 0, 0], 0), ([0, 1, 0], 0)]),
                               tropical_line()),
     ValueError, "function lives in the wrong ambient space"),
    ("transversal_product with factors in R^2 and R^3",
     lambda: transversal_product(tropical_line(), fundamental_cycle(3)),
     ValueError, "product factors live in different spaces"),
    ("displacement_product with factors in R^2 and R^3",
     lambda: displacement_product(tropical_line(), fundamental_cycle(3), [1, 2, 3]),
     ValueError, "product factors live in different spaces"),
    ("ps_multiply with a piecewise form on R^3 and a current in R^2",
     lambda: ps_multiply(value_form(pl_max(3, [([1, 0, 0], 0), ([0, 1, 0], 0)])),
                         tropical_line()),
     ValueError, "piecewise form lives in the wrong ambient space"),
    ("pullback_general with a map into R^3 on a current in R^2",
     lambda: pullback_general(AffineMap.identity(3), tropical_line()),
     ValueError, "map target does not match the current"),
    ("eval_pairing over an unbounded window",
     lambda: fundamental_cycle(2).eval_pairing(SuperForm.zero(2), whole_space(2)),
     ValueError, "evaluation window must be bounded"),
    ("eval_pairing over a window in R^3 for a current in R^2",
     lambda: fundamental_cycle(2).eval_pairing(SuperForm.zero(2),
                                               box([0, 0, 0], [1, 1, 1])),
     ValueError, "evaluation window lives in the wrong ambient space"),
    ("eval_pairing with a test form on R^3 for a current in R^2",
     lambda: fundamental_cycle(2).eval_pairing(SuperForm.zero(3), box([0, 0], [1, 1])),
     ValueError, "test form lives in the wrong ambient space"),
    ("eval_pairing on a current of degrees (0, 0) and (1, 1)",
     lambda: (fundamental_cycle(2) + tropical_line()).eval_pairing(
         SuperForm.scalar(2, 1), box([0, 0], [1, 1])),
     ValueError, "bidegree mismatch: current degree is not uniform"),
    ("eval_pairing of the fundamental cycle with a (0, 0) test form",
     lambda: fundamental_cycle(2).eval_pairing(SuperForm.scalar(2, 1), box([0, 0], [1, 1])),
     ValueError, "bidegree mismatch: test form has bidegree (0, 0), expected (2, 2)"),
    ("contract of the zero form in an unknown slot",
     lambda: SuperForm.zero(2).contract([1, 0], "bogus"),
     ValueError, "slot must be 'prime' or 'second'"),
    ("Poly in 2 variables with an exponent tuple of length 1",
     lambda: Poly(2, {(1,): 1}),
     ValueError, "bad exponent tuple"),
    ("constant_value of the polynomial x",
     lambda: Poly.variable(1, 0).constant_value(),
     ValueError, "not a constant polynomial"),
    ("sum of polynomials in 2 and 3 variables",
     lambda: Poly.variable(2, 0) + Poly.variable(3, 0),
     ValueError, "variable count mismatch"),
    ("SuperForm on R^2 with a coefficient in 3 variables",
     lambda: SuperForm(2, {((), ()): Poly.const(3, 1)}),
     ValueError, "coefficient variable count mismatch"),
    ("SuperForm on R^2 with the generator d'x2",
     lambda: SuperForm(2, {((2,), ()): 1}),
     ValueError, "generator index out of range"),
    ("bidegree of a form of bidegrees (0, 0) and (1, 0)",
     lambda: (SuperForm.scalar(2, 1) + SuperForm.d_prime_x(2, 0)).bidegree(),
     ValueError, "form has mixed bidegree"),
    ("sum of forms on R^2 and R^3",
     lambda: SuperForm.zero(2) + SuperForm.zero(3),
     ValueError, "ambient dimension mismatch"),
    ("contract of a form on R^2 with a vector of R^1",
     lambda: SuperForm.d_prime_x(2, 0).contract([1], "prime"),
     ValueError, "vector dimension mismatch"),
    ("pullback_affine of a form on R^2 along a map into R^1",
     lambda: SuperForm.scalar(2, 1).pullback_affine([[1]], [0]),
     ValueError, "affine map shape mismatch"),
    ("restrict of a form on R^3 to a chart of R^2",
     lambda: SuperForm.scalar(3, 1).restrict(whole_space(2).chart),
     ValueError, "ambient dimension mismatch"),
    ("integrate_top of a form on R^3 over a cell of R^2",
     lambda: integrate_top(SuperForm.zero(3), WeightedCell(box([0, 0], [1, 1]), 1)),
     ValueError, "ambient dimension mismatch"),
    ("boundary_integral over an unbounded cell",
     lambda: boundary_integral(SuperForm.zero(2), WeightedCell(whole_space(2), 1), "first"),
     ValueError, "cannot integrate over an unbounded cell"),
    ("boundary_integral of the first kind of a (0, 0) form over a square",
     lambda: boundary_integral(SuperForm.scalar(2, 1),
                               WeightedCell(box([0, 0], [1, 1]), 1), "first"),
     ValueError, "form bidegree (0, 0) does not match (1, 2)"),
    ("PLFunction on R^2 with a linear part of length 1",
     lambda: PLFunction(Complex([whole_space(2)]), {whole_space(2): ([1], 0)}),
     ValueError, "linear part has wrong dimension"),
    ("PiecewiseForm with no piece on the one maximal cell",
     lambda: PiecewiseForm(Complex([whole_space(2)]), {}),
     ValueError, "pieces must cover exactly the maximal cells"),
    ("PiecewiseForm on R^2 with a form on R^3",
     lambda: PiecewiseForm(Complex([whole_space(2)]),
                           {whole_space(2): SuperForm.scalar(3, 1)}),
     ValueError, "form ambient dimension mismatch"),
    ("PiecewiseForm with pieces of bidegrees (0, 0) and (1, 0)",
     lambda: PiecewiseForm(Complex(half_planes()),
                           dict(zip(half_planes(), [SuperForm.scalar(2, 1),
                                                    SuperForm.d_prime_x(2, 0)]))),
     ValueError, "pieces have mixed bidegree"),
]


@pytest.mark.parametrize("call, kind, message", [row[1:] for row in MISUSE],
                         ids=[row[0] for row in MISUSE])
def test_misuse_raises_its_error(call, kind, message):
    with pytest.raises(Exception) as e:
        call()
    assert type(e.value) is kind
    assert str(e.value) == message
