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
from deltaforms.polyhedra import box, ray_from, whole_space
from deltaforms.superforms import SuperForm


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
]


@pytest.mark.parametrize("call, kind, message", [row[1:] for row in MISUSE],
                         ids=[row[0] for row in MISUSE])
def test_misuse_raises_its_error(call, kind, message):
    with pytest.raises(Exception) as e:
        call()
    assert type(e.value) is kind
    assert str(e.value) == message
