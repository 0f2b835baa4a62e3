"""Public functions called with arguments that do not fit together.

One row per argument check: the call, the exact exception type it raises
and its exact message.  A check that a row names must fire before any work
is done on the arguments.
"""

import pytest

from deltaforms.currents import (AffineMap, DeltaForm, fundamental_cycle,
                                 pullback_surjective, pushforward)
from deltaforms.intersection import (divisor_intersect, pl_max,
                                     transversal_product, wedge_diagonal)
from deltaforms.polyhedra import ray_from, whole_space
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
]


@pytest.mark.parametrize("call, kind, message", [row[1:] for row in MISUSE],
                         ids=[row[0] for row in MISUSE])
def test_misuse_raises_its_error(call, kind, message):
    with pytest.raises(Exception) as e:
        call()
    assert type(e.value) is kind
    assert str(e.value) == message
