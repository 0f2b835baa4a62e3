"""The containment test that deltaforms.polyhedra.maximal_cells_of used
before it read containment off each cell's cached generators.

Kept verbatim as the reference oracle for the tests, and not collected by
pytest: a cell is contained in another exactly when their intersection,
canonicalized through polyhedron(), is the cell itself.
"""

from deltaforms.polyhedra import intersect


def maximal_cells_of(cells):
    """The cells contained in no other cell of the list, in list order."""
    return [c for c in cells
            if not any(o != c and intersect(c, o) == c for o in cells)]
