#!/usr/bin/env bash
# End-to-end checks of the installed `deltaforms` console script.
#
#     bash tools/console_checks.sh
#
# Needs `deltaforms` on PATH (pip install -e .).  Runs from the repository
# root, writes its documents to a temporary directory, and exits nonzero at
# the first check that fails.
set -eu
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The product-property suite: every verdict must be true.
deltaforms suite > "$work/suite.json"
python -c 'import json, sys; d = json.load(open(sys.argv[1])); print(d); sys.exit(None if d and all(v is True for v in d.values()) else "not every verdict is true")' "$work/suite.json"

# A document of 200,000 nested arrays (400 KB) is a parse error: exit 1
# with one error document, not a RecursionError traceback.
python -c 'print("[" * 200000 + "]" * 200000)' > "$work/nested.json"
status=0
out=$(timeout 10 deltaforms integrate "$work/nested.json") || status=$?
echo "$out"
test "$status" = 1
echo "$out" | grep -q '"kind":"parse"'

# The unit 8-cube has 8! simplices in a triangulation but only 3^8
# faces, so its volume comes back in about a second from the facet
# recursion and not at all from a triangulation.
python -c '
import json
n = 8
rows = [{"a": ["%d/1" % (s * (j == i)) for j in range(n)], "b": "%d/1" % max(s, 0)}
        for i in range(n) for s in (1, -1)]
form = {"terms": [{"dp": list(range(n)), "ds": list(range(n)),
                   "poly": [{"exps": [0] * n, "c": "1/1"}]}]}
print(json.dumps({"cell": {"n": n, "ineqs": rows}, "form": form}))
' > "$work/cube8.json"
out=$(timeout 60 deltaforms integrate "$work/cube8.json")
echo "$out"
test "$out" = '{"value":"1/1"}'

# The diagonal route walks each pair of factor cells to the diagonal,
# and the displacement route shifts one factor and keeps the pairs
# that still meet, so each flagship pair checks the product end to end
# against an independent route.  The tenth pair is in R^3: at
# the vector (1, 1, 1) two of its closed cells meet in a point below
# the expected dimension, which the displacement route must count as
# zero.  The documents come from perfbench/corpus.py, not the tracer.
mkdir -p "$work/flagship"
python -c '
import json, os, sys
sys.path.insert(0, "perfbench")
from corpus import _base_wedge_documents
from deltaforms import corner_locus, deltaform_json, pl_max
out = sys.argv[1]
docs = [(item["left"], item["right"])
        for item in _base_wedge_documents(os.path.join(out, "cache"))]
docs.append(tuple(deltaform_json(corner_locus(pl_max(3, affines))) for affines in (
    [([0, -1, 1], 0), ([0, -1, -1], -3), ([-1, 0, 1], -1)],
    [([-1, 1, 1], -1), ([0, -1, -1], -1), ([-1, -1, 1], 3)])))
for k, pair in enumerate(docs):
    for side, doc in zip(("left", "right"), pair):
        with open(os.path.join(out, "p%d-%s.json" % (k, side)), "w") as fh:
            json.dump(doc, fh)
' "$work/flagship"
pairs=0
for left in "$work"/flagship/p*-left.json; do
  out=$(timeout 120 deltaforms wedge --method both "$left" "${left%-left.json}-right.json")
  echo "$(basename "$left"): $(echo "$out" | grep -o '"verdict":"[a-z]*"')"
  echo "$out" | grep -q '"verdict":"match"'
  pairs=$((pairs + 1))
done
test "$pairs" = 10

# Nested term cells: the tropical line's ray along x lies inside the
# x-axis, and both meet the wall x = 1 at (1, 0).  The product is
# bilinear, so both routes must sum over every pair of terms and count
# the point twice.
python -c '
import json, sys
from deltaforms import DeltaForm, SuperForm, deltaform_json, polyhedron, ray_from
def unit(cells):
    return DeltaForm(2, [(c, SuperForm.scalar(1, 1), 1) for c in cells])
left = unit([polyhedron(2, [], eqs=[([0, 1], 0)])]
            + [ray_from((0, 0), d) for d in [(1, 0), (0, 1), (-1, -1)]])
right = unit([polyhedron(2, [], eqs=[([1, 0], 1)])])
for side, doc in (("left", left), ("right", right)):
    with open("%s/nested-%s.json" % (sys.argv[1], side), "w") as fh:
        json.dump(deltaform_json(doc), fh)
' "$work"
out=$(timeout 60 deltaforms wedge "$work/nested-left.json" "$work/nested-right.json")
echo "$out" | grep -o '"verdict":"[a-z]*"'
echo "$out" | grep -q '"verdict":"match"'

# The transversal product is the displacement product at the zero
# vector: on two crossing segments both print the same bytes, and two
# segments that meet at an endpoint are a precondition error (exit 2).
python -c '
import json, sys
from deltaforms import DeltaForm, SuperForm, deltaform_json, segment
docs = {"cross-left": [((0, 0), (2, 2))], "cross-right": [((0, 2), (2, 0))],
        "touch-left": [((0, 0), (1, 0))], "touch-right": [((1, 0), (1, 1))]}
for name, ends in docs.items():
    T = DeltaForm(2, [(segment(a, b), SuperForm.scalar(1, 1), 1) for a, b in ends])
    with open("%s/%s.json" % (sys.argv[1], name), "w") as fh:
        json.dump(deltaform_json(T), fh)
' "$work"
out=$(timeout 60 deltaforms transversal "$work/cross-left.json" "$work/cross-right.json")
echo "$out"
test "$out" = "$(timeout 60 deltaforms wedge --method displacement --vector 0,0 \
  "$work/cross-left.json" "$work/cross-right.json")"
status=0
out=$(timeout 60 deltaforms transversal "$work/touch-left.json" "$work/touch-right.json") || status=$?
echo "$out"
test "$status" = 2
echo "$out" | grep -q '"kind":"precondition"'

# The walk at scale against the displacement route: the corner loci of
# two tropical polynomials in x, y with every monomial of degree at
# most 5 and seeded coefficients (17 x 37 cells).
python -c '
import json, random, sys
from deltaforms import corner_locus, deltaform_json, pl_max
rng = random.Random(5)
for side in ("left", "right"):
    affines = [([i, j], rng.randint(-6, 6)) for i in range(6) for j in range(6 - i)]
    with open("%s/curve-%s.json" % (sys.argv[1], side), "w") as fh:
        json.dump(deltaform_json(corner_locus(pl_max(2, affines))), fh)
' "$work"
out=$(timeout 60 deltaforms wedge --method both "$work/curve-left.json" "$work/curve-right.json")
echo "$out" | grep -o '"verdict":"[a-z]*"'
echo "$out" | grep -q '"verdict":"match"'

echo "console checks: ok"
