"""The flagship wedge products reproduce the benchmark's pinned digests.

perfbench/pinned.json holds, for each of the eight signed-permutation
classes and both wedge routes, the SHA-256 digest of every flagship
product's canonical bytes.  Each class here rebuilds the flagship base
documents in a temporary directory, moves them as the benchmark does and
compares every digest, so byte identity of the flagship outputs is checked
by the tests and not only by a benchmark run.  pinned.json is only read.
"""

import json
import sys
from pathlib import Path

import pytest

from deltaforms.intersection import (
    displacement_product,
    generic_vector,
    wedge_diagonal,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402  (perfbench/corpus.py)

ROUTES = {
    "diagonal": wedge_diagonal,
    "displacement": lambda S, T: displacement_product(S, T, generic_vector(S, T)),
}


@pytest.mark.parametrize("cls", range(corpus.CLASSES))
def test_flagship_products_match_the_pinned_digests(cls, tmp_path):
    pinned = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))
    table = pinned["wedge"][str(cls)]
    base = corpus._base_wedge_documents(str(tmp_path))
    assert sorted(table) == sorted(ROUTES)
    for route in ROUTES:
        assert sorted(table[route]) == sorted(item["name"] for item in base)
    for item in base:
        S = corpus._moved(item["left"], cls)
        T = corpus._moved(item["right"], cls)
        for route, product in ROUTES.items():
            got = corpus.digest(corpus.result_bytes(product(S, T)))
            assert got == table[route][item["name"]], (route, item["name"])
