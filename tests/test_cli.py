"""Tests for the command line interface: verbs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from deltaforms.cli import main
from deltaforms.currents import DeltaForm, fundamental_cycle
from deltaforms.io import (MAX_RATIONAL_DIGITS, DocumentError, deltaform_json,
                           dumps_canonical, map_json, parse_deltaform,
                           parse_plfunction, parse_polyhedron, parse_superform,
                           plfunction_json, polyhedron_json, superform_json)
from deltaforms.currents import AffineMap
from deltaforms.intersection import pl_max
from deltaforms.polyhedra import (WeightedCell, box, polyhedron, ray_from,
                                  single_point)
from deltaforms.scalars import qstr
from deltaforms.superforms import SuperForm, integrate_top


def tropical_line(weights=(1, 1, 1), apex=(0, 0)):
    dirs = [(1, 0), (0, 1), (-1, -1)]
    return DeltaForm(2, [(ray_from(apex, d), SuperForm.scalar(1, 1), w)
                         for d, w in zip(dirs, weights)])


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_canonical(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def boolean_document(where):
    """A valid document with one schema integer replaced by JSON true."""
    if where == "piece cell":
        doc = plfunction_json(pl_max(1, [([1], 0), ([0], 0)]))
        doc["pieces"][1]["cell"] = True
        return doc
    doc = deltaform_json(fundamental_cycle(2 if where == "dp" else 1))
    term = doc["terms"][0]
    if where == "delta-form n":
        doc["n"] = True
    elif where == "polyhedron n":
        term["cell"]["n"] = True
    elif where == "exps":
        term["form"]["terms"][0]["poly"][0]["exps"] = [True]
    else:
        term["form"]["terms"][0]["dp"] = [True]
    return doc


class TestCheckBalance:
    def test_balanced_line(self, tmp_path, capsys):
        path = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "check-balance", path)
        assert code == 0
        assert json.loads(out) == {"balanced": True}
        assert out.endswith("\n")

    def test_unbalanced_line_exits_two_with_residue(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json",
                     deltaform_json(tropical_line(weights=(1, 1, 2))))
        code, out = run(capsys, "check-balance", path)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "precondition"
        assert err["certificate"]["residue_vector"] == [1, 1]
        assert err["certificate"]["face"]["base_point"] == ["0/1", "0/1"]


class TestParseErrors:
    def test_unknown_verb(self, capsys):
        code, out = run(capsys, "frobnicate")
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "parse"

    def test_unknown_option(self, tmp_path, capsys):
        path = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "check-balance", "--frob", path)
        assert code == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, out = run(capsys, "check-balance", str(path))
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "parse"

    def test_missing_file(self, capsys):
        code, out = run(capsys, "check-balance", "/nonexistent/nope.json")
        assert code == 1

    def test_schema_violation(self, tmp_path, capsys):
        path = write(tmp_path, "short.json", {"n": 2})
        code, out = run(capsys, "check-balance", path)
        assert code == 1
        assert "missing keys" in json.loads(out)["error"]["message"]

    def test_huge_exponent_fails_fast(self, tmp_path, capsys):
        doc = deltaform_json(tropical_line())
        doc["terms"][0]["form"]["terms"][0]["poly"][0]["exps"] = [10 ** 9]
        path = write(tmp_path, "huge.json", doc)
        start = time.perf_counter()
        code, out = run(capsys, "check-balance", path)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "parse" and "total degree" in err["message"]

    @pytest.mark.parametrize("c", ["1e100000000", "1.5"])
    def test_rational_outside_the_schema_fails_fast(self, tmp_path, capsys, c):
        doc = deltaform_json(tropical_line())
        doc["terms"][0]["form"]["terms"][0]["poly"][0]["c"] = c
        path = write(tmp_path, "rational.json", doc)
        start = time.perf_counter()
        code, out = run(capsys, "check-balance", path)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "parse"
        assert err["message"] == "malformed rational %r" % c

    @staticmethod
    def axis_line(normal, weight):
        """The line normal . x = 0 in R^2, form 1, with a weight as written."""
        T = DeltaForm(2, [(polyhedron(2, [], eqs=[(normal, 0)]),
                           SuperForm.scalar(1, 1), 1)])
        doc = deltaform_json(T)
        doc["terms"][0]["weight"] = weight
        return doc

    def test_rational_over_the_digit_cap_fails_fast(self, tmp_path, capsys):
        weight = "9" * 3000 + "/1"
        h = write(tmp_path, "h.json", self.axis_line([0, 1], weight))
        v = write(tmp_path, "v.json", self.axis_line([1, 0], weight))
        start = time.perf_counter()
        code, out = run(capsys, "wedge", h, v)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "parse"
        assert "MAX_RATIONAL_DIGITS = %d" % MAX_RATIONAL_DIGITS in err["message"]

    @pytest.mark.parametrize("weight", [
        "9" * MAX_RATIONAL_DIGITS + "/1", "1/" + "9" * MAX_RATIONAL_DIGITS,
        int("9" * MAX_RATIONAL_DIGITS)])
    def test_rational_at_the_digit_cap_parses(self, tmp_path, capsys, weight):
        h = write(tmp_path, "h.json", self.axis_line([0, 1], weight))
        v = write(tmp_path, "v.json", self.axis_line([1, 0], weight))
        code, out = run(capsys, "wedge", "--method", "diagonal", h, v)
        assert code == 0
        json.loads(out)

    @pytest.mark.parametrize("weight", ["1/" + "9" * (MAX_RATIONAL_DIGITS + 1),
                                        int("9" * (MAX_RATIONAL_DIGITS + 1))])
    def test_digit_cap_holds_for_denominators_and_integers(self, weight):
        with pytest.raises(DocumentError, match="MAX_RATIONAL_DIGITS"):
            parse_deltaform(self.axis_line([0, 1], weight))

    def test_integer_past_the_json_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(dumps_canonical(self.axis_line([0, 1], "@")).replace(
            '"@"', "9" * 5000))
        code, out = run(capsys, "check-balance", str(path))
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "parse"

    @pytest.mark.parametrize("where", ["exps", "polyhedron n", "dp",
                                       "delta-form n", "piece cell"])
    def test_boolean_is_not_an_integer(self, tmp_path, capsys, where):
        doc = boolean_document(where)
        if where == "piece cell":
            # no verb reads a PL function document
            with pytest.raises(DocumentError):
                parse_plfunction(doc)
            return
        with pytest.raises(DocumentError):
            parse_deltaform(doc)
        code, out = run(capsys, "check-balance",
                        write(tmp_path, "bool.json", doc))
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "parse"

    @staticmethod
    def malformed(what):
        """A tropical line document with one defect, or a PL function or an
        affine map one."""
        doc = deltaform_json(tropical_line())
        term = doc["terms"][0]
        form_term = term["form"]["terms"][0]
        if what == "malformed rational":
            term["weight"] = "1/0"
        elif what == "boolean rational":
            term["weight"] = True
        elif what == "null rational":
            term["weight"] = None
        elif what == "unknown keys":
            term["colour"] = "red"
        elif what == "empty polyhedron":
            term["cell"]["ineqs"] = [{"a": ["1/1", "0/1"], "b": "-1/1"},
                                     {"a": ["-1/1", "0/1"], "b": "0/1"}]
        elif what == "vector not a list":
            term["cell"]["ineqs"][0]["a"] = "1/1"
        elif what == "vector of the wrong length":
            term["cell"]["ineqs"][0]["a"] = ["1/1"]
        elif what == "term not an object":
            doc["terms"][0] = 5
        elif what == "ineqs not a list":
            term["cell"]["ineqs"] = 5
        elif what == "polynomial not a list":
            form_term["poly"] = 5
        elif what == "duplicate monomial":
            form_term["poly"] *= 2
        elif what == "dp out of range":
            form_term["dp"] = [1]
        elif what == "dp not increasing":
            form_term["dp"] = [0, 0]
        elif what == "superform terms not a list":
            term["form"]["terms"] = 5
        elif what == "duplicate index pair":
            term["form"]["terms"] *= 2
        elif what == "chart off the cell":
            term["chart"] = {"base": ["-1/2", "0/1"], "basis": [[1, 0]]}
        elif what == "chart basis count":
            term["chart"]["basis"] = []
        elif what == "chart basis not integral":
            term["chart"]["basis"] = [["1/2", "0/1"]]
        elif what == "terms not a list":
            doc["terms"] = 5
        elif what == "cell in the wrong dimension":
            term["cell"] = {"n": 3, "ineqs": []}
        elif what == "map with no rows":
            doc = {"lin": [], "shift": []}
        else:
            doc = plfunction_json(pl_max(1, [([1], 0), ([0], 0)]))
            if what == "empty complex":
                doc["complex"]["cells"] = []
            else:
                doc["pieces"][1]["cell"] = doc["pieces"][0]["cell"]
        return doc

    @pytest.mark.parametrize("what, message", [
        ("malformed rational", "malformed rational '1/0'"),
        ("boolean rational", "expected a rational, got a boolean"),
        ("null rational", "expected a rational, got NoneType"),
        ("unknown keys", "delta-form term has unknown keys ['colour']"),
        ("empty polyhedron", "polyhedron is empty"),
        ("vector not a list", "expected a list of rationals"),
        ("vector of the wrong length", "expected a vector of length 2, got 1"),
        ("vector text", "malformed vector '1,,2'"),
        ("term not an object", "delta-form term must be an object"),
        ("ineqs not a list", "polyhedron inequalities must be a list"),
        ("polynomial not a list", "polynomial must be a list of monomials"),
        ("duplicate monomial", "duplicate monomial in polynomial"),
        ("dp out of range", "dp index out of range for 1 variables"),
        ("dp not increasing", "dp must be strictly increasing"),
        ("superform terms not a list", "superform terms must be a list"),
        ("duplicate index pair", "duplicate generator index pair in superform"),
        ("chart off the cell", "chart base point does not lie on the cell"),
        ("chart basis count", "chart basis must list 1 vectors"),
        ("chart basis not integral", "chart basis vectors must be integral"),
        ("terms not a list", "delta-form terms must be a list"),
        ("cell in the wrong dimension", "term cell has the wrong ambient dimension"),
        ("map with no rows", "affine map needs at least one linear row"),
        ("duplicate piece", "duplicate piece for cell 0"),
        ("empty complex", "complex must list at least one cell"),
    ])
    def test_malformed_documents_exit_one(self, tmp_path, capsys, what, message):
        """Exit 1 with exactly one parse document naming the defect."""
        doc = self.malformed(what)
        if what in ("duplicate piece", "empty complex"):
            # no verb reads a PL function document
            with pytest.raises(DocumentError) as e:
                parse_plfunction(doc)
            assert str(e.value) == message
            return
        bad = write(tmp_path, "bad.json", doc)
        line = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        if what == "vector text":
            verbs = [["wedge", "--method", "displacement", "--vector", "1,,2",
                      line, line]]
        elif what == "map with no rows":
            verbs = [["pushforward", "--map", bad, line]]
        else:
            verbs = [["check-balance", bad], ["apply", "--op", "d1", bad]]
        for argv in verbs:
            code, out = run(capsys, *argv)
            assert code == 1
            assert out.count("\n") == 1
            assert json.loads(out) == {"error": {"kind": "parse",
                                                 "message": message}}

    @pytest.mark.parametrize("eqs", [5, None, True])
    def test_equalities_must_be_a_list(self, tmp_path, capsys, eqs):
        doc = deltaform_json(tropical_line())
        doc["terms"][0]["cell"]["eqs"] = eqs
        code, out = run(capsys, "check-balance",
                        write(tmp_path, "eqs.json", doc))
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "parse"
        assert err["message"] == "polyhedron equalities must be a list"

    @pytest.mark.parametrize("pieces", [5, None, True])
    def test_pl_function_pieces_must_be_a_list(self, pieces):
        doc = plfunction_json(pl_max(2, [([1, 0], 0), ([0, 1], 0)]))
        doc["pieces"] = pieces
        with pytest.raises(DocumentError,
                           match="^PL function pieces must be a list$"):
            parse_plfunction(doc)

    def test_bad_parallelism_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DELTAFORMS_PARALLELISM", "many")
        path = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "check-balance", path)
        assert code == 1


# Every verb that loads documents, with the kind of each document it reads,
# in the order it reads them.
DOCUMENT_VERBS = [
    (["check-balance"], ["delta-form"]),
    (["apply", "--op", "d1"], ["delta-form"]),
    (["wedge"], ["delta-form", "delta-form"]),
    (["transversal"], ["delta-form", "delta-form"]),
    (["pushforward", "--map"], ["map", "delta-form"]),
    (["pullback", "--map"], ["map", "delta-form"]),
    (["integrate"], ["integrand"]),
    (["stokes-check"], ["integrand"]),
    (["eval", "--window"], ["window", "delta-form", "superform"]),
]
NESTING = 200000


@pytest.fixture(scope="module")
def document_files(tmp_path_factory):
    """One valid document of each kind, and the two nested ones."""
    root = tmp_path_factory.mktemp("documents")
    cell = polyhedron_json(box([0, 0], [1, 1]))
    area = SuperForm.d_prime_x(2, 0).wedge(SuperForm.d_second_x(2, 0))
    docs = {"delta-form": deltaform_json(tropical_line()),
            "map": map_json(AffineMap([[1, 0], [0, 1]], [0, 0])),
            "integrand": {"cell": cell, "form": superform_json(area),
                          "which": "first"},
            "window": cell,
            "superform": superform_json(SuperForm.scalar(2, 1))}
    paths = {kind: write(root, kind + ".json", doc) for kind, doc in docs.items()}
    # 200,000 nested arrays are 400 KB; the objects nest {"a": ...} as deep
    (root / "arrays.json").write_text("[" * NESTING + "]" * NESTING)
    (root / "objects.json").write_text('{"a":' * NESTING + "1" + "}" * NESTING)
    paths["arrays"] = str(root / "arrays.json")
    paths["objects"] = str(root / "objects.json")
    return paths


@pytest.mark.parametrize("nested", ["arrays", "objects"])
@pytest.mark.parametrize("verb, kinds", DOCUMENT_VERBS,
                         ids=[v[0] for v, _ in DOCUMENT_VERBS])
def test_deeply_nested_documents_exit_one(capsys, document_files, nested,
                                          verb, kinds):
    """Each document a verb reads, nested past the recursion limit in turn,
    exits 1 with exactly one parse document naming that file."""
    for slot in range(len(kinds)):
        paths = [document_files[nested if i == slot else kind]
                 for i, kind in enumerate(kinds)]
        code, out = run(capsys, *verb, *paths)
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": {
            "kind": "parse",
            "message": "%s is nested too deeply to decode" % paths[slot]}}


class TestApply:
    def test_closed_cycle_has_zero_differential(self, tmp_path, capsys):
        path = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "apply", "--op", "d1", path)
        assert code == 0
        assert json.loads(out) == {"n": 2, "terms": []}

    def test_boundary_matches_library_route(self, tmp_path, capsys):
        half = polyhedron(1, [([-1], 0)])
        T = DeltaForm(1, [(half, SuperForm.d_second_x(1, 0), 1)])
        path = write(tmp_path, "half.json", deltaform_json(T))
        code, out = run(capsys, "apply", "--op", "bd1", path)
        assert code == 0
        assert parse_deltaform(json.loads(out)).equals(T.boundary_prime())

    def test_operator_names_are_validated(self, tmp_path, capsys):
        path = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "apply", "--op", "d3", path)
        assert code == 1

    def test_unbalanced_input_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json",
                     deltaform_json(tropical_line(weights=(1, 1, 2))))
        code, out = run(capsys, "apply", "--op", "bd1", path)
        assert code == 2


class TestWedge:
    def test_both_reports_match(self, tmp_path, capsys):
        path = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "wedge", "--method", "both", path, path)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "match"
        origin = DeltaForm(2, [(single_point([0, 0]),
                                SuperForm.scalar(0, 1), 1)])
        assert parse_deltaform(doc["diagonal"]).equals(origin)
        assert parse_deltaform(doc["displacement"]).equals(origin)

    def test_nested_term_cells_match(self, tmp_path, capsys):
        # the tropical line's ray along x lies inside the x-axis, and both
        # meet x = 1 at (1, 0)
        axis = DeltaForm(2, [(polyhedron(2, [], eqs=[([0, 1], 0)]),
                              SuperForm.scalar(1, 1), 1)])
        wall = DeltaForm(2, [(polyhedron(2, [], eqs=[([1, 0], 1)]),
                              SuperForm.scalar(1, 1), 1)])
        left = write(tmp_path, "left.json", deltaform_json(axis + tropical_line()))
        right = write(tmp_path, "right.json", deltaform_json(wall))
        code, out = run(capsys, "wedge", left, right)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "match"
        point = DeltaForm(2, [(single_point([1, 0]), SuperForm.scalar(0, 2), 1)])
        assert parse_deltaform(doc["displacement"]).equals(point)

    def test_default_method_is_both(self, tmp_path, capsys):
        path = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "wedge", path, path)
        assert code == 0
        assert "verdict" in json.loads(out)

    def test_non_generic_vector_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "wedge", "--method", "displacement",
                        "--vector", "1/1,1/1", path, path)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["certificate"]["vector"] == ["1/1", "1/1"]

    def test_vector_with_diagonal_method_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "wedge", "--method", "diagonal",
                        "--vector", "1,2", path, path)
        assert code == 1

    @pytest.mark.parametrize("verb", [
        ["wedge", "--method", "diagonal"], ["wedge", "--method", "displacement"],
        ["wedge", "--method", "both"], ["transversal"]])
    def test_factors_in_different_spaces_are_a_parse_error(
            self, tmp_path, capsys, monkeypatch, verb):
        def no_search(S, T):
            raise AssertionError("generic_vector ran")
        monkeypatch.setattr("deltaforms.cli.generic_vector", no_search)
        left = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        right = write(tmp_path, "r3.json", deltaform_json(fundamental_cycle(3)))
        code, out = run(capsys, *verb, left, right)
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": {
            "kind": "parse",
            "message": "right factor dimension does not match the left"}}

    def test_unbalanced_factor_rejected(self, tmp_path, capsys):
        good = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        bad = write(tmp_path, "bad.json",
                    deltaform_json(tropical_line(weights=(1, 1, 2))))
        code, out = run(capsys, "wedge", "--method", "diagonal", good, bad)
        assert code == 2


class TestMaps:
    def test_pushforward_under_shear(self, tmp_path, capsys):
        L = tropical_line()
        shear = AffineMap([[1, 1], [0, 1]], [0, 0])
        mpath = write(tmp_path, "shear.json", map_json(shear))
        tpath = write(tmp_path, "line.json", deltaform_json(L))
        code, out = run(capsys, "pushforward", "--map", mpath, tpath)
        assert code == 0
        from deltaforms.currents import pushforward
        assert parse_deltaform(json.loads(out)).equals(pushforward(shear, L))

    def test_pushforward_dimension_mismatch(self, tmp_path, capsys):
        mpath = write(tmp_path, "m.json",
                      map_json(AffineMap([[1]], [0])))
        tpath = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "pushforward", "--map", mpath, tpath)
        assert code == 1

    def test_improper_pushforward_exits_two(self, tmp_path, capsys):
        mpath = write(tmp_path, "proj.json",
                      map_json(AffineMap.projection(2, [0])))
        tpath = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "pushforward", "--map", mpath, tpath)
        assert code == 2

    def test_pullback_dispatch_surjective(self, tmp_path, capsys):
        f = AffineMap([[2, 0], [0, 2]], [0, 0])
        mpath = write(tmp_path, "dil.json", map_json(f))
        tpath = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        code, out = run(capsys, "pullback", "--map", mpath, tpath)
        assert code == 0
        from deltaforms.currents import pullback_surjective
        assert parse_deltaform(json.loads(out)).equals(
            pullback_surjective(f, tropical_line()))

    def test_pullback_dispatch_general(self, tmp_path, capsys):
        h = AffineMap([[1], [0]], [0, 0])
        yaxis = DeltaForm(2, [(polyhedron(2, [], eqs=[([1, 0], 0)]),
                               SuperForm.scalar(1, 1), 1)])
        mpath = write(tmp_path, "emb.json", map_json(h))
        tpath = write(tmp_path, "yaxis.json", deltaform_json(yaxis))
        code, out = run(capsys, "pullback", "--map", mpath, tpath)
        assert code == 0
        expected = DeltaForm(1, [(single_point([0]),
                                  SuperForm.scalar(0, 1), 1)])
        assert parse_deltaform(json.loads(out)).equals(expected)


class TestPairings:
    def test_integrate_unit_square(self, tmp_path, capsys):
        eta = SuperForm.d_prime_x(2, 0).wedge(SuperForm.d_second_x(2, 0)) \
            .wedge(SuperForm.d_prime_x(2, 1)).wedge(SuperForm.d_second_x(2, 1))
        doc = {"cell": polyhedron_json(box([0, 0], [1, 1])),
               "weight": "1/1", "form": superform_json(eta)}
        path = write(tmp_path, "sq.json", doc)
        code, out = run(capsys, "integrate", path)
        assert code == 0
        assert json.loads(out) == {"value": "1/1"}

    def test_integrate_unbounded_cell_exits_two(self, tmp_path, capsys):
        eta = SuperForm.d_prime_x(1, 0).wedge(SuperForm.d_second_x(1, 0))
        doc = {"cell": polyhedron_json(polyhedron(1, [([-1], 0)])),
               "form": superform_json(eta)}
        path = write(tmp_path, "ray.json", doc)
        code, out = run(capsys, "integrate", path)
        assert code == 2

    def test_integrate_prints_a_value_past_the_str_digit_limit(self, tmp_path,
                                                              capsys):
        # x^64 d'x d''x over -(10^1000 - 1) <= x <= 1: every input is within
        # the caps, and the exact integral has about 65,000 digits
        nines = "9" * MAX_RATIONAL_DIGITS
        text = ('{"cell":{"n":1,"ineqs":[{"a":["1/1"],"b":"1/1"},'
                '{"a":["-1/1"],"b":"%s/1"}]},"form":{"terms":[{"dp":[0],'
                '"ds":[0],"poly":[{"exps":[64],"c":"1/1"}]}]}}' % nines)
        path = tmp_path / "big.json"
        path.write_text(text)
        code, out = run(capsys, "integrate", str(path))
        assert code == 0
        value = json.loads(out)["value"]
        num, den = value.split("/")
        assert len(num) > 60000

        def big_int(digits):
            """int(digits) in pieces below the str -> int limit."""
            total = 0
            for i in range(0, len(digits), 4000):
                piece = digits[i:i + 4000]
                total = total * 10 ** len(piece) + int(piece)
            return total

        a = -(10 ** MAX_RATIONAL_DIGITS - 1)
        assert Fraction(big_int(num), big_int(den)) == Fraction(1 - a ** 65, 65)
        doc = json.loads(text)
        cell = parse_polyhedron(doc["cell"])
        exact = integrate_top(parse_superform(doc["form"], 1),
                              WeightedCell(cell, 1))
        assert qstr(exact) == value

    def test_stokes_fixture_square_function(self, tmp_path, capsys):
        from deltaforms.superforms import Poly
        alpha = SuperForm(1, {((), (0,)): Poly(1, {(2,): 1})})
        doc = {"cell": polyhedron_json(box([0], [1])),
               "form": superform_json(alpha), "which": "first"}
        path = write(tmp_path, "stokes.json", doc)
        code, out = run(capsys, "stokes-check", path)
        assert code == 0
        assert json.loads(out) == {"lhs": "1/1", "rhs": "1/1", "equal": True}

    def test_eval_pairing_on_window(self, tmp_path, capsys):
        from deltaforms.superforms import Poly
        T = fundamental_cycle(1)
        eta = SuperForm(1, {((0,), (0,)): Poly(1, {(2,): 1})})
        tpath = write(tmp_path, "fund.json", deltaform_json(T))
        epath = write(tmp_path, "eta.json", superform_json(eta))
        wpath = write(tmp_path, "win.json", polyhedron_json(box([0], [1])))
        code, out = run(capsys, "eval", "--window", wpath, tpath, epath)
        assert code == 0
        assert json.loads(out) == {"value": "1/3"}


class TestSuite:
    def test_property_suite_passes(self, capsys):
        code, out = run(capsys, "suite")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["graded_commutativity"] is True


class TestInternalErrors:
    def test_a_failed_invariant_exits_three_with_one_document(
            self, capsys, monkeypatch):
        from deltaforms import polyhedra

        def broken(*args):
            raise AssertionError("invariant broken on purpose")

        monkeypatch.setattr(polyhedra, "_canonicalize", broken)
        # an empty intern table, so no memo hit skips the broken function
        monkeypatch.setattr(polyhedra, "_CACHE", {})
        code, out = run(capsys, "suite")
        assert code == 3
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": {
            "kind": "internal", "message": "invariant broken on purpose"}}


class TestDeterminism:
    def cli(self, args, parallelism):
        env = dict(os.environ, DELTAFORMS_PARALLELISM=parallelism)
        return subprocess.run(
            [sys.executable, "-m", "deltaforms.cli"] + args,
            capture_output=True, env=env)

    def test_byte_identical_across_runs_and_parallelism(self, tmp_path):
        path = write(tmp_path, "line.json", deltaform_json(tropical_line()))
        args = ["wedge", "--method", "both", path, path]
        first = self.cli(args, "1")
        assert first.returncode == 0
        for parallelism in ("1", "4"):
            again = self.cli(args, parallelism)
            assert again.returncode == 0
            assert again.stdout == first.stdout

    def test_round_trip_is_identity_on_canonical_documents(self, tmp_path):
        doc = deltaform_json(tropical_line(apex=(3, 1)))
        assert deltaform_json(parse_deltaform(doc)) == doc


class TestChartInput:
    def test_supplied_chart_is_converted(self, tmp_path, capsys):
        from deltaforms.superforms import Poly
        xaxis = polyhedron(2, [], eqs=[([0, 1], 0)])
        doc = {"n": 2, "terms": [{
            "cell": polyhedron_json(xaxis),
            "weight": "1/1",
            "form": {"terms": [{"poly": [{"exps": [1], "c": "1/1"}],
                                "dp": [], "ds": []}]},
            "chart": {"base": ["5/1", "0/1"], "basis": [[-1, 0]]},
        }]}
        parsed = parse_deltaform(doc)
        # u = 5 - x in the supplied chart, so the coefficient is 5 - t
        expected = DeltaForm(2, [(xaxis,
                                  SuperForm.from_poly(
                                      Poly.affine([-1], 5)), 1)])
        assert parsed.equals(expected)

    def test_wrong_lattice_chart_rejected(self, tmp_path, capsys):
        xaxis = polyhedron(2, [], eqs=[([0, 1], 0)])
        doc = {"n": 2, "terms": [{
            "cell": polyhedron_json(xaxis),
            "weight": "1/1",
            "form": {"terms": []},
            "chart": {"base": ["0/1", "0/1"], "basis": [[2, 0]]},
        }]}
        path = write(tmp_path, "bad.json", doc)
        code, out = run(capsys, "check-balance", path)
        assert code == 1


class TestPLFunctionDocuments:
    @pytest.mark.parametrize("phi", [
        pl_max(1, [([1], 0), ([0], 0)]),
        pl_max(1, [([2], Fraction(-1, 2)), ([0], 0), ([-1], 1)]),
        pl_max(2, [([1, 0], 0), ([0, 1], 0), ([0, 0], 0)]),
        pl_max(2, [([1, 1], Fraction(1, 3)), ([-1, 0], 0), ([0, -2], 1)]),
    ])
    def test_round_trip_keeps_the_bytes(self, phi):
        doc = plfunction_json(phi)
        again = parse_plfunction(json.loads(dumps_canonical(doc)))
        assert dumps_canonical(plfunction_json(again)) == dumps_canonical(doc)

    def test_a_missing_piece_is_a_document_error(self):
        doc = plfunction_json(pl_max(2, [([1, 0], 0), ([0, 1], 0), ([0, 0], 0)]))
        doc["pieces"].pop()
        with pytest.raises(DocumentError,
                           match="^pieces must cover exactly the maximal cells$"):
            parse_plfunction(doc)


def test_dumps_canonical_writes_library_objects_as_their_documents():
    seg = box([0, 1], [2, 3])
    form = SuperForm.d_prime_x(2, 0).scale(Fraction(-2, 3))
    T = tropical_line(weights=(2, 2, 2))
    for obj, doc in [(Fraction(-2, 3), qstr(Fraction(-2, 3))),
                     (seg, polyhedron_json(seg)),
                     (form, superform_json(form)),
                     (T, deltaform_json(T))]:
        assert dumps_canonical(obj) == dumps_canonical(doc)
        assert dumps_canonical({"x": [obj, None]}) == dumps_canonical({"x": [doc, None]})
