"""Wedge factors are presented once per value, and complexes by their cells.

wedge_diagonal reads each factor from polyhedra._CACHE under ("factor", T)
(intersection._walk_factor), kept only once T is found balanced: equal
factors parsed apart run _balanced_presentation once, a cleared table drops
the entry, and an unbalanced factor raises on every call with its side's
message and is_balanced()'s certificate.  _complex_presentation checks T's
own cells first and returns the sliced current unchecked when they form a
complex; otherwise it takes the route it replaced
(intersection_oracle._complex_presentation): the same current, decided by
one pass over pairs of cells (polyhedra._first_misfit) where the replaced
route built a Complex and caught its ComplexError.
"""

import random
from collections import Counter

import pytest

import intersection_oracle
from deltaforms import dumps_canonical, intersection, polyhedra
from deltaforms.currents import BalancingError, DeltaForm, _sliced_terms, hyperplane_pool
from deltaforms.intersection import _complex_presentation, corner_locus, pl_max, wedge_diagonal
from deltaforms.io import deltaform_json, parse_deltaform
from deltaforms.polyhedra import Complex, ComplexError, ray_from
from deltaforms.superforms import SuperForm
from test_canonical_operands import presentation_corpus, random_function


def tropical_line(c):
    """The corner locus of max(0, x + c, y)."""
    return corner_locus(pl_max(2, [([0, 0], 0), ([1, 0], c), ([0, 1], 0)]))


def parsed(T):
    """A copy of T parsed from its document: equal, but no object shared."""
    return parse_deltaform(deltaform_json(T))


def test_equal_factors_are_presented_once(monkeypatch):
    S, T = tropical_line(0), tropical_line(1)
    S2 = parsed(S)
    assert S2 is not S and S2 == S
    polyhedra._CACHE.clear()
    want = dumps_canonical(deltaform_json(
        intersection_oracle.wedge_diagonal_by_polyhedra(S, T)))
    polyhedra._CACHE.clear()
    with monkeypatch.context() as m:
        calls = intersection_oracle.count_calls(m, intersection, "_balanced_presentation")
        got = [dumps_canonical(deltaform_json(wedge_diagonal(L, R)))
               for L, R in [(S, T), (S2, T), (T, S2), (parsed(T), S)]]
        assert len(calls) == 2
        assert got == [want] * 4
        assert ("factor", S2) in polyhedra._CACHE
        polyhedra._CACHE.clear()
        assert ("factor", S2) not in polyhedra._CACHE
        assert dumps_canonical(deltaform_json(wedge_diagonal(S2, T))) == want
        assert len(calls) == 4
    polyhedra._CACHE.clear()


def test_an_unbalanced_factor_raises_on_every_call(monkeypatch):
    """Two rays from the origin against a tropical line, on each side."""
    U = DeltaForm(2, [(ray_from((0, 0), d), SuperForm.scalar(1, 1), 1)
                      for d in [(1, 0), (0, 1)]])
    line = tropical_line(0)
    ok, cert = U.is_balanced()
    assert not ok
    polyhedra._CACHE.clear()
    with monkeypatch.context() as m:
        calls = intersection_oracle.count_calls(m, intersection, "_balanced_presentation")
        for left, right, side in [(U, line, "left"), (line, U, "right")] * 2:
            with pytest.raises(BalancingError) as e:
                wedge_diagonal(left, right)
            assert str(e.value) == "wedge factor (%s) is not balanced" % side
            assert e.value.certificate == cert
    assert sum(args[0] is U for args in calls) == 4
    assert sum(args[0] is line for args in calls) == 1
    assert ("factor", U) not in polyhedra._CACHE
    assert ("factor", line) in polyhedra._CACHE
    polyhedra._CACHE.clear()


def record_witnesses(m, module):
    """Set module.Complex through the monkeypatch context m to one that
    records the certificate of every ComplexError it raises."""
    seen = []

    def recording(cells, validate=True):
        try:
            return Complex(cells, validate)
        except ComplexError as e:
            seen.append(e.certificate)
            raise

    m.setattr(module, "Complex", recording)
    return seen


def record_complexes(m, module):
    """Set module.Complex through the monkeypatch context m to one that
    records the cells of every call."""
    built = []

    def recording(cells, validate=True):
        built.append(cells)
        return Complex(cells, validate)

    m.setattr(module, "Complex", recording)
    return built


def own_witness(T):
    try:
        Complex([c for c, _, _ in T.terms])
    except ComplexError as e:
        return e.certificate
    return None


def test_cells_that_form_no_complex_take_the_old_route(monkeypatch):
    """Random sums, boxes and balanced currents in R^2 and R^3, each
    presented with no pool and with a function's walls: the current of
    the replaced route, with no Complex built.  The replaced route's
    sliced cells raise only where T's own cells raise, with T's witness
    when there is no pool, and exactly where _forms_complex finds that the
    sliced cells form no complex."""
    rng = random.Random(28)
    seen = Counter()
    for T in presentation_corpus(2, 12):
        own = own_witness(T)
        for pool in ((), hyperplane_pool(random_function(rng, T.n).maximal)):
            with monkeypatch.context() as m:
                built = record_complexes(m, intersection)
                want_seen = record_witnesses(m, intersection_oracle)
                got = _complex_presentation(T, pool)
                want = intersection_oracle._complex_presentation(T, pool)
            assert got.terms == want.terms and built == []
            if own is None:
                assert want_seen == []
            elif pool:
                C = DeltaForm(T.n, _sliced_terms(T.terms, pool))
                assert len(want_seen) == (not intersection._forms_complex(C))
            else:
                assert want_seen == [own]
            seen["complex" if own is None else "no complex"] += 1
            seen["refined"] += got.terms != T.terms and not pool
            seen["sliced cells form no complex"] += bool(pool and want_seen)
    assert min(seen.values()) >= 10, seen


def test_one_pass_verdict_matches_the_complex_it_replaced():
    """_forms_complex pairs the term cells once; the replaced route built
    the Complex of their face closure and caught its ComplexError.  On the
    presentation corpus and on its currents sliced by a function's walls,
    the verdicts agree, and both verdicts occur."""
    rng = random.Random(30)
    seen = Counter()
    for T in presentation_corpus(3, 12):
        pool = hyperplane_pool(random_function(rng, T.n).maximal)
        for X in (T, DeltaForm(T.n, _sliced_terms(T.terms, pool))):
            verdict = intersection._forms_complex(X)
            assert verdict == intersection_oracle._forms_complex(X)
            seen[verdict] += 1
    assert seen[True] >= 20 and seen[False] >= 20, seen
