"""Currents are canonical as constructed.

The DeltaForm constructor folds each weight into its coefficient, sums the
terms on each cell and drops zero coefficients, as canonicalize() did
before (currents_oracle.RawDeltaForm), so every stored weight is 1 and
canonicalize() returns the current itself; every public result checked here
must be canonical.  wedge_diagonal and divisor_intersect check balance on
the complex presentation they cut (_balanced_presentation), not on the
refinement that is_balanced() builds: the verdicts must agree, and a wedge
factor that is not balanced still raises with is_balanced()'s certificate.
"""

import random
from collections import Counter

import pytest

from deltaforms import currents, intersection
from deltaforms.currents import (
    AffineMap,
    BalancingError,
    DeltaForm,
    _check_balanced_refined,
    boundary_prime_via_contraction,
    boundary_second_via_contraction,
    exterior_product,
    ps_multiply,
    pullback_surjective,
    pushforward,
)
from deltaforms.intersection import (
    TransversalityError,
    _complex_presentation,
    displacement_product,
    divisor_intersect,
    generic_vector,
    gradient_second_form,
    pl_max,
    product_property_suite,
    pullback_general,
    transversal_product,
    value_form,
    wedge_diagonal,
)
from deltaforms.polyhedra import box, ray_from
from deltaforms.scalars import Q
from deltaforms.superforms import SuperForm
from currents_oracle import RawDeltaForm
from test_currents import random_balanced, random_cell, random_current, random_form
from test_displacement_oracle import flagship_pairs


def assert_canonical(T):
    assert all(w == 1 for _, _, w in T.terms)
    assert RawDeltaForm(T.n, T.terms).canonicalize().terms == T.terms


WEIGHTS = [0, -1, 1, 2, Q(3, 2)]


def raw_terms(rng, n):
    """Terms on at most three cells, so cells repeat, in shuffled order:
    random weights, zero coefficients, and pairs of terms that cancel."""
    cells = [random_cell(rng, n) for _ in range(rng.randint(1, 3))]
    terms = []
    for _ in range(rng.randint(0, 5)):
        c = rng.choice(cells)
        f = random_form(rng, c.dim)
        w = rng.choice(WEIGHTS)
        kind = rng.randrange(4)
        if kind == 0:
            terms.append((c, SuperForm.zero(c.dim), w))
        elif kind == 1:
            terms += [(c, f, w), (c, f.scale(-2), Q(w, 2))]
        else:
            terms.append((c, f, w))
    rng.shuffle(terms)
    return terms


def test_the_constructor_is_the_old_canonicalize():
    rng = random.Random(0)
    seen = Counter()
    for _ in range(300):
        n = rng.choice([1, 2, 3])
        raw = raw_terms(rng, n)
        T = DeltaForm(n, raw)
        old = RawDeltaForm(n, raw).canonicalize()
        assert T.terms == old.terms
        assert [repr(f) for _, f, _ in T.terms] == [repr(f) for _, f, _ in old.terms]
        assert T.canonicalize() is T
        assert T.is_zero() == (not old.terms)
        cells = Counter(c for c, _, _ in raw)
        seen["repeated cell"] += any(k > 1 for k in cells.values())
        seen["zero coefficient"] += any(f.is_zero() for _, f, _ in raw)
        seen["cancelled cell"] += len(T.terms) < len(cells)
        seen["zero current"] += bool(raw) and T.is_zero()
        for w in WEIGHTS:
            seen[w] += any(x == w for _, _, x in raw)
    assert min(seen.values()) >= 20, seen


def random_function(rng, n):
    return pl_max(n, [([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2))
                      for _ in range(3)])


def random_boxes(rng, n):
    """A box and a unit box above it, with random forms.  Apart, they form
    a complex that refine() cuts further, as the walls of the unit box
    cross the other, and their boundaries are not balanced."""
    lo = [rng.randint(0, 2) for _ in range(n)]
    hi = [x + rng.randint(2, 3) for x in lo]
    lo2 = [x + rng.randint(0, 2) for x in lo[:-1]] + [hi[-1] + rng.randint(0, 1)]
    cells = [box(lo, hi), box(lo2, [x + 1 for x in lo2])]
    return DeltaForm(n, [(c, random_form(rng, n), rng.randint(1, 2)) for c in cells])


def presentation_corpus(seed, draws):
    """Corner loci with forms, the same with one weight doubled, products
    of a function's value and gradient forms into them, random sums of
    cells and pairs of boxes, in R^2 and R^3."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        n = rng.choice([2, 2, 3])
        out.append(random_boxes(rng, n))
        B = random_balanced(rng, n)
        terms = list(B.terms)
        if terms:  # the corner locus of an affine function is zero
            k = rng.randrange(len(terms))
            terms[k] = terms[k][:2] + (2 * terms[k][2],)
        phi = random_function(rng, n)
        out += [B, DeltaForm(n, terms), ps_multiply(value_form(phi), B),
                ps_multiply(gradient_second_form(phi), B), random_current(rng, n)]
    return out


def test_presentation_verdict_is_the_refinement_verdict():
    seen = Counter()
    for T in presentation_corpus(1, 40):
        C = _complex_presentation(T)
        ok, _ = T.is_balanced()
        assert _check_balanced_refined(C)[0] == ok
        finer = len(T.refine().terms) > len(C.terms)
        seen["finer, balanced" if ok else "finer, unbalanced"] += finer
        seen["balanced" if ok else "unbalanced"] += 1
    assert seen["balanced"] >= 50 and seen["unbalanced"] >= 50
    assert seen["finer, balanced"] >= 20 and seen["finer, unbalanced"] >= 20, seen


def test_wedge_factor_keeps_the_refinement_certificate():
    """The presentation names the facet at (0, 0), the refinement the one
    at (1, 0); the wedge error carries the refinement's."""
    S = DeltaForm(2, [(box([0, 0], [2, 2]), SuperForm.scalar(2, 1), 1),
                      (box([1, 3], [2, 4]), SuperForm.scalar(2, 1), 1)])
    line = DeltaForm(2, [(ray_from((0, 0), d), SuperForm.scalar(1, 1), 1)
                         for d in [(1, 0), (0, 1), (-1, -1)]])
    ok, cert = S.is_balanced()
    assert not ok and cert["face"]["base_point"] == ["1/1", "0/1"]
    ok, other = _check_balanced_refined(_complex_presentation(S))
    assert not ok and other["face"]["base_point"] == ["0/1", "0/1"]
    for left, right, side in [(S, line, "left"), (line, S, "right")]:
        with pytest.raises(BalancingError) as e:
            wedge_diagonal(left, right)
        assert str(e.value) == "wedge factor (%s) is not balanced" % side
        assert e.value.certificate == cert


def boundaries(T):
    return [T.boundary_prime(), T.boundary_second(),
            boundary_prime_via_contraction(T), boundary_second_via_contraction(T),
            T.d_prime(), T.d_second()]


def test_public_results_are_canonical_on_the_flagship_pairs():
    rng = random.Random(7)
    nonzero = Counter()
    for S, T in flagship_pairs():
        n = S.n
        X = exterior_product(S, T)
        results = {
            "wedge_diagonal": [wedge_diagonal(S, T)],
            "displacement_product": [displacement_product(S, T, generic_vector(S, T))],
            "exterior_product": [X],
            "pushforward": [pushforward(AffineMap(
                [[2 * (i == j) + (j == i + 1) for j in range(n)] for i in range(n)],
                [1] * n), U) for U in (S, T)],
            "divisor_intersect": [divisor_intersect(random_function(rng, n), U)
                                  for U in (S, T)],
            "pullback_surjective": [pullback_surjective(
                AffineMap.projection(n + 1, range(1, n + 1)), S)],
            "pullback_general": [pullback_general(
                AffineMap([[int(i == j) for j in range(n - 1)] for i in range(n)],
                          [0] * n), T)],
            "boundaries": boundaries(S) + boundaries(X) + boundaries(random_balanced(rng, n)),
        }
        try:
            results["transversal_product"] = [transversal_product(S, T)]
        except TransversalityError:
            pass
        for name, outs in results.items():
            for out in outs:
                assert_canonical(out)
                nonzero[name] += bool(out.terms)
    assert set(nonzero) == {
        "wedge_diagonal", "displacement_product", "exterior_product", "pushforward",
        "divisor_intersect", "pullback_surjective", "pullback_general", "boundaries",
        "transversal_product"}
    assert all(nonzero.values()), nonzero


def test_public_results_are_canonical_in_the_property_suite(monkeypatch):
    calls = Counter()

    def checked(name, fn):
        def run(*args):
            out = fn(*args)
            assert_canonical(out)
            calls[name] += 1
            return out
        return run

    for name in ("wedge_diagonal", "exterior_product", "pushforward",
                 "divisor_intersect", "pullback_general"):
        monkeypatch.setattr(intersection, name, checked(name, getattr(intersection, name)))
    monkeypatch.setattr(currents, "pullback_surjective",
                        checked("pullback_surjective", pullback_surjective))
    for name in ("boundary_prime", "boundary_second", "d_prime", "d_second"):
        monkeypatch.setattr(DeltaForm, name, checked(name, getattr(DeltaForm, name)))
    report = product_property_suite()
    assert report["ok"], report
    assert len(calls) == 10 and all(calls.values()), calls
