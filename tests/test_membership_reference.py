"""Integer cone membership and the cross-multiplied torus-relation test
against the ``Fraction`` code they replaced (``reference_membership``)."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import reference_membership as ref
from conftest import connected_multigraphs
from enrichfan import corpus
from enrichfan.cones import closed_structure_cone, containing, structure_cone
from enrichfan.enriched import enriched_structures
from enrichfan.toric import LaurentRelation, equations, mutated_evaluate
from reference_lattices import EQ, GE, GT, halfspaces_of
from reference_preorders import _structure_halfspaces
from test_cones import lengths_from_increments
from test_toric_reference import k4, wheel4


def _primes_below(bound, count):
    out = [sympy.prevprime(bound)]
    while len(out) < count:
        out.append(sympy.prevprime(out[-1]))
    return out


# pairwise coprime: distinct primes, small ones and ones just below 10**12
DENOMINATORS = [2, 3, 5, 7, 11] + _primes_below(10**12, 6)


@st.composite
def coordinates(draw, n):
    """``n`` coordinates ``t + delta / d``, zero and negative ones included.
    The integers ``t`` take two values, which gives ties and near-ties; the
    denominators are distinct primes, so their lcm is their product.  A
    coordinate with no offset is sometimes a plain ``int``."""
    dens = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=n, max_size=n, unique=True))
    base = draw(st.integers(0, 1))
    out = []
    for d in dens:
        t = base + draw(st.integers(0, 1))
        delta = draw(st.integers(-2, 2))
        out.append(t if delta == 0 and draw(st.booleans()) else t + Fraction(delta, d))
    return out


def _cones(g):
    """Both cones of every structure, each with its reference: the old
    cone with the halfspaces the quotient poset gave it."""
    cones = []
    for eg in enriched_structures(g):
        for cone, strict in ((structure_cone(eg), True), (closed_structure_cone(eg), False)):
            cones.append((cone, ref.Cone(cone.rays, cone.closed, _structure_halfspaces(eg, strict))))
    return cones


def _boundary_point(eg, increments):
    """Lengths of the edges from one increment per class (zeros give ties
    across classes); each class gets one value, so classes are ties too."""
    classes = eg.preorder.quotient().classes
    x = lengths_from_increments(eg, dict(zip(classes, increments)))
    return tuple(x[e] for e in eg.graph.edge_labels)


def _assert_same_membership(cones, x):
    """Membership in each cone, its closure and its relative interior, and
    ``containing`` over all of them, against the reference."""
    for cone, old in cones:
        assert cone.contains(x) == ref.contains(old, x), (cone, x)
        assert cone.closure().contains(x) == ref.closure_contains(old, x), (cone, x)
        assert replace(cone, closed=False).contains(x) == ref.interior_contains(old, x), (cone, x)
    assert containing([cone for cone, _ in cones], x) == [i for i, (_, old) in enumerate(cones) if ref.contains(old, x)]


@settings(max_examples=100, deadline=None)
@given(connected_multigraphs(), st.data())
def test_structure_cones_match_reference_at_random_points(g, data):
    x = tuple(data.draw(coordinates(g.n_edges)))
    _assert_same_membership(_cones(g), x)


@settings(max_examples=100, deadline=None)
@given(connected_multigraphs(), st.data())
def test_structure_cones_match_reference_on_boundaries(g, data):
    structs = list(enriched_structures(g))
    eg = data.draw(st.sampled_from(structs))
    n_classes = len(eg.preorder.quotient().classes)
    increments = data.draw(coordinates(n_classes))
    zeros = data.draw(st.lists(st.booleans(), min_size=n_classes, max_size=n_classes))
    increments = [0 if z else y for y, z in zip(increments, zeros)]
    _assert_same_membership(_cones(g), _boundary_point(eg, increments))


def test_boundary_points_reach_every_branch():
    big = DENOMINATORS[-3:]
    seen = set()
    for name in ("triangle", "theta3"):
        g = corpus.CORPUS[name]()
        cones = _cones(g)
        for eg in enriched_structures(g):
            n_classes = len(eg.preorder.quotient().classes)
            for signs in itertools.product([0, 1, -1], repeat=n_classes):
                increments = [s * Fraction(k + 2, big[k % 3]) for k, s in enumerate(signs)]
                x = _boundary_point(eg, increments)
                _assert_same_membership(cones, x)
                seen.update((h.rel, h.holds(x)) for cone, _ in cones for h in halfspaces_of(cone))
    assert seen == {(rel, b) for rel in (EQ, GT, GE) for b in (True, False)}


def _graph_and_relations(make):
    g = make()
    return g, equations(g)


TORUS = {name: _graph_and_relations(corpus.CORPUS[name]) for name in corpus.BICONNECTED_CORPUS}
TORUS.update(k4=_graph_and_relations(k4), w4=_graph_and_relations(wheel4))


def _outcome(test, *args):
    try:
        return test(*args)
    except ZeroDivisionError:
        return "zero division"


def _mutant(rel, index, bump):
    """``rel`` with exponent ``index`` bumped, the relation ``mutated_evaluate``
    evaluates; the bump breaks the per-bond zero sum the constructor checks,
    so the instance is built without it."""
    terms = list(rel.terms)
    be, e, exp = terms[index]
    terms[index] = (be, e, exp + bump)
    out = object.__new__(LaurentRelation)
    object.__setattr__(out, "terms", tuple(terms))
    return out


torus_values = st.one_of(
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.integers(-(10**6), 10**6),
)


@pytest.mark.parametrize("name", sorted(name for name, (_, rels) in TORUS.items() if rels))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_holds_at_matches_reference(name, data):
    g, rels = TORUS[name]
    point = {e: data.draw(torus_values) for e in g.edge_labels}
    for rel in rels:
        assert _outcome(rel.holds_at, point) == _outcome(ref.holds_at, rel, point)
        index = data.draw(st.integers(0, len(rel.terms) - 1))
        bump = data.draw(st.sampled_from([-2, -1, 1, 2]))
        mutant = _mutant(rel, index, bump)
        assert _outcome(mutant.holds_at, point) == _outcome(ref.holds_at, mutant, point)
        mutated = _outcome(lambda p: mutated_evaluate(rel, p, index, bump) == 1, point)
        assert _outcome(mutant.holds_at, point) == mutated
