"""Integer cone membership and the cross-multiplied torus-relation test
against the ``Fraction`` code they replaced (``reference_membership``), and
the comparison route of cone membership against the integer route that
came before it, kept here as ``_integer_route``; the torus check, on one
evaluation loop with ``holds_at``, against its copy in ``reference_toric``,
and on net exponents against the copy that evaluated every term;
and ``contains`` and ``containing`` against their copies from before
``contains`` took exact points straight to the early-exit plan loop
(``reference_membership.meets``)."""

import functools
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import reference_membership as ref
import reference_toric
from conftest import connected_multigraphs
from enrichfan import corpus
from enrichfan.cones import RationalCone, _exact, closed_structure_cone, containing, structure_cone
from enrichfan.enriched import enriched_structures
from enrichfan.fans import fan_by_star_subdivision
from enrichfan.lattices import dot
from enrichfan.toric import LaurentRelation, _holds_at_torus_points, equations, mutated_evaluate, torus_point_check
from reference_lattices import EQ, GE, GT, halfspaces_of
from reference_preorders import _structure_halfspaces
from test_cones import lengths_from_increments
from test_enriched_reference import cycle
from test_fans import embedded
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
        assert RationalCone(cone.labels, cone.rays, False, cone.rows).contains(x) == ref.interior_contains(old, x), (cone, x)
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


def _integer_route(cone, x) -> bool:
    """Membership as the library once decided it off the comparison route:
    the sign of every row on ``m * x``, ``m`` the lcm of the denominators."""
    ratios = [v.as_integer_ratio() for v in x]
    m = lcm(*(d for _, d in ratios))
    y = tuple(n * (m // d) for n, d in ratios)
    equalities, facets = cone.h_description()
    if any(dot(row, y) for row in equalities):
        return False
    return all(dot(row, y) >= 0 for row in facets) if cone.closed else all(dot(row, y) > 0 for row in facets)


def _pool_points(n, rng, count):
    """Points drawn from a small pool, so ties are common: zeros, negatives,
    plain ints, floats equal to them, and the large-prime denominators."""
    pool = [0, 1, 2, -1, 0.0, 1.0, 0.5, -0.25, Fraction(1, 2)]
    pool += [t + Fraction(s, d) for d in DENOMINATORS for t, s in ((0, 1), (1, -1), (1, 1))]
    return [tuple(rng.choice(pool) for _ in range(n)) for _ in range(count)]


def _ray_points(cone, rng):
    """Points of the closure, from all rays and from half of them, weighted
    by ints, by large-prime fractions or by dyadic floats; and their negatives."""
    out = []
    for weights in ([1, 2, 3], [Fraction(1, d) for d in DENOMINATORS[-3:]], [0.5, 0.25, 3.0]):
        for keep in (cone.rays, rng.sample(cone.rays, len(cone.rays) // 2)):
            coeffs = [rng.choice(weights) for _ in keep]
            x = tuple(sum((c * r[k] for c, r in zip(coeffs, keep)), 0) for k in range(len(cone.labels)))
            out += [x, tuple(-v for v in x)]
    return out


def _assert_routes_agree(cones, seed, around=3):
    """``contains`` against the integer route for every cone, and ``containing``
    over the whole list against ``contains``, at pool points and at points
    in and around ``around`` sampled cones; both outcomes must occur."""
    rng = random.Random(seed)
    points = _pool_points(len(cones[0].labels), rng, 12)
    points += [x for cone in rng.sample(cones, min(around, len(cones))) for x in _ray_points(cone, rng)]
    seen = set()
    for x in points:
        inside = [cone.contains(x) for cone in cones]
        assert inside == [_integer_route(cone, x) for cone in cones], x
        assert containing(cones, x) == [i for i, hit in enumerate(inside) if hit], x
        seen.update(inside)
    assert seen == {True, False}


def _structure_cones(g):
    return [cone for eg in enriched_structures(g) for cone in (structure_cone(eg), closed_structure_cone(eg))]


def _general_cones(labels):
    """Cones on three or more ``labels`` off the comparison route: general
    rays, and the plane ``x + y == z`` given by hand as a ``(1, 1, -1)`` row."""
    n = len(labels)

    def pad(*v):
        return v + (0,) * (n - len(v))

    units = tuple(pad(*(0,) * i, 1) for i in range(3, n))
    plane = RationalCone(tuple(labels), (pad(1, 0, 1), pad(0, 1, 1)), True, ((pad(1, 1, -1),) + units, (pad(1), pad(0, 1))))
    return [
        RationalCone.from_rays(labels, [pad(1, 2), pad(0, 1, 3)]),
        RationalCone.from_rays(labels, [pad(2, 1), pad(1, 1, 1)], closed=False),
        RationalCone.from_rays(labels, [pad(1, 2), pad(0, 1)]),
        plane,
        RationalCone(plane.labels, plane.rays, False, plane.rows),
    ]


def _faces(g):
    sample = random.Random(0).sample(list(enriched_structures(g)), 12)
    return [face for eg in sample for face in closed_structure_cone(eg).faces()]


def _embedded(g):
    return [embedded(cone, ("0",) + g.edge_labels) for cone in _structure_cones(g)]


def _mixed(g):
    """Both routes in one list, as ``containing`` may be given them."""
    return _structure_cones(g) + list(fan_by_star_subdivision(g).maximal) + _general_cones(g.edge_labels)


_HAND_MADE = [  # comparison rows given by hand, a single -1 among them
    RationalCone(("x", "y", "z"), ((0, 0, 1), (0, 1, 1)), False, (((1, 0, 0),), ((0, 1, 0), (0, -1, 1)))),
    RationalCone(("x", "y", "z"), ((0, 1, 0),), True, (((1, 0, 0), (0, 0, -1)), ((0, 1, 0),))),
    RationalCone(("x", "y", "z"), ((0, 0, -1),), False, (((1, 0, 0), (0, 1, 0)), ((0, 0, -1),))),
]

ROUTE_CASES = {
    **{f"structures-{name}": (lambda make=make: _structure_cones(make())) for name, make in corpus.CORPUS.items()},
    "structures-c5": lambda: _structure_cones(cycle(5)),
    "structures-k4": lambda: _structure_cones(k4()),
    "faces-c5": lambda: _faces(cycle(5)),
    "faces-k4": lambda: _faces(k4()),
    **{f"embedded-{name}": (lambda name=name: _embedded(corpus.CORPUS[name]())) for name in ("theta3", "triangle", "square")},
    "star-k4": lambda: list(fan_by_star_subdivision(k4()).maximal),
    "star-w4": lambda: list(fan_by_star_subdivision(wheel4()).maximal),
    "hand-made": lambda: _general_cones(("x", "y", "z")) + _HAND_MADE,
    "mixed-square": lambda: _mixed(corpus.square()),
}


@pytest.mark.parametrize("name", sorted(ROUTE_CASES))
def test_comparison_route_matches_integer_route(name):
    cones = ROUTE_CASES[name]()
    _assert_routes_agree(cones, name)
    routes = {bool(cone._comparisons()) for cone in cones}
    if name.startswith(("structures", "faces", "embedded")):
        assert routes == {True}  # every structure cone, face and padding is a comparison cone
    if name.startswith(("mixed", "hand-made")):
        assert routes == {True, False}


@pytest.mark.parametrize("general", [False, True], ids=["structure", "general"])
def test_refusals_are_the_same_on_both_routes(general):
    """A wrong length, inf and NaN raise what the integer route always raised,
    through ``contains`` and through ``containing``."""
    eg = enriched_structures(corpus.theta(3))[0]
    cone = _general_cones(eg.graph.edge_labels)[3] if general else structure_cone(eg)
    n = len(cone.labels)
    for member in (cone.contains, lambda x: containing([cone, cone.closure()], x)):
        for x in ((1,) * (n - 1), (1,) * (n + 1)):
            with pytest.raises(ValueError, match="coordinates"):
                member(x)
        with pytest.raises(OverflowError):
            member((float("inf"),) + (1,) * (n - 1))
        with pytest.raises(ValueError):
            member((1,) * (n - 1) + (float("nan"),))


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


def _unchecked(terms) -> LaurentRelation:
    out = object.__new__(LaurentRelation)
    object.__setattr__(out, "terms", tuple(terms))
    return out


def _mutant(rel, index, bump):
    """``rel`` with exponent ``index`` bumped, the relation ``mutated_evaluate``
    evaluates; the bump breaks the per-bond zero sum the constructor checks,
    so the instance is built without it."""
    terms = list(rel.terms)
    be, e, exp = terms[index]
    terms[index] = (be, e, exp + bump)
    return _unchecked(terms)


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


@pytest.mark.parametrize("name", sorted(TORUS))
def test_torus_check_matches_reference(name):
    """The same verdict on the emitted relations, at three seeds, and on each
    relation with one exponent bumped by -1 or 1."""
    g, rels = TORUS[name]

    def verdicts(relations, seed, trials):
        args = (g.edge_labels, relations, seed, trials)
        return _holds_at_torus_points(*args), reference_toric._holds_at_torus_points(*args)

    for seed in (0, 7, 2024):
        assert verdicts(rels, seed, 25) == (True, True)
    for rel in rels:
        for index in range(len(rel.terms)):
            for bump in (-1, 1):
                assert verdicts([_mutant(rel, index, bump)], 5, 3) == (False, False)


def _torus_mutants(g, rels, rng) -> list:
    """Relations built without the per-bond check: one or two exponents bumped,
    the edges of two terms swapped, and random exponent vectors."""
    out = []
    for rel in rels:
        terms = list(rel.terms)
        i, j = rng.sample(range(len(terms)), 2)
        twice = list(terms)
        for k in (i, j):
            be, e, exp = twice[k]
            twice[k] = (be, e, exp + rng.choice((-2, -1, 1, 2)))
        swapped = list(terms)
        (b1, e1, x1), (b2, e2, x2) = terms[i], terms[j]
        swapped[i], swapped[j] = (b1, e2, x1), (b2, e1, x2)
        out += [_mutant(rel, i, rng.choice((-1, 1))), _unchecked(twice), _unchecked(swapped)]
    labels = g.edge_labels
    for _ in range(10):
        out.append(_unchecked((("B",), rng.choice(labels), rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))))
    return out


@pytest.mark.parametrize("name", sorted(name for name, (_, rels) in TORUS.items() if rels))
def test_torus_check_on_net_exponents_matches_term_reference(name):
    """The torus check on net exponents against the one that evaluated every
    term: the same verdict on the emitted relations at three seeds, and on
    each mutant alone, some of which still hold."""
    g, rels = TORUS[name]

    def verdicts(relations, seed, trials):
        args = (g.edge_labels, relations, seed, trials)
        return _holds_at_torus_points(*args), reference_toric.term_holds_at_torus_points(*args)

    for seed in (0, 7, 2024):
        assert verdicts(rels, seed, 25) == (True, True)
    mutants = _torus_mutants(g, rels, random.Random(name))
    outcomes = [verdicts([m], 11, 4) for m in mutants]
    assert all(new == old for new, old in outcomes)
    assert {new for new, _ in outcomes} == {True, False}
    assert verdicts(rels + mutants, 3, 4) == (False, False)


class _NoDraws(random.Random):
    def random(self):
        raise AssertionError("a torus point was drawn")

    def getrandbits(self, k):
        raise AssertionError("a torus point was drawn")


def test_torus_check_draws_no_point_when_every_relation_cancels(monkeypatch):
    monkeypatch.setattr(random, "Random", _NoDraws)
    for name, (g, rels) in TORUS.items():
        assert _holds_at_torus_points(g.edge_labels, rels, 2024, 100), name
    g, rels = TORUS["w4"]
    assert torus_point_check(g)
    with pytest.raises(AssertionError, match="drawn"):
        _holds_at_torus_points(g.edge_labels, [_mutant(rels[0], 0, 1)], 2024, 100)


@pytest.mark.parametrize("name", sorted(name for name, (_, rels) in TORUS.items() if rels))
def test_holds_at_reads_the_denominators(name):
    """At a point whose numerators are all 1, only the denominators tell each
    relation with a bumped exponent from the valid one."""
    g, rels = TORUS[name]
    point = {e: Fraction(1, i + 2) for i, e in enumerate(g.edge_labels)}
    for rel in rels:
        assert rel.holds_at(point) and reference_toric.holds_at(rel, point)
        for index in range(len(rel.terms)):
            mutant = _mutant(rel, index, 1)
            assert not mutant.holds_at(point) and not ref.holds_at(mutant, point)


def _determinant_two_cones(labels):
    """Closed and open cones of determinant 2 on the first three of ``labels``,
    whose rows are no comparisons."""
    n = len(labels)

    def pad(*v):
        return v + (0,) * (n - len(v))

    return [
        RationalCone.from_rays(labels, rays, closed)
        for rays in ([pad(1, 1), pad(1, -1)], [pad(1, 0, 0), pad(0, 1, 0), pad(1, 1, 2)])
        for closed in (True, False)
    ]


MEMBERSHIP_CASES = {
    "structures-theta3": lambda: _structure_cones(corpus.theta(3)),
    "structures-k4": lambda: _structure_cones(k4()),
    "star-k4": lambda: list(fan_by_star_subdivision(k4()).maximal),
    "determinant-two": lambda: _determinant_two_cones(tuple(k4().edge_labels)),
    "mixed-square": lambda: _mixed(corpus.square()),
}


@functools.cache
def _membership_cones(name):
    """One case's cones, built once for all the examples drawn on it."""
    return {**MEMBERSHIP_CASES, **TIE_CASES}[name]()

# exact values, their float and bool twins, and the values that are refused
MEMBERSHIP_POOLS = {
    "int": [0, 1, 2, -1, 3],
    "fraction": [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 3), Fraction(2)],
    "float": [0.0, 0.5, 1.0, -0.25, 2.0],
    "bool": [False, True],
    "refused": [float("inf"), float("-inf"), float("nan")],
}


def _membership_outcome(call, *args):
    """The value of ``call(*args)``, or the type of what it raised."""
    try:
        return call(*args)
    except (ValueError, OverflowError, TypeError) as err:
        return type(err)


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contains_and_containing_match_plan_reference(name, data):
    """The same verdicts and the same exceptions, through ``contains`` on each
    cone and its closure and through ``containing`` on the whole list, at
    points of one kind of coordinate or of mixed kinds, of the right length
    or one off."""
    cones = _membership_cones(name)
    n = len(cones[0].labels)
    kinds = data.draw(st.lists(st.sampled_from(sorted(MEMBERSHIP_POOLS)), min_size=1, max_size=2, unique=True))
    values = [v for kind in kinds for v in MEMBERSHIP_POOLS[kind]]
    length = data.draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    x = tuple(data.draw(st.sampled_from(values)) for _ in range(length))
    for cone in cones:
        for c in (cone, cone.closure()):
            assert _membership_outcome(c.contains, x) == _membership_outcome(ref.plan_contains, c, x), (c, x)
    assert _membership_outcome(containing, cones, x) == _membership_outcome(ref.containing, cones, x), x


def test_plan_reference_cases_reach_both_routes_and_ties():
    """The cases hold comparison cones and cones off the comparison route,
    and open cones that a tie on a facet puts a point just outside of."""
    routes = {bool(cone._comparisons()) for make in MEMBERSHIP_CASES.values() for cone in make()}
    assert routes == {True, False}
    cone = next(c for c in _structure_cones(corpus.theta(3)) if not c.closed and len(c.rays) == 3)
    tie = tuple(Fraction(1) for _ in cone.labels)
    assert cone.closure().contains(tie) and not cone.contains(tie)
    assert ref.plan_contains(cone.closure(), tie) and not ref.plan_contains(cone, tie)


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_containing_scaled_to_integers_matches_reference(name, data):
    """``containing`` scales the point to integers once, by the lcm of its
    denominators.  At near-ties over coprime denominators, with some
    coordinates made floats, the indices are the reference's on each
    case's cones and their closures (the determinant-two cases read their
    rows' signs, not comparisons), and a point one coordinate short or
    long is refused alike."""
    cones = _membership_cones(name)
    cones = cones + [cone.closure() for cone in cones]
    n = len(cones[0].labels)
    x = list(data.draw(coordinates(n)))
    for i in data.draw(st.sets(st.integers(0, n - 1))):
        x[i] = float(x[i])
    assert containing(cones, x) == ref.containing(cones, x), x
    for bad in (x[:-1], x + [Fraction(1, 3)]):
        assert _membership_outcome(containing, cones, bad) == _membership_outcome(ref.containing, cones, bad)


TIE_CASES = {
    **{f"structures-{name}": (lambda make=make: _structure_cones(make())) for name, make in corpus.CORPUS.items()},
    "structures-c5": lambda: _structure_cones(cycle(5)),
    **{name: MEMBERSHIP_CASES[name] for name in ("structures-k4", "star-k4")},
}
TIE_SAMPLE = 200  # cones per example: all 1 362 of K4 took 12 s over 40 examples

# each value in every form it has: equal coordinates come as int, Fraction and float
TIE_FORMS = [
    [0, Fraction(0), 0.0],
    [1, Fraction(2, 2), 1.0],
    [2, Fraction(4, 2), 2.0],
    [Fraction(1, 2), 0.5],
    [Fraction(3, 2), 1.5],
    [-1, Fraction(-3, 3), -1.0],
]


@pytest.mark.parametrize("name", sorted(TIE_CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_contains_at_ties_matches_meets_and_row_signs(name, data):
    """Coordinates from two or three values, each in a form drawn anew, so
    classes tie and facets tie: ``contains`` on each open and closed cone
    agrees with the plan reference and with the signs of its rows
    (``_integer_route``), and
    ``containing`` picks out the same cones.  Large cases are sampled."""
    cones = _membership_cones(name)
    n = len(cones[0].labels)
    cones = data.draw(st.randoms(use_true_random=False)).sample(cones, min(len(cones), TIE_SAMPLE))
    values = data.draw(st.lists(st.sampled_from(TIE_FORMS), min_size=2, max_size=3, unique_by=lambda forms: forms[0]))
    x = tuple(data.draw(st.sampled_from(data.draw(st.sampled_from(values)))) for _ in range(n))
    inside = []
    for cone in cones:
        for c in (cone, cone.closure()):
            assert c.contains(x) == ref.meets(c, _exact(x, n)) == _integer_route(c, x), (c, x)
        inside.append(cone.contains(x))
    assert containing(cones, x) == [i for i, hit in enumerate(inside) if hit], x


def test_one_value_in_mixed_forms_lies_in_one_open_cone():
    """All coordinates equal, as ``1``, ``Fraction(2, 2)`` and ``1.0``: the
    point lies in the closure of every K4 structure cone, but in one open
    cone only, the one-class structure's; every other open cone has a facet
    tie that puts it just outside."""
    cones = [c for c in _membership_cones("structures-k4") if not c.closed]
    x = tuple(itertools.islice(itertools.cycle(TIE_FORMS[1]), len(cones[0].labels)))
    assert [c.dim for c in cones if c.contains(x)] == [1]
    assert all(c.closure().contains(x) for c in cones)
