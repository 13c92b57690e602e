"""The row-based ``Preorder`` methods and structure cones against the
label-by-label code they replaced (``reference_preorders``)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import reference_preorders as ref
from enrichfan import corpus
from enrichfan.cones import closed_structure_cone, ray_generators, structure_cone
from enrichfan.enriched import _faces, enriched_structures
from enrichfan.errors import UnknownLabelError
from enrichfan.preorders import Preorder
from reference_lattices import halfspaces_of
from test_enriched_reference import cycle
from test_toric_reference import k4, wheel4

# mixed int and string labels: ints sort numerically and before strings
LABELS = [1, 2, 10, "a", "b", "c", "x1", "x10", "x2"]
UNKNOWN = "zz"


def _subsets(labels):
    return [s for k in range(len(labels) + 1) for s in itertools.combinations(labels, k)]


def _raised(f, *args):
    """The result of ``f(*args)``, or the message of the ``UnknownLabelError`` it raises."""
    try:
        return f(*args)
    except UnknownLabelError as exc:
        return ("UnknownLabelError", str(exc))


def _assert_same(p, subsets):
    assert p.pairs() == ref.pairs(p)
    assert p.classes() == ref.classes(p)
    assert p.rank == ref.rank(p)
    assert p.is_partial_order() == ref.is_partial_order(p)
    lower = set(ref.lower_sets(p))
    faces = _faces(p.rows)  # keyed by lower set, one target per face
    assert set(faces) == {p._mask(s) for s in lower} and sum(map(len, faces.values())) == 2 ** p.rank
    assert p.irreducible_upper_sets() == ref.irreducible_upper_sets(p)
    assert p.quotient() == ref.quotient(p)
    for s in subsets:
        assert _raised(p.is_upper_set, s) == _raised(ref.is_upper_set, p, s)
        if set(s) <= set(p.ground):  # the enumeration agrees with the definition
            assert ref.is_lower_set(p, s) == (frozenset(s) in lower)


def test_every_small_preorder_matches_reference():
    seen = 0
    for n in range(5):
        labels = [2, "a", 10, "b"][:n]
        subsets = _subsets(labels) + [s + (UNKNOWN,) for s in _subsets(labels)[:3]]
        for p in ref.all_preorders(labels):
            _assert_same(p, subsets)
            seen += 1
    assert seen == 1 + 1 + 4 + 29 + 355


@st.composite
def preorders(draw):
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=5, max_size=9, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), max_size=12))
    return Preorder.from_relations(labels, pairs)


@settings(max_examples=150, deadline=None)
@given(preorders(), st.data())
def test_random_preorders_match_reference(p, data):
    pool = list(p.ground) + [UNKNOWN]
    subsets = [tuple(data.draw(st.sets(st.sampled_from(pool)))) for _ in range(6)]
    subsets.append(tuple(data.draw(st.sets(st.sampled_from(p.ground)))))
    _assert_same(p, subsets)


GRAPHS = {**corpus.CORPUS, "c5": lambda: cycle(5), "k4": k4, "w4": wheel4}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_structure_cones_match_reference(name):
    for eg in enriched_structures(GRAPHS[name]()):
        rays = ref.ray_generators(eg)
        assert ray_generators(eg) == rays
        for cone, strict in ((structure_cone(eg), True), (closed_structure_cone(eg), False)):
            assert cone.rays == tuple(rays) and cone.closed is not strict
            assert halfspaces_of(cone) == ref._structure_halfspaces(eg, strict)
