"""Structure cones and faces read off the preorder rows, against the builder
that went through ``Preorder.quotient`` and the checking constructor.

Labels, rays, the ``closed`` flag and the rows (in order) must agree, the
comparison plan handed over with the rows must be what ``_comparison``
reads off them, and the faces must agree.  The comparison plan must be
the one ``_structure_cone``'s own walk over the rows gave before it read
the row forest, and the integer rows, built on first read, its rows.  The
unchecked path must not reach the echelon at all.  The rows are laminar,
which gives each class the one facet read off its least strict superset
row."""

import itertools
import random

from hypothesis import given, settings, strategies as st

import enrichfan.cones
import reference_cones as ref
from conftest import biconnected_multigraphs, connected_multigraphs
from enrichfan import corpus
from enrichfan.cones import _comparison, closed_structure_cone, structure_cone
from enrichfan.enriched import enriched_structures
from test_enriched_reference import cycle
from test_toric_reference import k4, wheel4

GRAPHS = {**corpus.corpus_graphs(), "c5": cycle(5), "k4": k4(), "w4": wheel4()}
W4_FACE_SAMPLE = 150  # W4 structures whose faces go through the reference; all of them take about 30 s


def _described(cone) -> tuple:
    return cone.labels, cone.rays, cone.closed, cone.rows


def assert_cones_match(eg):
    old = ref.structure_cone(eg, closed=False)
    opened, closed = structure_cone(eg), closed_structure_cone(eg)
    walked = ref.walked_structure_cone(eg, closed=False)
    assert opened._plan == walked._plan
    assert _described(opened) == _described(walked)
    assert _described(opened) == _described(old)
    assert _described(closed) == (old.labels, old.rays, True, old.rows)
    n = len(old.labels)
    for cone in (opened, closed):
        assert cone._plan == tuple(tuple(_comparison(row, n) for row in rows) for rows in cone.rows)


def assert_faces_match(eg):
    cone = closed_structure_cone(eg)
    assert list(map(_described, cone.faces())) == list(map(_described, ref.faces(cone)))


def test_structure_cones_match_reference_on_every_structure():
    for g in GRAPHS.values():
        for eg in enriched_structures(g):
            assert_cones_match(eg)


def test_faces_match_reference():
    for name, g in GRAPHS.items():
        structs = enriched_structures(g)
        if name == "w4":
            structs = random.Random(22).sample(structs, W4_FACE_SAMPLE)
        for eg in structs:
            assert_faces_match(eg)


def test_faces_are_the_ray_subsets_on_every_w4_structure():
    # the reference faces are the checking constructor on these same
    # subsets, which pass its check as subsets of independent rays
    for eg in enriched_structures(wheel4()):
        cone = closed_structure_cone(eg)
        subsets = [sub for k in range(cone.dim + 1) for sub in itertools.combinations(cone.rays, k)]
        assert list(map(_described, cone.faces())) == [(cone.labels, s, True, None) for s in subsets]


@settings(max_examples=25, deadline=None)
@given(biconnected_multigraphs(), st.randoms(use_true_random=False))
def test_cones_match_reference_on_random_biconnected_graphs(g, rng):
    structs = enriched_structures(g)
    for eg in structs:
        assert_cones_match(eg)
    for eg in rng.sample(structs, min(len(structs), 5)):
        assert_faces_match(eg)


def test_structure_cones_and_faces_never_run_the_echelon(monkeypatch):
    def refuse(vectors):
        raise AssertionError("linearly_independent ran")

    monkeypatch.setattr(enrichfan.cones, "linearly_independent", refuse)
    for g in (corpus.square(), k4()):
        for eg in enriched_structures(g):
            assert structure_cone(eg).dim == closed_structure_cone(eg).dim == eg.rank
            assert len(closed_structure_cone(eg).faces()) == 2**eg.rank


def test_rows_are_built_on_first_read_and_shared_by_the_closure():
    for eg in enriched_structures(k4()):
        walked = ref.walked_structure_cone(eg, closed=False)
        late, early = structure_cone(eg), structure_cone(eg)
        assert late._rows is None and early._rows is None
        early.rows
        shut_late, shut_early = late.closure(), early.closure()
        assert shut_early.rows is early.rows == walked.rows
        assert late.h_description() is late.rows == shut_late.rows == walked.rows
        assert shut_late._plan is late._plan


@settings(max_examples=60, deadline=None)
@given(connected_multigraphs(max_vertices=5, max_edges=7))
def test_rows_are_laminar_and_each_class_has_one_facet(g):
    """Any two distinct rows of a structure are disjoint or nested, so each
    class has one facet: a cover by the class of its least strict superset
    row, or positivity when no other row holds it.  A structure cone has
    ``dim`` facets, one per class."""
    n = g.n_edges
    for eg in enriched_structures(g):
        rows = eg.preorder.rows
        distinct = set(rows)
        assert all(r & s in (0, r, s) for r, s in itertools.combinations(distinct, 2))
        facets = structure_cone(eg)._plan[1]
        assert len(facets) == structure_cone(eg).dim == len(distinct)
        assert {rows[upper] for upper, _ in facets} == distinct
        for upper, lower in facets:
            supersets = [r for r in distinct if r != rows[upper] and r & rows[upper] == rows[upper]]
            assert (rows[lower] if lower < n else None) == min(supersets, key=int.bit_count, default=None)
