"""One contraction per subproblem, against the code it replaced.

The recursion core, whose subproblems take their contraction from their
parent (``enriched._rows``), against the core that rebuilt it from the whole
graph at every miss (``reference_enriched._rebuilt_rows``), for all three
consumers: enumeration order, validation and location, the last with and
without a block-split table shared by the points of one graph.  The
edge-index contraction (``graphs._contract``, and ``contract`` over it)
against the label contraction (``reference_graphs.label_contract``) and
against itself as it ran on the label-dict graph
(``reference_graphs.label_dict_contract``); the
face table against its pairwise form (``reference_enriched.pairwise_faces``);
and the DOT's node labels against ``relation_summary`` as it ran on the
quotient poset."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_enriched as ref
import reference_graphs as ref_graphs
from enrichfan import corpus
from enrichfan.enriched import (
    _argmin,
    _bottoms_of,
    _faces,
    _nonempty_submasks,
    _ordered_rows,
    _parents,
    _structure_rows,
    enriched_structures,
    specializations,
)
from enrichfan.errors import UnknownEdgeError
from enrichfan.formats import _relation_summary
from enrichfan.graphs import MultiGraph, _contract, contract, edge_ends
from test_enriched_reference import cycle, multigraphs
from test_toric_reference import k4, wheel4

SAMPLE = 200  # structures validated, or specialized, per graph with more


def doubled_cycle(n, doubled):
    """The n-cycle with a parallel copy of each edge in ``doubled``."""
    edges = {f"e{i}": (i, (i + 1) % n) for i in range(n)}
    edges.update({f"d{i}": (i, (i + 1) % n) for i in doubled})
    return MultiGraph(range(n), edges)


CORE_GRAPHS = {
    **{f"theta{n}": corpus.theta(n) for n in range(2, 10)},
    **{f"c{n}": cycle(n) for n in range(3, 8)},
    "k4": k4(),
    "w4": wheel4(),
    **{f"doubled{n}{d}": doubled_cycle(n, d) for n, d in ((3, (0,)), (4, (0,)), (4, (0, 2)), (5, (0,)), (5, (0, 2)))},
}


def assert_core_matches_rebuilt(g, rng):
    ends = edge_ends(g)
    n, full = len(ends), (1 << len(ends)) - 1

    def same(bottoms, splits=None):
        got = _structure_rows(ends, bottoms, splits)
        assert got == _ordered_rows(ref._rebuilt_rows(ends, full, bottoms, {}), n), (g, bottoms)
        return got

    found = same(_nonempty_submasks)
    assert [eg.preorder.rows for eg in enriched_structures(g)] == found
    sample = found if len(found) <= SAMPLE else rng.sample(found, SAMPLE)
    chain = tuple(full & ~((1 << i) - 1) for i in range(n))
    for rows in sample:
        assert same(_bottoms_of(rows)) == [rows]
    for rows in (chain, (full,) * n, tuple(1 << i for i in range(n))):  # enriched or not
        same(_bottoms_of(rows))
    splits = {}  # shared by every point, as the lift check shares it on one graph
    for trial in range(30):
        pool = [rng.randint(1, 9) for _ in range(1 + trial % 4)]
        values = [rng.choice(pool) for _ in ends]
        assert same(_argmin(values)) == same(_argmin(values), splits)


@pytest.mark.parametrize("name", CORE_GRAPHS)
def test_core_matches_the_rebuilt_core(name):
    assert_core_matches_rebuilt(CORE_GRAPHS[name], random.Random(34))


@settings(max_examples=80, deadline=None)
@given(multigraphs(max_edges=7))
def test_core_matches_the_rebuilt_core_any_multigraph(g):
    assert_core_matches_rebuilt(g, random.Random(g.n_edges))


def assert_same_contraction(g, s):
    got, want = contract(g, s), ref_graphs.label_contract(g, s)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got.vertices == want.vertices and got.edge_labels == want.edge_labels
    assert [got.ends(e) for e in got.edge_labels] == [want.ends(e) for e in want.edge_labels]
    assert got._vset == want._vset
    mask = sum(1 << i for i, e in enumerate(g.edge_labels) if e in s)
    index = _contract(g, mask)
    assert index == got and hash(index) == hash(want)
    old = ref_graphs.LabelMultiGraph(g.vertices, {e: g.ends(e) for e in g.edge_labels})
    old = ref_graphs.label_dict_contract(old, ref_graphs.label_edge_ends(old), mask)
    assert repr(index) == repr(old) and index.vertices == old.vertices and index.edge_labels == old.edge_labels
    assert [index.ends(e) for e in index.edge_labels] == [old.ends(e) for e in old.edge_labels]


@settings(max_examples=100, deadline=None)
@given(multigraphs(max_edges=7), st.data())
def test_contract_matches_the_label_contraction_any_multigraph(g, data):
    s = data.draw(st.frozensets(st.sampled_from(g.edge_labels))) if g.edge_labels else frozenset()
    assert_same_contraction(g, s)
    rest = contract(g, s)
    if rest.edge_labels:  # a contraction's contraction, built on the trusted path
        assert_same_contraction(rest, frozenset(rest.edge_labels[::2]))


def test_contract_matches_the_label_contraction_on_every_subset():
    for g in [*corpus.corpus_graphs().values(), k4(), doubled_cycle(4, (0, 2))]:
        for k in range(g.n_edges + 1):
            for s in itertools.combinations(g.edge_labels, k):
                assert_same_contraction(g, frozenset(s))


def test_contract_refuses_an_unknown_edge_like_the_label_contraction():
    g = corpus.triangle()
    for s in ({"zz"}, {"a", "zz"}):
        with pytest.raises(UnknownEdgeError, match="unknown edge 'zz'"):
            contract(g, s)
        with pytest.raises(UnknownEdgeError, match="unknown edge 'zz'"):
            ref_graphs.label_contract(g, s)


FACE_GRAPHS = {**corpus.corpus_graphs(), "c5": cycle(5), "k4": k4(), "w4": wheel4(), "theta9": corpus.theta(9)}


def sampled_structures(name):
    structs = enriched_structures(FACE_GRAPHS[name])
    return structs if len(structs) <= 700 else random.Random(34).sample(structs, SAMPLE)


def sorted_table(table):
    return {mask: sorted(targets) for mask, targets in table.items()}


@pytest.mark.parametrize("name", FACE_GRAPHS)
def test_faces_match_the_pairwise_table(name):
    for eg in sampled_structures(name):
        for facets in (False, True):
            got, want = _faces(eg.preorder.rows, facets), ref.pairwise_faces(eg.preorder.rows, facets)
            assert sorted_table(got) == sorted_table(want), (name, eg.preorder, facets)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_edges=7))
def test_faces_match_the_pairwise_table_any_multigraph(g):
    for eg in enriched_structures(g):
        for facets in (False, True):
            assert sorted_table(_faces(eg.preorder.rows, facets)) == sorted_table(ref.pairwise_faces(eg.preorder.rows, facets))


@pytest.mark.parametrize("name", FACE_GRAPHS)
def test_specialization_targets_are_the_label_contractions(name):
    """Each specialization's target graph, contracted on edge indices, is the
    label contraction in every field and in hash, and the specializations
    are those of the face loop they were split from."""
    for eg in sampled_structures(name):
        sps = specializations(eg)
        for sp in sps:
            want = ref_graphs.label_contract(eg.graph, sp.contracted)
            assert sp.target.graph == want and hash(sp.target.graph) == hash(want)
            assert sp.target.graph.vertices == want.vertices and sp.target.graph._ends == want._ends
        keys = [(sp.contracted, sp.target.graph, sp.target.preorder) for sp in sps]
        assert keys == [(sp.contracted, sp.target.graph, sp.target.preorder) for sp in ref.face_specializations(eg)]


@pytest.mark.parametrize("name", FACE_GRAPHS)
def test_dot_labels_match_the_quotient_summary(name):
    for eg in sampled_structures(name):
        p = eg.preorder
        assert _relation_summary(p, _parents(p.rows)) == ref.relation_summary(p), (name, p)


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_edges=7))
def test_dot_labels_match_the_quotient_summary_any_multigraph(g):
    for eg in enriched_structures(g):
        p = eg.preorder
        assert _relation_summary(p, _parents(p.rows)) == ref.relation_summary(p)
