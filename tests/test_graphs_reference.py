"""``weighted_isomorphisms`` and ``automorphisms``, read off the canonical-key
orderings, against the backtracking search they replaced
(``reference_graphs``), and the vertex cap of the shared search."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_graphs as ref
from enrichfan import corpus
from enrichfan.errors import GuardExceededError
from enrichfan.graphs import AUTOMORPHISM_VERTICES, MultiGraph, WeightedGraph, automorphisms, weighted_isomorphisms
from enrichfan.moduli import enumerate_stable_weighted_graphs
from test_moduli_reference import EDGE_NAMES, VERTEX_NAMES, relabelled
from test_toric_reference import k4, wheel4


def prism():
    return MultiGraph(
        "abcdef",
        {
            "e1": ("a", "b"), "e2": ("b", "c"), "e3": ("a", "c"),
            "e4": ("d", "e"), "e5": ("e", "f"), "e6": ("d", "f"),
            "e7": ("a", "d"), "e8": ("b", "e"), "e9": ("c", "f"),
        },
    )


def named_graphs() -> list:
    """The corpus, K4, W4 and the prism with weight 0, and the corpus with weight 1 on its least vertex."""
    graphs = list(corpus.corpus_graphs().values()) + [k4(), wheel4(), prism()]
    out = [corpus.zero_weights(g) for g in graphs]
    for g in corpus.corpus_graphs().values():
        out.append(WeightedGraph(g, {v: int(i == 0) for i, v in enumerate(g.vertices)}))
    return out


def stable_graphs() -> list:
    return [wg for g in (1, 2, 3) for wg in enumerate_stable_weighted_graphs(g)]


def maps(isos) -> list:
    """Edge and vertex maps; ``EdgePermutation`` equality ignores the vertex map."""
    return [(a.edge_map, a.vertex_map) for a in isos]


def assert_same(wg1, wg2):
    assert maps(weighted_isomorphisms(wg1, wg2)) == maps(ref.weighted_isomorphisms(wg1, wg2))


@pytest.mark.parametrize("wg", stable_graphs() + named_graphs())
def test_automorphisms_match_reference(wg):
    got = automorphisms(wg)
    assert got and maps(got) == maps(ref.weighted_isomorphisms(wg, wg))


@pytest.mark.parametrize("wg", named_graphs())
def test_isomorphisms_to_relabelled_copies_match_reference(wg):
    rng = random.Random(repr(wg))
    for _ in range(3):
        copy, _ = relabelled(wg, rng)
        assert weighted_isomorphisms(wg, copy)
        assert_same(wg, copy)
        assert_same(copy, wg)


def test_stable_graphs_pairwise_match_reference():
    # every genus-g stable graph against a relabelled copy of every other:
    # one isomorphic pair per graph, the rest not isomorphic
    rng = random.Random(5)
    for g in (1, 2, 3):
        wgs = enumerate_stable_weighted_graphs(g)
        copies = [relabelled(wg, rng)[0] for wg in wgs]
        for i, wg in enumerate(wgs):
            for j, copy in enumerate(copies):
                got = weighted_isomorphisms(wg, copy)
                assert bool(got) == (i == j)
                assert maps(got) == maps(ref.weighted_isomorphisms(wg, copy))


def test_named_graphs_pairwise_match_reference():
    wgs = named_graphs()
    for wg1, wg2 in itertools.product(wgs, repeat=2):
        assert_same(wg1, wg2)


@st.composite
def small_multigraphs(draw, max_vertices=5, max_edges=6):
    """Multigraphs with loops and parallel edges, connected or not, weights 0 or 1."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = draw(st.lists(st.sampled_from(VERTEX_NAMES), min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(st.sampled_from(EDGE_NAMES), max_size=max_edges, unique=True))
    edges = {e: (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))) for e in labels}
    weights = {v: draw(st.integers(min_value=0, max_value=1)) for v in vertices}
    return WeightedGraph(MultiGraph(vertices, edges), weights)


@settings(max_examples=150, deadline=None)
@given(small_multigraphs(), st.randoms(use_true_random=False))
def test_random_multigraphs_match_reference(wg, rnd):
    assert_same(wg, wg)
    copy, _ = relabelled(wg, rnd)
    assert_same(wg, copy)
    assert_same(copy, wg)


@settings(max_examples=150, deadline=None)
@given(small_multigraphs(), small_multigraphs())
def test_random_pairs_match_reference(wg1, wg2):
    assert_same(wg1, wg2)


def test_vertex_cap_is_checked_before_any_search(monkeypatch):
    assert AUTOMORPHISM_VERTICES == 8
    n = AUTOMORPHISM_VERTICES + 1
    wg = corpus.zero_weights(MultiGraph(range(n), {f"c{i}": (i, (i + 1) % n) for i in range(n)}))

    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(itertools, "permutations", no_search)
    with pytest.raises(GuardExceededError, match="capped at 8 vertices"):
        automorphisms(wg)
    with pytest.raises(GuardExceededError, match="capped at 8 vertices"):
        weighted_isomorphisms(wg, corpus.zero_weights(corpus.triangle()))


def test_eight_vertices_are_searched():
    # distinct weights leave one ordering, so the search at the cap is cheap
    path = MultiGraph(range(8), {f"p{i}": (i, i + 1) for i in range(7)})
    auts = automorphisms(WeightedGraph(path, {i: i for i in range(8)}))
    assert len(auts) == 1 and auts[0].is_identity()
