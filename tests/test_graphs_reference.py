"""``weighted_isomorphisms`` and ``automorphisms``, read off the canonical-key
orderings and matching edges on indices, against the backtracking search
and the label-sorting key search they replaced (``reference_graphs``):
the same edge maps, vertex maps and order; the ordered-partition search
``_canonical_orderings`` against the permutation scan it replaced (the same
key and orderings in the same order), and its node cap; and every vertex merge on the union-find ``graphs._roots``
(contraction classes, components, incidence, bond checks) against the
code it replaced; ``good_contraction_sequence``, deciding each subset
on edge masks, against its copy that contracted every subset, and its one
merge per subset; and ``bonds``, built from the side masks of
``_bond_masks``, against the enumeration that built a checked ``Bond`` for
every side; and every accessor of ``MultiGraph``, stored as vertex-index
ends, against the graph stored as a dict from labels to end labels
(``reference_graphs.LabelMultiGraph``)."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_graphs as ref
from conftest import connected_multigraphs, zero_weights
from enrichfan import corpus, graphs, moduli
from enrichfan.errors import DisconnectedGraphError, GuardExceededError, NotABondError, UnknownEdgeError, UnknownVertexError
from enrichfan.graphs import (
    SEARCH_NODES,
    Bond,
    MultiGraph,
    WeightedGraph,
    _canonical_orderings,
    automorphisms,
    bonds,
    contraction_classes,
    edge_ends,
    good_contraction_sequence,
    weighted_isomorphisms,
)
from enrichfan.moduli import enumerate_stable_weighted_graphs
from test_moduli_reference import EDGE_NAMES, VERTEX_NAMES, relabelled
from test_toric_reference import doubled_square, k4, mixed_labels, wheel4


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
    out = [zero_weights(g) for g in graphs]
    for g in corpus.corpus_graphs().values():
        out.append(WeightedGraph(g, {v: int(i == 0) for i, v in enumerate(g.vertices)}))
    return out


def stable_graphs() -> list:
    return [wg for g in (1, 2, 3) for wg in enumerate_stable_weighted_graphs(g)]


def maps(isos) -> list:
    """Edge and vertex maps; ``EdgePermutation`` equality ignores the vertex map."""
    return [(a.edge_map, a.vertex_map) for a in isos]


def assert_same(wg1, wg2):
    got = maps(weighted_isomorphisms(wg1, wg2))
    assert got == maps(ref.weighted_isomorphisms(wg1, wg2))
    assert got == maps(ref.sorted_label_isomorphisms(wg1, wg2))


@pytest.mark.parametrize("wg", stable_graphs() + named_graphs())
def test_automorphisms_match_reference(wg):
    got = automorphisms(wg)
    assert got and maps(got) == maps(ref.weighted_isomorphisms(wg, wg))
    assert maps(got) == maps(ref.sorted_label_isomorphisms(wg, wg))


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
                assert maps(got) == maps(ref.sorted_label_isomorphisms(wg, copy))


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


# loops, parallel edges, an isolated vertex and four components, on mixed int/str ids
EVERY_FEATURE = WeightedGraph(
    MultiGraph([0, 3, 7, "a", "q", "z"], {1: (0, 3), 2: (3, 0), "b": ("a", "a"), "x": ("a", "q"), 5: (7, 7), "y1": (7, 7)}),
    {v: 0 for v in [0, 3, 7, "a", "q", "z"]},
)


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


def indexed(wg) -> tuple:
    """The weights and edge ends of ``wg`` on vertex indices, as the search takes them."""
    return tuple(map(wg.weight, wg.graph.vertices)), edge_ends(wg.graph)


def shuffled(weights, ends, rng) -> tuple:
    """The same graph with its vertex indices permuted at random."""
    perm = list(range(len(weights)))
    rng.shuffle(perm)
    moved = [0] * len(weights)
    for i, p in enumerate(perm):
        moved[p] = weights[i]
    return tuple(moved), tuple((perm[u], perm[v]) for u, v in ends)


def assert_search_is_scan(weights, ends):
    # the same key, the same orderings and the same order
    assert _canonical_orderings(weights, ends) == ref._canonical_orderings(weights, ends)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_search_equals_scan_on_stable_graphs(g, monkeypatch):
    monkeypatch.setattr(moduli, "GENUS_GUARD", 4)
    rng = random.Random(g)
    found = enumerate_stable_weighted_graphs(g)
    assert len(found) == {2: 7, 3: 42, 4: 379}[g]
    for wg in found:
        weights, ends = indexed(wg)
        assert_search_is_scan(weights, ends)
        assert_search_is_scan(*shuffled(weights, ends, rng))


@settings(max_examples=120, deadline=None)
@given(small_multigraphs(max_vertices=7, max_edges=9), st.randoms(use_true_random=False))
@example(EVERY_FEATURE, random.Random(0))
def test_search_equals_scan_on_random_multigraphs(wg, rnd):
    weights, ends = indexed(wg)
    assert_search_is_scan(weights, ends)
    assert_search_is_scan(*shuffled(weights, ends, rnd))


def test_search_equals_scan_on_the_empty_graph():
    assert_search_is_scan((), ())
    assert [a.edge_map for a in automorphisms(zero_weights(MultiGraph([], {})))] == [()]


def test_search_equals_scan_past_the_old_vertex_cap(monkeypatch):
    # the 9-cycle with weight 1 on every third vertex, against the scan with its cap lifted
    weights = tuple(int(i % 3 == 0) for i in range(9))
    ends = tuple(sorted((i, (i + 1) % 9) if i < 8 else (0, 8) for i in range(9)))
    monkeypatch.setattr(ref, "AUTOMORPHISM_VERTICES", 9)
    key, found = _canonical_orderings(weights, ends)
    assert len(found) == 6
    assert_search_is_scan(weights, ends)


def test_nine_cycle_gets_its_dihedral_group():
    # past the old 8-vertex cap: 9 rotations and 9 reflections
    n = 9
    auts = automorphisms(zero_weights(MultiGraph(range(n), {f"c{i}": (i, (i + 1) % n) for i in range(n)})))
    assert len(auts) == 2 * n


def test_node_cap_is_the_unsplit_eight_vertex_search(monkeypatch):
    # no edge splits a cell, so 8!/(8 - k)! vertices are placed at depth k
    assert SEARCH_NODES == sum(math.perm(8, k) for k in range(9)) == 109_601
    edgeless = zero_weights(MultiGraph(range(8), {}))
    assert len(_canonical_orderings((0,) * 8, ())[1]) == math.factorial(8)
    assert [a.edge_map for a in automorphisms(edgeless)] == [()]
    monkeypatch.setattr(graphs, "SEARCH_NODES", SEARCH_NODES - 1)
    with pytest.raises(GuardExceededError, match="passed 109600 nodes"):
        automorphisms(edgeless)


def test_node_cap_refuses_nine_edgeless_vertices():
    edgeless = zero_weights(MultiGraph(range(9), {}))
    with pytest.raises(GuardExceededError, match="passed 109601 nodes"):
        automorphisms(edgeless)
    with pytest.raises(GuardExceededError, match="passed 109601 nodes"):
        weighted_isomorphisms(edgeless, edgeless)


def test_eight_vertices_are_searched():
    # distinct weights leave one ordering, so the search at the cap is cheap
    path = MultiGraph(range(8), {f"p{i}": (i, i + 1) for i in range(7)})
    auts = automorphisms(WeightedGraph(path, {i: i for i in range(8)}))
    assert len(auts) == 1 and auts[0].is_identity()


def subsets(xs):
    return [c for k in range(len(xs) + 1) for c in itertools.combinations(xs, k)]


def outcome(call, *args):
    """The value of ``call(*args)``, or the type and message of what it raised."""
    try:
        return call(*args)
    except (NotABondError, UnknownEdgeError, UnknownVertexError) as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(small_multigraphs(max_vertices=6, max_edges=7))
@example(EVERY_FEATURE)
def test_merges_match_reference(wg):
    g = wg.graph
    for s in subsets(g.edge_labels):
        assert contraction_classes(g, s) == ref.contraction_classes(g, s)
    assert outcome(contraction_classes, g, {"nope"}) == outcome(ref.contraction_classes, g, {"nope"})
    assert outcome(contraction_classes, g, {"nope"})[0] is UnknownEdgeError
    assert g.connected_components() == ref.connected_components(g)
    assert g.is_connected() == ref.is_connected(g)
    for v in g.vertices + ("nope",):
        assert outcome(g.incident, v) == outcome(ref.incident, g, v)
        assert outcome(g.valence, v) == outcome(ref.valence, g, v)


def build_bond(g, side, edges) -> None:
    """``Bond(g, side, edges)``, giving ``None`` on acceptance as ``check_bond`` does."""
    Bond(g, side, edges)


@settings(max_examples=150, deadline=None)
@given(small_multigraphs(max_vertices=6, max_edges=7))
@example(EVERY_FEATURE)
def test_bond_checks_match_reference(wg):
    """Every side, with its cut and with every edge, plus a side naming an
    unknown vertex: the same acceptance or the same refusal."""
    g = wg.graph
    every = frozenset(g.edge_labels)
    sides = [frozenset(side) for side in subsets(g.vertices)] + [frozenset({"nope"})]
    for side in sides:
        for edges in (g.cut_edges(side), every):
            assert outcome(build_bond, g, side, edges) == outcome(ref.check_bond, g, side, edges)


@pytest.mark.parametrize("wg", named_graphs())
def test_bonds_match_reference(wg):
    g = wg.graph
    assert [(b.side, b.edges) for b in bonds(g)] == ref.bonds(g)


def assert_same_bonds(g):
    """``bonds`` gives the checked enumeration's list, and each bond passes the public constructor."""
    got = bonds(g)
    assert got == ref.from_side_bonds(g)
    assert all(b == Bond(g, b.side, b.edges) for b in got)


@pytest.mark.parametrize("g", [*corpus.corpus_graphs().values(), k4(), wheel4(), prism(), doubled_square(), mixed_labels()])
def test_bonds_match_checked_enumeration(g):
    assert_same_bonds(g)


@settings(max_examples=150, deadline=None)
@given(connected_multigraphs(max_vertices=6, max_edges=9))
def test_bonds_match_checked_enumeration_on_random_connected_graphs(g):
    assert_same_bonds(g)


@settings(max_examples=100, deadline=None)
@given(small_multigraphs(max_vertices=6, max_edges=7))
@example(EVERY_FEATURE)
def test_bonds_refuse_what_the_checked_enumeration_refuses(wg):
    # disconnected graphs included: both raise the same error
    outcomes = []
    for enumerate_bonds in (bonds, ref.from_side_bonds):
        try:
            outcomes.append(enumerate_bonds(wg.graph))
        except DisconnectedGraphError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


CONTRACTION_CASES = {
    **{name: make for name, make in corpus.CORPUS.items()},
    "k4": k4,
    "w4": wheel4,
    "prism": prism,
    # a triangle with a loop and a doubled side: contractions that leave a loop
    "loop": lambda: MultiGraph(
        "abc", {"x": ("a", "b"), "y": ("b", "c"), "z": ("a", "c"), "w": ("a", "b"), "l": ("c", "c")}
    ),
    # two triangles and an isolated vertex: no connected target
    "disconnected": lambda: MultiGraph(
        "abcdefg", {"p": ("a", "b"), "q": ("b", "c"), "r": ("a", "c"), "s": ("d", "e"), "t": ("e", "f"), "u": ("d", "f")}
    ),
}


@pytest.mark.parametrize("name", sorted(CONTRACTION_CASES))
def test_good_contraction_sequence_matches_reference(name):
    g = CONTRACTION_CASES[name]()
    assert good_contraction_sequence(g) == ref.good_contraction_sequence(g)


def test_good_contraction_sequence_merges_each_subset_once(monkeypatch):
    # the merge that decides a subset also contracts it: one ``_roots`` call
    # for each of the prism's 2^9 - 1 proper edge subsets, 107 of them kept
    calls = []
    real = graphs._roots

    def counted(pairs):
        calls.append(1)
        return real(pairs)

    monkeypatch.setattr(graphs, "_roots", counted)
    assert len(good_contraction_sequence(prism())) == 107
    assert len(calls) == 511


@settings(max_examples=200, deadline=None)
@given(small_multigraphs(max_vertices=6, max_edges=7))
@example(EVERY_FEATURE)
def test_good_contraction_sequence_matches_reference_on_random_multigraphs(wg):
    g = wg.graph
    assert good_contraction_sequence(g) == ref.good_contraction_sequence(g)


@st.composite
def multigraph_specs(draw, max_vertices=5, max_edges=6):
    """Vertex ids and a ``label -> (u, v)`` dict: loops and parallel edges, connected or not."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = draw(st.lists(st.sampled_from(VERTEX_NAMES), min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(st.sampled_from(EDGE_NAMES), max_size=max_edges, unique=True))
    return vertices, {e: (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))) for e in labels}


def spec(g: MultiGraph) -> tuple:
    return list(g.vertices), {e: g.ends(e) for e in g.edge_labels}


@settings(max_examples=200, deadline=None)
@given(multigraph_specs(), multigraph_specs(), st.randoms(use_true_random=False))
@example(spec(EVERY_FEATURE.graph), spec(corpus.dumbbell()), random.Random(0))
@example(spec(corpus.dumbbell()), spec(corpus.dumbbell()), random.Random(1))
def test_accessors_match_the_label_dict_graph(drawn, other, rnd):
    vertices, edges = drawn
    g, old = MultiGraph(vertices, edges), ref.LabelMultiGraph(vertices, edges)
    assert g.vertices == old.vertices and g.edge_labels == old.edge_labels
    assert edge_ends(g) == ref.label_edge_ends(old)
    for e in g.edge_labels + ("nope",):
        assert outcome(g.ends, e) == outcome(old.ends, e)
    assert g.loops() == old.loops()
    for v in g.vertices + ("nope",):
        assert outcome(g.incident, v) == outcome(old.incident, v)
        assert outcome(g.valence, v) == outcome(old.valence, v)
    for side in subsets(g.vertices):  # sides holding loops, and vertices the graph lacks
        assert g.cut_edges(side) == old.cut_edges(side)
        assert g.cut_edges(side + ("nope", 99)) == old.cut_edges(side + ("nope", 99))
    assert g.connected_components() == old.connected_components()
    assert repr(g) == repr(old)
    # the same graph written another way, and another graph
    rewritten = {e: uv[::-1] if rnd.random() < 0.5 else uv for e, uv in rnd.sample(list(edges.items()), len(edges))}
    for vs, es in ((rnd.sample(vertices, len(vertices)), rewritten), other):
        h, old_h = MultiGraph(vs, es), ref.LabelMultiGraph(vs, es)
        assert (g == h) == (old == old_h) and (g != h) == (old != old_h)
        assert g != h or hash(g) == hash(h)
    assert MultiGraph(vertices, rewritten) == g
