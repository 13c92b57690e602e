"""The key-table census and gluing of ``enrichfan.moduli`` against the
pairwise reference and against structural facts of the genus-3 moduli."""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

import reference_moduli as ref
from enrichfan.graphs import MultiGraph, WeightedGraph, weighted_isomorphisms
from enrichfan.moduli import (
    ModuliCell,
    _canonical_weighted_key,
    _frame_map,
    _graph_from_key,
    aut_enriched,
    cell_adjacency,
    cell_specializes_to,
    classify_cells,
    enumerate_cells,
    enumerate_stable_weighted_graphs,
)

# mixed int and string labels, so label order differs from index order
VERTEX_NAMES = [0, 3, 7, "a", "q", "v10", "v2", "z"]
EDGE_NAMES = [1, 2, 5, 10, "b", "e10", "e2", "x", "y1"]


def relabelled(wg: WeightedGraph, rng: random.Random) -> tuple:
    """A copy of ``wg`` under seeded vertex and edge renamings, and the edge renaming."""
    g = wg.graph
    vmap = dict(zip(g.vertices, rng.sample(VERTEX_NAMES, g.n_vertices)))
    emap = dict(zip(g.edge_labels, rng.sample(EDGE_NAMES, g.n_edges)))
    graph = MultiGraph(list(vmap.values()), {emap[e]: tuple(vmap[x] for x in g.ends(e)) for e in g.edge_labels})
    return WeightedGraph(graph, {vmap[v]: wg.weight(v) for v in g.vertices}), emap


def relabelled_cells(cells, seed: int) -> list:
    """The same cells, each on a seeded relabelling of its graph."""
    rng = random.Random(seed)
    out = []
    for c in cells:
        wg, emap = relabelled(c.weighted, rng)
        p = c.preorder.relabel(emap)
        out.append(ModuliCell(c.index, wg, p, c.genus, tuple(aut_enriched(wg, p))))
    return out


@st.composite
def weighted_multigraphs(draw, max_vertices=4, max_edges=6):
    """Weighted multigraphs with loops and parallel edges, connected or not."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = draw(st.lists(st.sampled_from(VERTEX_NAMES), min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(st.sampled_from(EDGE_NAMES), max_size=max_edges, unique=True))
    edges = {e: (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))) for e in labels}
    weights = {v: draw(st.integers(min_value=0, max_value=2)) for v in vertices}
    return WeightedGraph(MultiGraph(vertices, edges), weights)


class TestKeys:
    def test_census_graphs_and_relabellings(self):
        rng = random.Random(4011)
        for g in (1, 2, 3):
            for wg in enumerate_stable_weighted_graphs(g):
                assert _canonical_weighted_key(wg) == ref._canonical_weighted_key(wg)
                assert _frame_map(wg) == ref._frame_map(wg)
                for _ in range(3):
                    moved, _ = relabelled(wg, rng)
                    assert _canonical_weighted_key(moved) == ref._canonical_weighted_key(wg)
                    assert _frame_map(moved) == ref._frame_map(moved)

    @settings(max_examples=150, deadline=None)
    @given(weighted_multigraphs())
    def test_any_weighted_multigraph(self, wg):
        assert _canonical_weighted_key(wg) == ref._canonical_weighted_key(wg)

    @settings(max_examples=150, deadline=None)
    @given(weighted_multigraphs())
    def test_frame_map_is_an_isomorphism(self, wg):
        key, to_frame = _frame_map(wg)
        frame = _graph_from_key(key)
        assert to_frame in [iso.as_dict() for iso in weighted_isomorphisms(wg, frame)]
        assert (key, to_frame) == ref._frame_map(wg)


class TestCensus:
    def test_same_graphs_in_the_same_order(self):
        for g in (1, 2, 3):
            assert enumerate_stable_weighted_graphs(g) == ref.enumerate_stable_weighted_graphs(g)


def genus_three_sample(count: int = 12, seed: int = 3301) -> list:
    """Seeded genus-3 cells, drawn across dimensions so that arrows occur."""
    cells = enumerate_cells(3)
    rng = random.Random(seed)
    by_dim = {}
    for c in cells:
        by_dim.setdefault(c.dim, []).append(c)
    picked = [rng.choice(by_dim[d]) for d in sorted(by_dim)]
    rest = [c for c in cells if c not in picked]
    picked += rng.sample(rest, count - len(picked))
    return sorted(picked, key=lambda c: c.index)


class TestAdjacency:
    def test_genus_two(self):
        cells = enumerate_cells(2)
        assert cell_adjacency(cells) == ref.cell_adjacency(cells)

    def test_genus_two_on_relabelled_graphs(self):
        cells = enumerate_cells(2)
        assert cell_adjacency(relabelled_cells(cells, 77)) == ref.cell_adjacency(cells)

    def test_genus_three_sample(self):
        sample = genus_three_sample()
        expected = ref.cell_adjacency(sample)
        assert sum(map(len, expected.values())) > 0
        assert cell_adjacency(sample) == expected
        assert cell_adjacency(relabelled_cells(sample, 78)) == expected

    def test_specializes_to_on_pairs(self):
        sample = genus_three_sample(count=8, seed=3302)
        for a in sample:
            for b in sample:
                assert cell_specializes_to(a, b) == ref.cell_specializes_to(a, b)


class TestClassification:
    def test_genus_two_report(self):
        assert classify_cells(2) == ref.classify_cells(2)

    def test_genus_three_report(self):
        # the pairwise reference gives this same report, in about 40 s
        report = classify_cells(3)
        kinds = (report.codim1_valence_four, report.codim1_weight_one_leaf, report.codim1_merged_classes)
        assert len(report.maximal) == 15 and [len(k) for k in kinds] == [9, 5, 42]
        counts = [sorted(Counter(report.closure_counts[i] for i in k).items()) for k in kinds]
        assert counts == [[(2, 8), (3, 1)], [(1, 5)], [(1, 28), (2, 14)]]
        assert report.connected_through_codim1


class TestGenusThree:
    def test_full_adjacency_invariants(self):
        cells = enumerate_cells(3)
        adjacency = cell_adjacency(cells)
        dim = {c.index: c.dim for c in cells}
        (point,) = [c.index for c in cells if c.dim == 0]
        for a, targets in adjacency.items():
            assert all(dim[b] < dim[a] for b in targets)
            for b in targets:
                assert set(adjacency[b]) <= set(targets)  # transitively closed
            if a != point:
                assert point in targets
        assert adjacency[point] == []
