"""The key-table census and gluing of ``enrichfan.moduli`` against the
pairwise reference and against structural facts of the genus-3 moduli."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import reference_moduli as ref
from enrichfan import enriched, moduli
from enrichfan.enriched import enriched_structures
from enrichfan.graphs import MultiGraph, WeightedGraph, _edge_maps, automorphisms, edge_ends, label_key, weighted_isomorphisms
from enrichfan.moduli import (
    ModuliCell,
    _frame_map,
    _graph_from_key,
    _mover,
    cell_adjacency,
    check_unique_lifts,
    classify_cells,
    enumerate_cells,
    enumerate_stable_weighted_graphs,
)
from enrichfan.preorders import Preorder
from reference_preorders import relabel

# mixed int and string labels, so label order differs from index order
VERTEX_NAMES = [0, 3, 7, "a", "q", "v10", "v2", "z"]
EDGE_NAMES = [1, 2, 5, 10, "b", "e10", "e2", "x", "y1"]


def relabelled(wg: WeightedGraph, rng: random.Random, edge_names=EDGE_NAMES) -> tuple:
    """A copy of ``wg`` under seeded vertex and edge renamings, and the edge renaming."""
    g = wg.graph
    vmap = dict(zip(g.vertices, rng.sample(VERTEX_NAMES, g.n_vertices)))
    emap = dict(zip(g.edge_labels, rng.sample(edge_names, g.n_edges)))
    graph = MultiGraph(list(vmap.values()), {emap[e]: tuple(vmap[x] for x in g.ends(e)) for e in g.edge_labels})
    return WeightedGraph(graph, {vmap[v]: wg.weight(v) for v in g.vertices}), emap


def relabelled_cells(cells, seed: int) -> list:
    """The same cells, each on a seeded relabelling of its graph."""
    rng = random.Random(seed)
    out = []
    for c in cells:
        wg, emap = relabelled(c.weighted, rng)
        p = relabel(c.preorder, emap)
        out.append(ModuliCell(c.index, wg, p, c.genus, tuple(ref.aut_enriched(wg, p))))
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


def frame_images(wg: WeightedGraph, key, mapping) -> tuple:
    """A label frame map as ``_frame_map`` gives it: the key, and the index
    in the frame of the image of each edge."""
    return key, ref._images(wg.graph.edge_labels, mapping, _graph_from_key(key).graph.edge_labels)


def as_mapping(wg: WeightedGraph, key, images) -> dict:
    """An index frame map as a label bijection onto the frame's labels."""
    labels = _graph_from_key(key).graph.edge_labels
    return dict(zip(wg.graph.edge_labels, map(labels.__getitem__, images)))


class TestKeys:
    def test_census_graphs_and_relabellings(self):
        rng = random.Random(4011)
        for g in (1, 2, 3):
            for wg in enumerate_stable_weighted_graphs(g):
                assert _frame_map(wg)[0] == ref._canonical_weighted_key(wg)
                assert _frame_map(wg) == frame_images(wg, *ref._frame_map(wg)) == frame_images(wg, *ref.label_frame_map(wg))
                for _ in range(3):
                    moved, _ = relabelled(wg, rng)
                    assert _frame_map(moved)[0] == ref._canonical_weighted_key(wg)
                    assert _frame_map(moved) == frame_images(moved, *ref._frame_map(moved))

    @settings(max_examples=150, deadline=None)
    @given(weighted_multigraphs())
    def test_any_weighted_multigraph(self, wg):
        assert _frame_map(wg)[0] == ref._canonical_weighted_key(wg)

    @settings(max_examples=150, deadline=None)
    @given(weighted_multigraphs())
    def test_frame_map_is_an_isomorphism(self, wg):
        key, images = _frame_map(wg)
        frame = _graph_from_key(key)
        assert tuple(images) in [edges for edges, _ in _edge_maps(wg, frame)]
        assert as_mapping(wg, key, images) in [iso.as_dict() for iso in weighted_isomorphisms(wg, frame)]
        assert (key, images) == frame_images(wg, *ref._frame_map(wg)) == frame_images(wg, *ref.label_frame_map(wg))


def refined_form(wg: WeightedGraph) -> tuple:
    return ref._refined_form(tuple(map(wg.weight, wg.graph.vertices)), edge_ends(wg.graph))


class TestRefinedForm:
    def test_genus_three_classes_get_distinct_forms(self):
        forms = {refined_form(wg) for wg in enumerate_stable_weighted_graphs(3)}
        assert len(forms) == 42

    def test_relabellings_keep_the_form(self):
        rng = random.Random(2603)
        for g in (1, 2, 3):
            for wg in enumerate_stable_weighted_graphs(g):
                form = refined_form(wg)
                for _ in range(3):
                    assert refined_form(relabelled(wg, rng)[0]) == form

    @settings(max_examples=150, deadline=None)
    @given(weighted_multigraphs(), weighted_multigraphs(), st.randoms(use_true_random=False))
    def test_form_separates_as_the_key_does(self, wg, other, rng):
        assert refined_form(relabelled(wg, rng)[0]) == refined_form(wg)
        same_key = ref._canonical_weighted_key(other) == ref._canonical_weighted_key(wg)
        assert (refined_form(other) == refined_form(wg)) == same_key


class TestCensus:
    def test_same_graphs_in_the_same_order(self):
        for g in (1, 2, 3):
            assert enumerate_stable_weighted_graphs(g) == ref.enumerate_stable_weighted_graphs(g)

    def test_same_graphs_as_the_tuple_census_with_its_own_union_find(self):
        for g in (1, 2, 3):
            assert enumerate_stable_weighted_graphs(g) == ref.enumerate_stable_weighted_graphs_on_tuples(g)


def cell_fields(cells) -> list:
    """Each cell's fields, its automorphisms with their vertex maps, which ``EdgePermutation`` equality leaves out."""
    return [(c.index, c.weighted, c.preorder, [(a.edge_map, a.vertex_map) for a in c.aut]) for c in cells]


class TestCensusWalk:
    def test_cells_match_reference(self):
        for g in (1, 2, 3):
            assert cell_fields(enumerate_cells(g)) == cell_fields(ref.enumerate_cells(g))

    @pytest.mark.parametrize("g, seed, n_points", [(2, 2024, 500), (2, 11, 500), (2, 20240, 500), (3, 17, 82)])
    def test_lift_report_matches_reference(self, g, seed, n_points):
        # 82 points at genus 3 give each of its 41 graphs with edges two
        report = check_unique_lifts(g, seed=seed, n_points=n_points)
        assert report.points_checked == n_points
        assert report == ref.check_unique_lifts(g, seed=seed, n_points=n_points)

    def test_wrong_locate_fails_alike(self, monkeypatch):
        """A location that always answers the canonical structure breaks the
        lifts; the walk must report the same failures as the reference.  The
        walk locates through ``enriched._located_rows`` on edge indices, so
        the wrong answer is planted there as the canonical structure's rows
        of the graph with those ends, whatever block splits the walk shares
        between the calls on one graph, and on the reference's ``locate``."""

        def canonical_locate(g, x):
            return enriched.canonical_structure(g)

        def canonical_rows(ends, values, splits):
            g = MultiGraph({v for pair in ends for v in pair}, dict(enumerate(ends)))
            return enriched.canonical_structure(g).preorder.rows

        monkeypatch.setattr(moduli, "_located_rows", canonical_rows)
        monkeypatch.setattr(ref, "locate", canonical_locate)
        report = check_unique_lifts(2, seed=2024, n_points=60)
        assert report.failures
        assert report == ref.check_unique_lifts(2, seed=2024, n_points=60)

    def test_census_and_gluing_check_no_structure_again(self, monkeypatch):
        calls = []
        real = enriched.is_enriched

        def counted(g, p):
            calls.append(p)
            return real(g, p)

        monkeypatch.setattr(enriched, "is_enriched", counted)
        cells = enumerate_cells(3)
        cell_adjacency(cells)
        assert calls == []
        c = cells[-1]  # the public constructor still checks
        assert ModuliCell(c.index, c.weighted, c.preorder, c.genus, c.aut) == c
        assert calls == [c.preorder]

    def test_census_gluing_and_lifts_move_no_preorder_by_labels(self, monkeypatch):
        # ``Preorder`` has no ``relabel`` any more; one planted on it must stay unused
        calls = []

        def counted(p, mapping):
            calls.append(p)
            return relabel(p, mapping)

        monkeypatch.setattr(Preorder, "relabel", counted, raising=False)
        cells = enumerate_cells(3)
        cell_adjacency(cells)
        check_unique_lifts(2, n_points=60)
        assert calls == []


def k33() -> MultiGraph:
    sides = [("a0", "a1", "a2"), ("b0", "b1", "b2")]
    return MultiGraph([*sides[0], *sides[1]], {f"e{a}{b}": (a, b) for a in sides[0] for b in sides[1]})


class TestMover:
    """``_mover`` moves rows as ``relabel`` moves a preorder."""

    def test_genus_three_structures_under_their_automorphisms(self):
        moved = 0
        for wg in enumerate_stable_weighted_graphs(3):
            labels = wg.graph.edge_labels
            structs = [eg.preorder for eg in enriched_structures(wg.graph)]
            for a in automorphisms(wg):
                move = _mover(ref._images(labels, a.as_dict(), labels))
                for p in structs:
                    assert move(p.rows) == relabel(p, a.as_dict()).rows
                    moved += 1
        assert moved > 10_000

    @pytest.mark.parametrize("seed", [None, 79])
    def test_frame_maps_of_cells(self, seed):
        for g in (1, 2, 3):
            cells = enumerate_cells(g)
            for c in cells if seed is None else relabelled_cells(cells, seed):
                key, images = _frame_map(c.weighted)
                to_frame = as_mapping(c.weighted, key, images)
                assert _mover(images)(c.preorder.rows) == relabel(c.preorder, to_frame).rows

    def test_k33_sample_under_its_72_automorphisms(self):
        g = k33()
        auts = automorphisms(WeightedGraph(g, {v: 0 for v in g.vertices}))
        assert len(auts) == 72
        sample = random.Random(3303).sample([eg.preorder for eg in enriched_structures(g)], 2000)
        for a in auts:
            move = _mover(ref._images(g.edge_labels, a.as_dict(), g.edge_labels))
            assert [move(p.rows) for p in sample] == [relabel(p, a.as_dict()).rows for p in sample]


LONG_EDGE_NAMES = [*EDGE_NAMES, 0, 3, 11, "e1", "e11", "e3", "w"]  # enough names for 12 edges


def genus_five_sample(monkeypatch, per_size: int = 8, seed: int = 5012) -> list:
    """Seeded genus-5 stable graphs with 10, 11 and 12 edges, the genus guard lifted in process."""
    monkeypatch.setattr(moduli, "GENUS_GUARD", 5)
    graphs = enumerate_stable_weighted_graphs(5)
    rng = random.Random(seed)
    return [wg for n in (10, 11, 12) for wg in rng.sample([h for h in graphs if h.graph.n_edges == n], per_size)]


def assert_isomorphism(wg: WeightedGraph, frame: WeightedGraph, images) -> None:
    """Edge ``i`` of ``wg`` going to edge ``images[i]`` of ``frame`` is an isomorphism:
    a weight-keeping vertex bijection carries the ends of each edge onto its image's."""
    g, f = wg.graph, frame.graph
    assert sorted(images) == list(range(f.n_edges)) and g.n_vertices == f.n_vertices
    (vertex_images,) = [vs for edges, vs in _edge_maps(wg, frame) if edges == tuple(images)]
    to = dict(zip(g.vertices, map(f.vertices.__getitem__, vertex_images)))
    assert sorted(vertex_images) == list(range(f.n_vertices))
    assert all(wg.weight(v) == frame.weight(to[v]) for v in g.vertices)
    for e, j in zip(g.edge_labels, images):
        assert sorted(f.ends(f.edge_labels[j]), key=label_key) == sorted(map(to.__getitem__, g.ends(e)), key=label_key)


class TestFramesPastNineEdges:
    """From ten edges on the frame's labels ``e1``, ``e2``, ... sort as
    strings, so a frame edge's index is not its key position."""

    def test_genus_five_graphs_and_relabellings(self, monkeypatch):
        rng = random.Random(5013)
        off_key_order = 0
        for wg in genus_five_sample(monkeypatch):
            for h in (wg, relabelled(wg, rng, LONG_EDGE_NAMES)[0], relabelled(wg, rng, LONG_EDGE_NAMES)[0]):
                key, images = _frame_map(h)
                old_key, mapping = ref.label_frame_map(h)
                assert (key, images) == frame_images(h, old_key, mapping)
                assert_isomorphism(h, _graph_from_key(key), images)
                off_key_order += images != [int(mapping[e][1:]) - 1 for e in h.graph.edge_labels]
                p = enriched.locate(h.graph, {e: rng.randint(1, 9) for e in h.graph.edge_labels}).preorder
                assert _mover(images)(p.rows) == relabel(p, as_mapping(h, key, images)).rows
        assert off_key_order > 0


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
                assert (b.index in cell_adjacency([a, b])[a.index]) == ref.cell_specializes_to(a, b)


class TestFaceTableGluing:
    """The gluing on face tables against the key-table gluing it replaced,
    which built every specialization and framed each lower set per cell."""

    @pytest.mark.parametrize("g", [2, 3])
    def test_same_adjacency(self, g):
        cells = enumerate_cells(g)
        assert cell_adjacency(cells) == ref.key_table_cell_adjacency(cells)

    def test_same_adjacency_on_relabelled_genus_two_cells(self):
        cells = relabelled_cells(enumerate_cells(2), 80)
        assert cell_adjacency(cells) == ref.key_table_cell_adjacency(cells)

    def test_same_genus_two_classification(self):
        assert classify_cells(2) == ref.key_table_classify_cells(2)

    def test_adjacency_builds_no_specialization(self, monkeypatch):
        cells = enumerate_cells(3)

        def refuse(*args):
            raise AssertionError("the gluing built a specialization or a preorder")

        monkeypatch.setattr(enriched, "specializations", refuse)
        monkeypatch.setattr(moduli, "specializations", refuse, raising=False)
        monkeypatch.setattr(Preorder, "_family", staticmethod(refuse))
        adjacency = cell_adjacency(cells)
        assert sum(map(len, adjacency.values())) > len(cells)


class TestClassification:
    def test_genus_two_report(self):
        assert classify_cells(2) == ref.classify_cells(2)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_facets_give_the_all_faces_report(self, g):
        assert classify_cells(g) == ref.all_faces_classify_cells(g)

    def test_only_the_facets_of_the_maximal_cells_are_read(self, monkeypatch):
        # a maximal cell of dimension d has d facets and 2^d faces
        read = []

        def counted(rows, *args, **kwargs):
            table = enriched._faces(rows, *args, **kwargs)
            read.append((len(set(rows)), sum(map(len, table.values()))))
            return table

        monkeypatch.setattr(moduli, "_faces", counted)
        report = classify_cells(3)
        assert len(read) == len(report.maximal) == 15
        assert all(faces <= dim for dim, faces in read)

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
