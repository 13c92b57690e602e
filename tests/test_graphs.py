import itertools

import pytest

from conftest import zero_weights
from enrichfan import corpus
from enrichfan.errors import DisconnectedGraphError, NotABondError, UnknownEdgeError
from enrichfan.graphs import (
    Bond,
    MultiGraph,
    WeightedGraph,
    automorphisms,
    biconnected_components,
    bonds,
    contract,
    genus,
    is_biconnected,
    is_stable,
    label_key,
)
from reference_graphs import induced
from reference_moduli import contract_weighted


def delete_edges(g, labels) -> MultiGraph:
    return MultiGraph(g.vertices, {e: g.ends(e) for e in g.edge_labels if e not in labels})


def bond_sum(b1: Bond, b2: Bond) -> Bond:
    """The cut ``E(V1 ∪ V2, V1^c ∩ V2^c)`` of two bonds with disjoint sides;
    ``Bond`` refuses it when that cut is not a bond."""
    if b1.side & b2.side:
        raise ValueError("sides must be disjoint")
    return Bond.from_side(b1.graph, b1.side | b2.side)


def connected_partition(g, seeds) -> list:
    """Partition ``V(g)`` into connected blocks, one containing each seed vertex.

    Every component of the complement joins the block of its smallest
    adjacent seed vertex, which makes the choice deterministic.
    """
    blocks = {v: {v} for v in seeds}
    for comp in induced(g, set(g.vertices) - set(seeds)).connected_components():
        touching = {w for e in g.edge_labels for u, w in (g.ends(e), g.ends(e)[::-1]) if u in comp and w in blocks}
        blocks[min(touching, key=label_key)] |= comp
    return [frozenset(blocks[v]) for v in seeds]


def bond_edge_sets_oracle(g):
    """Independent bond enumeration: scan *edge* subsets for minimal cuts.

    F is a bond iff deleting F leaves exactly two connected components and
    F is exactly the set of edges joining them.
    """
    out = set()
    labels = g.edge_labels
    for k in range(1, len(labels) + 1):
        for sub in itertools.combinations(labels, k):
            f = frozenset(sub)
            rest = delete_edges(g, f)
            comps = rest.connected_components()
            if len(comps) != 2:
                continue
            if g.cut_edges(comps[0]) == f:
                out.add(f)
    return out


def incidence(g):
    return {e: g.ends(e) for e in g.edge_labels}


class TestMultiGraph:
    def test_basic_invariants(self):
        g = corpus.doubled_triangle()
        assert g.vertices == ("a", "b", "d")
        assert g.edge_labels == ("e1", "e2", "e3", "e4")
        assert g.ends("e1") == ("b", "d")
        assert g.valence("a") == 2 and g.valence("b") == 3
        with pytest.raises(UnknownEdgeError):
            g.ends("nope")

    def test_loops_count_twice(self):
        g = corpus.dumbbell()
        assert g.valence("u") == 3
        assert g.loops() == ("l1", "l2")

    def test_equality_and_hash(self):
        assert corpus.triangle() == corpus.triangle()
        assert hash(corpus.triangle()) == hash(corpus.triangle())
        assert corpus.triangle() != corpus.theta(3)

    def test_vertex_ids_and_ends_are_ints_or_strings(self):
        # 1.0 and True equal the vertex 1, so an end of either kind would find it
        for vertices, edges in (
            ([1, 2], {"a": (1.0, 2)}),
            ([1, 2], {"a": (1, True)}),
            ([1.5], {}),
            ([1, True], {}),
            ([(0, 1)], {}),
            ([None, "u"], {}),
        ):
            with pytest.raises(TypeError, match="vertex ids must be ints or strings"):
                MultiGraph(vertices, edges)
        g = MultiGraph([1, "u"], {(0, 1): (1, "u")})  # an edge label may be any sortable id
        assert g.ends((0, 1)) == (1, "u")


class TestContract:
    def test_triangle_one_edge(self):
        g = corpus.triangle()
        gc = contract(g, {"a"})
        # v1, v2 merge into v1; b and c become a 2-cycle
        assert gc.n_vertices == 2 and gc.edge_labels == ("b", "c")
        assert not gc.loops()
        assert gc.ends("b") == gc.ends("c")

    def test_theta_one_edge_makes_loops(self):
        g = corpus.theta(3)
        gc = contract(g, {"a"})
        assert gc.n_vertices == 1
        assert incidence(gc) == {"b": ("u", "u"), "c": ("u", "u")}

    def test_empty_set_is_identity(self):
        for g in corpus.corpus_graphs().values():
            assert contract(g, set()) == g

    def test_contract_loop_deletes_it(self):
        g = corpus.dumbbell()
        gc = contract(g, {"l1"})
        assert gc.edge_labels == ("l2", "m")
        assert gc.n_vertices == 2

    def test_composition(self):
        g = corpus.square()
        for s1 in [{"a"}, {"a", "b"}]:
            for s2 in [{"c"}, {"d"}]:
                assert contract(contract(g, s1), s2) == contract(g, s1 | s2)

    def test_unknown_edge(self):
        with pytest.raises(UnknownEdgeError):
            contract(corpus.triangle(), {"zz"})


class TestBiconnectedComponents:
    def test_theta_is_one_block(self):
        comps = biconnected_components(corpus.theta(3))
        assert len(comps) == 1 and comps[0] == corpus.theta(3)

    def test_dumbbell_three_blocks(self):
        comps = biconnected_components(corpus.dumbbell())
        assert sorted(c.edge_labels for c in comps) == [("l1",), ("l2",), ("m",)]

    def test_doubled_triangle_contraction(self):
        g = contract(corpus.doubled_triangle(), {"e1"})
        comps = biconnected_components(g)
        assert sorted(c.edge_labels for c in comps) == [("e2",), ("e3", "e4")]

    def test_edge_sets_partition(self):
        for g in corpus.corpus_graphs().values():
            comps = biconnected_components(g)
            all_edges = [e for c in comps for e in c.edge_labels]
            assert sorted(all_edges) == sorted(g.edge_labels)

    def test_two_edges_of_block_share_a_cycle(self):
        # indirect check: inside a loop-free block, every edge lies in a cycle
        # with every other edge, so no edge of the block is a bridge.
        for g in corpus.corpus_graphs().values():
            for c in biconnected_components(g):
                if c.n_edges < 2:
                    continue
                for e in c.edge_labels:
                    assert delete_edges(c, {e}).is_connected()

    def test_is_biconnected_convention(self):
        assert is_biconnected(corpus.theta(3))
        assert is_biconnected(corpus.triangle())
        assert is_biconnected(corpus.single_edge())
        assert is_biconnected(corpus.two_cycle())
        assert not is_biconnected(corpus.dumbbell())
        assert not is_biconnected(corpus.path(2))
        # a lone loop does not count as biconnected (it has no bonds)
        loop = MultiGraph(["u"], {"l": ("u", "u")})
        assert not is_biconnected(loop)
        two_loops = contract(corpus.theta(3), {"a"})
        assert not is_biconnected(two_loops)


class TestBonds:
    def test_matches_edge_subset_oracle(self):
        for name, g in corpus.corpus_graphs().items():
            got = {b.edges for b in bonds(g)}
            assert got == bond_edge_sets_oracle(g), name

    def test_theta3_single_bond(self):
        bs = bonds(corpus.theta(3))
        assert len(bs) == 1 and bs[0].edges == frozenset({"a", "b", "c"})

    def test_triangle_vertex_stars(self):
        bs = bonds(corpus.triangle())
        assert sorted(b.sorted_edges() for b in bs) == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_doubled_triangle(self):
        bs = bonds(corpus.doubled_triangle())
        assert sorted(b.sorted_edges() for b in bs) == [
            ("e1", "e2", "e3"),
            ("e1", "e2", "e4"),
            ("e3", "e4"),
        ]

    def test_canonical_side_contains_min_vertex(self):
        for g in corpus.corpus_graphs().values():
            for b in bonds(g):
                assert g.vertices[0] in b.side

    def test_loops_never_in_bonds(self):
        for b in bonds(corpus.dumbbell()):
            assert "l1" not in b.edges and "l2" not in b.edges

    def test_each_bond_inside_one_block(self):
        for g in corpus.corpus_graphs().values():
            blocks = [frozenset(c.edge_labels) for c in biconnected_components(g)]
            for b in bonds(g):
                assert sum(1 for blk in blocks if b.edges <= blk) == 1

    def test_contracting_complement_gives_two_vertices(self):
        for g in corpus.corpus_graphs().values():
            for b in bonds(g):
                gc = contract(g, set(g.edge_labels) - b.edges)
                assert gc.n_vertices == 2
                assert set(gc.edge_labels) == b.edges
                assert not gc.loops()

    def test_disconnected_rejected(self):
        g = MultiGraph(["u", "v", "w", "x"], {"e": ("u", "v"), "f": ("w", "x")})
        with pytest.raises(DisconnectedGraphError):
            bonds(g)


class TestBondSum:
    def test_doubled_triangle_sum(self):
        g = corpus.doubled_triangle()
        b1 = Bond.from_side(g, {"b"})
        b2 = Bond.from_side(g, {"d"})
        assert b1.edges == frozenset({"e1", "e2", "e3"})
        assert b2.edges == frozenset({"e1", "e2", "e4"})
        s = bond_sum(b1, b2)
        assert s.edges == frozenset({"e3", "e4"})
        assert s.side == frozenset({"b", "d"})

    def test_triangle_sum(self):
        g = corpus.triangle()
        s = bond_sum(Bond.from_side(g, {"v1"}), Bond.from_side(g, {"v2"}))
        assert s.side == frozenset({"v1", "v2"})
        assert s.edges == g.cut_edges({"v1", "v2"})

    def test_overlapping_sides_rejected(self):
        g = corpus.triangle()
        b1 = Bond.from_side(g, {"v1"})
        b2 = Bond.from_side(g, {"v1", "v2"})
        with pytest.raises(ValueError, match="disjoint"):
            bond_sum(b1, b2)

    def test_sum_that_is_not_a_bond_rejected(self):
        g = corpus.square()
        b1 = Bond.from_side(g, {"v1"})
        b2 = Bond.from_side(g, {"v3"})
        with pytest.raises(NotABondError):
            bond_sum(b1, b2)  # {v1, v3} is not connected in the square


class TestGenusStability:
    def test_theta3_genus_two(self):
        wg = zero_weights(corpus.theta(3))
        assert genus(wg) == 2 and is_stable(wg)

    def test_weight_two_point(self):
        wg = WeightedGraph(MultiGraph(["u"], {}), {"u": 2})
        assert genus(wg) == 2 and is_stable(wg)

    def test_two_cycle_unstable(self):
        wg = zero_weights(corpus.two_cycle())
        assert genus(wg) == 1 and not is_stable(wg)

    def test_contraction_preserves_genus(self):
        wg = zero_weights(corpus.doubled_triangle())
        for s in [{"e1"}, {"e3"}, {"e1", "e2"}, {"e1", "e3"}, {"e1", "e2", "e3"}, set(wg.graph.edge_labels)]:
            assert genus(contract_weighted(wg, s)) == genus(wg)
        wd = zero_weights(corpus.dumbbell())
        for s in [{"l1"}, {"m"}, {"l1", "l2"}, {"l1", "l2", "m"}]:
            assert genus(contract_weighted(wd, s)) == genus(wd)


class TestAutomorphisms:
    def test_theta3_full_symmetric_group(self):
        auts = automorphisms(zero_weights(corpus.theta(3)))
        assert len(auts) == 6
        images = {tuple(a.as_dict()[e] for e in ("a", "b", "c")) for a in auts}
        assert images == set(itertools.permutations(("a", "b", "c")))

    def test_single_edge_trivial(self):
        auts = automorphisms(zero_weights(corpus.single_edge()))
        assert len(auts) == 1 and auts[0].is_identity()

    def test_dumbbell_loop_swap(self):
        auts = automorphisms(zero_weights(corpus.dumbbell()))
        assert len(auts) == 2
        nontrivial = [a for a in auts if not a.is_identity()]
        assert nontrivial[0].as_dict() == {"l1": "l2", "l2": "l1", "m": "m"}

    def test_weights_break_symmetry(self):
        g = corpus.theta(3)
        wg = WeightedGraph(g, {"u": 1, "v": 0})
        # vertex swap is gone but the three parallel edges still permute
        assert len(automorphisms(wg)) == 6
        g2 = corpus.single_edge()
        assert len(automorphisms(WeightedGraph(g2, {"u": 1, "v": 2}))) == 1

    def test_group_closure_and_bond_preservation(self):
        for make in (corpus.theta, corpus.doubled_triangle, corpus.dumbbell):
            g = make() if make is not corpus.theta else make(3)
            wg = zero_weights(g)
            auts = automorphisms(wg)
            maps = {a.edge_map for a in auts}
            for a in auts:
                assert any(a.compose(b).is_identity() for b in auts)
                for b in auts:
                    assert a.compose(b).edge_map in maps
            if g.is_connected() and g.n_vertices > 1:
                bond_sets = {b.edges for b in bonds(g)}
                for a in auts:
                    for bs in bond_sets:
                        assert frozenset(map(a.as_dict().get, bs)) in bond_sets


class TestConnectedPartition:
    def test_all_vertices_singletons(self):
        g = corpus.triangle()
        blocks = connected_partition(g, ["v1", "v2", "v3"])
        assert blocks == [frozenset({"v1"}), frozenset({"v2"}), frozenset({"v3"})]

    def test_path_tie_break(self):
        g = corpus.path(2)  # p0 - p1 - p2
        blocks = connected_partition(g, ["p0", "p2"])
        assert blocks == [frozenset({"p0", "p1"}), frozenset({"p2"})]

    def test_single_seed_gets_everything(self):
        g = corpus.square()
        assert connected_partition(g, ["v2"]) == [frozenset(g.vertices)]

    def test_partition_blocks_connected(self):
        g = corpus.square()
        for seeds in itertools.combinations(g.vertices, 2):
            blocks = connected_partition(g, list(seeds))
            covered = set()
            for block, seed in zip(blocks, seeds):
                assert seed in block
                assert induced(g, block).is_connected()
                assert not (covered & block)
                covered |= block
            assert covered == set(g.vertices)


from hypothesis import given, settings
from conftest import connected_multigraphs


@settings(max_examples=40, deadline=None)
@given(connected_multigraphs())
def test_bonds_match_edge_subset_oracle_random(g):
    got = {b.edges for b in bonds(g)}
    assert got == bond_edge_sets_oracle(g)


@settings(max_examples=40, deadline=None)
@given(connected_multigraphs())
def test_genus_invariant_under_any_contraction_random(g):
    import itertools as it

    wg = WeightedGraph(g, {v: 0 for v in g.vertices})
    base = genus(wg)
    labels = g.edge_labels
    for k in range(len(labels) + 1):
        for s in it.combinations(labels, k):
            assert genus(contract_weighted(wg, set(s))) == base


@settings(max_examples=30, deadline=None)
@given(connected_multigraphs())
def test_block_edge_partition_random(g):
    comps = biconnected_components(g)
    assert sorted(e for c in comps for e in c.edge_labels) == sorted(g.edge_labels)
    for c in comps:
        assert c.is_connected()
        if c.n_edges >= 2:
            for e in c.edge_labels:
                assert delete_edges(c, {e}).is_connected()


class TestBondCanonical:
    def test_complement_and_canonical(self):
        g = corpus.doubled_triangle()
        b = Bond.from_side(g, {"b"})
        assert b.complement().side == frozenset({"a", "d"})
        assert b.complement().edges == b.edges
        # the canonical representative's side holds the least vertex id
        assert b.canonical().side == frozenset({"a", "d"})
        assert b.canonical() == b.complement().canonical()
