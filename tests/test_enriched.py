import importlib
import itertools
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from enrichfan import corpus
from enrichfan.enriched import (
    EnrichedGraph,
    Specialization,
    bond_minima,
    canonical_structure,
    enriched_structures,
    from_bond_collection,
    generic_structures,
    is_enriched,
    locate,
    specializations,
)
from enrichfan.errors import GroundSetMismatchError
from enrichfan.graphs import Bond, MultiGraph, bonds, biconnected_components, contract
from enrichfan.preorders import Preorder
from reference_enriched import global_minima
from reference_preorders import all_preorders, contains, lower_sets, parents, restrict


def brute_force_structures(g):
    """Oracle: filter every preorder on the edge set by the recursive test."""
    return [p for p in all_preorders(g.edge_labels) if is_enriched(g, p)]


def fig_structure(pairs):
    return EnrichedGraph(
        corpus.doubled_triangle(),
        Preorder.from_relations(("e1", "e2", "e3", "e4"), pairs),
    )


def p1_graph():
    return fig_structure([("e1", "e2"), ("e1", "e3"), ("e3", "e4")])


def p2_graph():
    return fig_structure([("e3", "e1"), ("e1", "e2"), ("e1", "e4")])


def p3_graph():
    return fig_structure([("e1", "e3"), ("e3", "e1"), ("e1", "e2"), ("e1", "e4")])


def simple_specialization(eg, c1, c2) -> EnrichedGraph:
    """Merge two consecutive classes ``c1 < c2`` into one; rank drops by one.

    The merged relation is the transitive closure of the old one together
    with the equivalence of the two classes.
    """
    q = eg.preorder.quotient()
    index = {frozenset(c): i for i, c in enumerate(q.classes)}
    i, j = index.get(frozenset(c1)), index.get(frozenset(c2))
    if i is None or j is None:
        raise ValueError("arguments must be whole equivalence classes")
    if (i, j) not in q.hasse:
        raise ValueError("classes must be consecutive in the Hasse diagram")
    p = eg.preorder
    merged = EnrichedGraph(eg.graph, Preorder.from_relations(p.ground, p.pairs() + [(q.classes[j][0], q.classes[i][0])]))
    assert merged.rank == eg.rank - 1
    return merged


def class_inclusion(sp: Specialization) -> dict:
    """Injective map from target classes to source classes.

    A target class goes to the source class of its edges that lie strictly
    above no other of its edges in the source; that class must be unique.
    """
    src = sp.source.preorder
    out = {}
    for cls in sp.target.preorder.classes():
        mins = {e for e in cls if not any(src.leq(f, e) and not src.leq(e, f) for f in cls)}
        min_classes = [c for c in src.classes() if c & mins]
        if len(min_classes) != 1:
            raise ValueError("no unique minimal source class; invariant broken")
        out[cls] = min_classes[0]
    if len(set(out.values())) != len(out):
        raise ValueError("class inclusion is not injective; invariant broken")
    return out


class TestIsEnriched:
    def test_doubled_triangle_examples(self):
        p1_graph(), p2_graph(), p3_graph()  # constructors validate

    def test_theta_discrete_rejected(self):
        g = corpus.theta(3)
        assert not is_enriched(g, Preorder.discrete(g.edge_labels))

    def test_single_edge_trivial(self):
        g = corpus.single_edge()
        assert is_enriched(g, Preorder.discrete(g.edge_labels))

    def test_cross_component_comparability_rejected(self):
        g = corpus.dumbbell()
        p = Preorder.from_relations(g.edge_labels, [("l1", "l2")])
        assert not is_enriched(g, p)

    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            is_enriched(corpus.theta(3), Preorder.discrete(["a", "b"]))


class TestEnumeration:
    def test_triangle_counts(self):
        g = corpus.triangle()
        structs = enriched_structures(g)
        assert len(structs) == 13
        assert len(generic_structures(g)) == 6

    def test_theta3_counts(self):
        g = corpus.theta(3)
        structs = enriched_structures(g)
        assert len(structs) == 7
        assert len(generic_structures(g)) == 3
        # a structure on theta is the choice of a nonempty subset lying below the rest
        bottoms = {global_minima(eg.preorder) for eg in structs}
        assert bottoms == {
            frozenset(s)
            for k in range(1, 4)
            for s in itertools.combinations("abc", k)
        }

    def test_circular_generic_are_total_orders(self):
        for g in (corpus.triangle(), corpus.square()):
            for eg in generic_structures(g):
                p = eg.preorder
                assert all(p.leq(a, b) or p.leq(b, a) for a in p.ground for b in p.ground)
        assert len(generic_structures(corpus.square())) == 24

    def test_doubled_triangle_contains_printed_structures(self):
        structs = {eg.preorder for eg in enriched_structures(corpus.doubled_triangle())}
        for eg in (p1_graph(), p2_graph(), p3_graph()):
            assert eg.preorder in structs

    def test_matches_brute_force_oracle(self):
        for name, g in corpus.corpus_graphs().items():
            if g.n_edges > 4:
                continue
            got = sorted(eg.preorder.pairs() for eg in enriched_structures(g))
            want = sorted(p.pairs() for p in brute_force_structures(g))
            assert got == want, name

    def test_dumbbell_single_structure(self):
        structs = enriched_structures(corpus.dumbbell())
        assert len(structs) == 1 and structs[0].preorder == Preorder.discrete(corpus.dumbbell().edge_labels)
        assert len(generic_structures(corpus.dumbbell())) == 1

    def test_theta9_counts(self):
        # past eight edges: the library takes no edge cap, 2^9 - 1 structures, 9 generic
        structs = enriched_structures(corpus.theta(9))
        assert len(structs) == 511 and sum(eg.is_generic() for eg in structs) == 9

    def test_prism_count(self):
        # the 9-edge triangular prism
        prism = MultiGraph(
            "abcdef",
            {
                "e1": ("a", "b"), "e2": ("b", "c"), "e3": ("a", "c"),
                "e4": ("d", "e"), "e5": ("e", "f"), "e6": ("d", "f"),
                "e7": ("a", "d"), "e8": ("b", "e"), "e9": ("c", "f"),
            },
        )
        assert len(enriched_structures(prism)) == 195463

    def test_lower_set_contraction_stays_enriched(self):
        for g in (corpus.triangle(), corpus.theta(3), corpus.doubled_triangle()):
            for eg in enriched_structures(g):
                for s in lower_sets(eg.preorder):
                    if s:
                        # validates on construction
                        EnrichedGraph(contract(g, s), restrict(eg.preorder, set(g.edge_labels) - s))

    def test_tree_property_and_rooted_hasse(self):
        for g in corpus.corpus_graphs().values():
            for eg in enriched_structures(g):
                p = eg.preorder
                for e1, e2, e3 in itertools.permutations(p.ground, 3):
                    if p.leq(e1, e3) and p.leq(e2, e3):
                        assert p.leq(e1, e2) or p.leq(e2, e1)
                parents(p.quotient())  # raises when a class covers two

    def test_component_incomparability(self):
        for g in corpus.corpus_graphs().values():
            comps = biconnected_components(g)
            comp_of = {e: i for i, c in enumerate(comps) for e in c.edge_labels}
            for eg in enriched_structures(g):
                for a, b in eg.preorder.pairs():
                    assert comp_of[a] == comp_of[b]


class TestBondCollections:
    def test_theta_single_minimum(self):
        g = corpus.theta(3)
        eg = from_bond_collection(g, {frozenset("abc"): {"a"}})
        assert eg.preorder == Preorder.from_relations("abc", [("a", "b"), ("a", "c")])

    def test_triangle_full_bonds_give_canonical(self):
        g = corpus.triangle()
        eg = from_bond_collection(g, {b.edges: b.edges for b in bonds(g)})
        assert eg.preorder == canonical_structure(g).preorder

    def test_doubled_triangle_recovers_p2(self):
        g = corpus.doubled_triangle()
        eg = from_bond_collection(
            g,
            {
                frozenset({"e3", "e4"}): {"e3"},
                frozenset({"e1", "e2", "e3"}): {"e3"},
                frozenset({"e1", "e2", "e4"}): {"e1"},
            },
        )
        assert eg.preorder == p2_graph().preorder

    def test_missing_bond_rejected(self):
        with pytest.raises(KeyError):
            from_bond_collection(corpus.triangle(), {frozenset({"a", "b"}): {"a"}})

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            from_bond_collection(corpus.theta(3), {frozenset("abc"): set()})

    def test_bond_minima_examples(self):
        eg = p1_graph()
        g = eg.graph
        assert bond_minima(eg, Bond.from_side(g, {"a"})) == frozenset({"e3"})
        assert bond_minima(eg, Bond.from_side(g, {"b"})) == frozenset({"e1"})
        can = canonical_structure(corpus.theta(3))
        (b,) = bonds(corpus.theta(3))
        assert bond_minima(can, b) == frozenset("abc")

    def test_round_trip_on_biconnected_corpus(self):
        for name in corpus.BICONNECTED_CORPUS:
            g = corpus.CORPUS[name]()
            bs = bonds(g)
            for eg in enriched_structures(g):
                rebuilt = from_bond_collection(g, {b.edges: bond_minima(eg, b) for b in bs})
                assert rebuilt.preorder == eg.preorder, name

    def test_all_collections_enrich_theta3_and_triangle(self):
        for g in (corpus.theta(3), corpus.triangle()):
            bs = bonds(g)
            pools = [
                [frozenset(c) for k in range(1, len(b.edges) + 1) for c in itertools.combinations(b.edges, k)]
                for b in bs
            ]
            for combo in itertools.product(*pools):
                from_bond_collection(g, dict(zip((b.edges for b in bs), combo)))


class TestSpecializations:
    def test_single_edge(self):
        g = corpus.single_edge()
        eg = EnrichedGraph(g, Preorder.discrete(g.edge_labels))
        sps = specializations(eg)
        assert len(sps) == 2
        assert {sp.contracted for sp in sps} == {frozenset(), frozenset({"e"})}

    def test_face_count_of_theta_generic(self):
        g = corpus.theta(3)
        eg = from_bond_collection(g, {frozenset("abc"): {"a"}})
        assert len(specializations(eg)) == 8  # 2^rank faces of a smooth 3-dim cone

    def test_count_is_two_to_rank(self):
        for name, g in corpus.corpus_graphs().items():
            for eg in enriched_structures(g):
                assert len(specializations(eg)) == 2 ** eg.rank, name

    def test_contracted_set_from_any_iterable_is_hashable(self):
        for eg in enriched_structures(corpus.doubled_triangle()):
            for sp in specializations(eg):
                for given in (set(sp.contracted), list(sp.contracted), iter(sp.contracted)):
                    built = Specialization(eg, sp.target, given)
                    assert type(built.contracted) is frozenset
                    assert built == sp and hash(built) == hash(sp)

    def test_includes_identity(self):
        eg = p1_graph()
        assert any(sp.is_identity() for sp in specializations(eg))

    def test_canonical_theta_specializations(self):
        eg = canonical_structure(corpus.theta(3))
        sps = specializations(eg)
        assert len(sps) == 2
        assert {sp.contracted for sp in sps} == {frozenset(), frozenset("abc")}

    def test_simple_factorization(self):
        # every same-graph specialization factors through simple merges
        for g in (corpus.theta(3), corpus.triangle(), corpus.doubled_triangle()):
            for eg in enriched_structures(g):
                for sp in specializations(eg):
                    if sp.contracted or sp.is_identity():
                        continue
                    drop = eg.rank - sp.target.rank
                    assert drop >= 1
                    if drop > 1:
                        found = False
                        for c1, c2 in sp.source.preorder.quotient().hasse:
                            q = sp.source.preorder.quotient()
                            merged = simple_specialization(eg, q.classes[c1], q.classes[c2])
                            if contains(sp.target.preorder, merged.preorder):
                                found = True
                                break
                        assert found


class TestSimpleSpecialization:
    def test_merge_e3_e4(self):
        eg = p1_graph()
        merged = simple_specialization(eg, {"e3"}, {"e4"})
        assert merged.rank == 3
        assert merged.preorder.leq("e3", "e4") and merged.preorder.leq("e4", "e3")

    def test_merge_p2_gives_p3(self):
        eg = p2_graph()
        merged = simple_specialization(eg, {"e3"}, {"e1"})
        assert merged.preorder == p3_graph().preorder

    def test_two_cycle_chain_to_canonical(self):
        g = corpus.two_cycle()
        eg = EnrichedGraph(g, Preorder.from_relations(g.edge_labels, [("a", "b")]))
        merged = simple_specialization(eg, {"a"}, {"b"})
        assert merged.preorder == canonical_structure(g).preorder

    def test_closure_pulls_in_forced_relations(self):
        # merging the bottom with one branch forces the merged class below the rest
        g = corpus.theta(3)
        eg = from_bond_collection(g, {frozenset("abc"): {"a"}})
        merged = simple_specialization(eg, {"a"}, {"b"})
        assert merged.preorder.leq("b", "c")

    def test_non_consecutive_rejected(self):
        g = corpus.triangle()
        chain = EnrichedGraph(g, Preorder.from_relations("abc", [("a", "b"), ("b", "c")]))
        with pytest.raises(ValueError):
            simple_specialization(chain, {"a"}, {"c"})


class TestClassInclusion:
    def test_identity(self):
        eg = p1_graph()
        ident = next(sp for sp in specializations(eg) if sp.is_identity())
        inc = class_inclusion(ident)
        assert all(k == v for k, v in inc.items())

    def test_simple_merge_maps_to_lower_class(self):
        eg = p1_graph()
        merged = simple_specialization(eg, {"e3"}, {"e4"})
        sp = Specialization(eg, merged, frozenset())
        inc = class_inclusion(sp)
        assert inc[frozenset({"e3", "e4"})] == frozenset({"e3"})

    def test_contraction_case(self):
        g = corpus.theta(3)
        eg = from_bond_collection(g, {frozenset("abc"): {"a"}})
        sp = next(s for s in specializations(eg) if s.contracted == frozenset({"a"}))
        inc = class_inclusion(sp)
        assert inc == {frozenset({"b"}): frozenset({"b"}), frozenset({"c"}): frozenset({"c"})}

    def test_injective_everywhere(self):
        for g in (corpus.theta(3), corpus.triangle()):
            for eg in enriched_structures(g):
                for sp in specializations(eg):
                    class_inclusion(sp)  # raises if not injective


class TestGenericity:
    def test_every_structure_specializes_from_generic(self):
        for name, g in corpus.corpus_graphs().items():
            all_targets = set()
            for gen in generic_structures(g):
                for sp in specializations(gen):
                    if sp.target.graph == g:
                        all_targets.add(sp.target.preorder)
            for eg in enriched_structures(g):
                assert eg.preorder in all_targets, name


class TestLocate:
    def test_triangle(self):
        g = corpus.triangle()
        eg = locate(g, {"a": 2, "b": 1, "c": 1})
        assert eg.preorder == Preorder.from_relations("abc", [("b", "c"), ("c", "b"), ("b", "a")])

    def test_theta(self):
        # contracting the argmin {a} leaves two loops, so b and c stay
        # incomparable: the cell is the generic structure with bottom {a}
        eg = locate(corpus.theta(3), {"a": 1, "b": 2, "c": 4})
        assert eg.preorder == Preorder.from_relations("abc", [("a", "b"), ("a", "c")])
        assert eg.is_generic()

    def test_square_chain(self):
        eg = locate(corpus.square(), {"a": 1, "b": 2, "c": 4, "d": 8})
        assert eg.preorder == Preorder.from_relations("abcd", [("a", "b"), ("b", "c"), ("c", "d")])

    def test_constant_gives_canonical(self):
        for g in (corpus.theta(3), corpus.triangle(), corpus.dumbbell()):
            eg = locate(g, {e: Fraction(7, 3) for e in g.edge_labels})
            assert eg.preorder == canonical_structure(g).preorder

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            locate(corpus.triangle(), {"a": 1, "b": 0, "c": 1})


from conftest import connected_multigraphs


@settings(max_examples=40, deadline=None)
@given(connected_multigraphs(), st.data())
def test_locate_agrees_with_membership_scan(g, data):
    from enrichfan.cones import structure_cone

    if not g.edge_labels:
        return
    x = {
        e: Fraction(data.draw(st.integers(min_value=1, max_value=12)),
                    data.draw(st.integers(min_value=1, max_value=6)))
        for e in g.edge_labels
    }
    located = locate(g, x)
    vec = tuple(x[e] for e in g.edge_labels)
    hits = [
        eg.preorder
        for eg in enriched_structures(g)
        if structure_cone(eg).contains(vec)
    ]
    assert hits == [located.preorder]


@settings(max_examples=30, deadline=None)
@given(connected_multigraphs())
def test_enumeration_properties_random_graphs(g):
    structs = enriched_structures(g)
    # distinct, all valid, generic count = partial orders
    assert len({eg.preorder for eg in structs}) == len(structs)
    for eg in structs:
        assert is_enriched(g, eg.preorder)
        assert len(specializations(eg)) == 2 ** eg.rank


def test_enumeration_contracts_each_multi_edge_subproblem_once(monkeypatch):
    """The memo is keyed on the edge mask, and a subproblem takes its
    contraction from its parent: only the rest of a bottom with two or more
    edges runs a union-find, over the bottom's edges, once per mask.  On the
    6-cycle and on K4 every proper edge set of two or more edges is first
    reached as such a rest: 2^6 - 1 - 6 - 1 = 56 contractions, and the
    whole graph runs none."""
    import enrichfan.enriched

    real = enrichfan.enriched._roots
    calls = []

    def counted(pairs):
        calls.append(1)
        return real(pairs)

    monkeypatch.setattr(enrichfan.enriched, "_roots", counted)
    c6 = MultiGraph(range(6), {f"e{i}": (i, (i + 1) % 6) for i in range(6)})
    k4 = MultiGraph([1, 2, 3, 4], {"a": (1, 2), "b": (1, 3), "c": (1, 4), "d": (2, 3), "e": (2, 4), "f": (3, 4)})
    for g in (c6, k4):
        calls.clear()
        enriched_structures(g)
        assert len(calls) == 56


def test_theta_graph_splits_into_blocks_once(monkeypatch):
    """Contracting any bottom of a theta graph leaves only loops, whose one
    structure is the discrete one: the 9-edge theta splits the whole graph
    into blocks and nothing else, where splitting every subproblem of two
    or more edges took 2^9 - 1 - 9 = 502 splits."""
    import enrichfan.enriched

    real = enrichfan.enriched.block_masks
    calls = []

    def counted(ends, mask):
        calls.append(mask)
        return real(ends, mask)

    monkeypatch.setattr(enrichfan.enriched, "block_masks", counted)
    structs = enriched_structures(corpus.theta(9))
    assert len(structs) == 511
    assert calls == [(1 << 9) - 1]


def test_no_module_keeps_a_cache():
    """No library function or method memoizes across calls."""
    import enrichfan

    for info in pkgutil.iter_modules(enrichfan.__path__):
        module = importlib.import_module(f"enrichfan.{info.name}")
        values = list(vars(module).values())
        values += [attr for cls in values if isinstance(cls, type) for attr in vars(cls).values()]
        cached = [value for value in values if hasattr(value, "cache_clear")]
        assert not cached, (info.name, cached)
