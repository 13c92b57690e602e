import itertools

import pytest
from hypothesis import given, strategies as st

from enrichfan.errors import UnknownLabelError
from enrichfan.preorders import Preorder, all_preorders


def p1():
    # e1 below e2, and e1 below the chain e3 < e4
    return Preorder.from_relations(
        ["e1", "e2", "e3", "e4"], [("e1", "e2"), ("e1", "e3"), ("e3", "e4")]
    )


def p3():
    # e1 ~ e3 below e2 and e4
    return Preorder.from_relations(
        ["e1", "e2", "e3", "e4"],
        [("e1", "e3"), ("e3", "e1"), ("e1", "e2"), ("e1", "e4")],
    )


class TestConstruction:
    def test_discrete(self):
        p = Preorder.from_relations(["a", "b"], [])
        assert p.is_discrete() and p.rank == 2

    def test_transitive_closure(self):
        p = Preorder.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c") and not p.leq("c", "a")

    def test_symmetric_pairs_give_equivalence(self):
        p = Preorder.from_relations(["a", "b"], [("a", "b"), ("b", "a")])
        assert p.equiv("a", "b") and p.rank == 1

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownLabelError):
            Preorder.from_relations(["a"], [("a", "zz")])

    def test_constructor_always_checks_its_rows(self):
        # rows over the sorted labels (a, b): a ≼ b
        assert Preorder(["b", "a"], [0b11, 0b10]) == Preorder.from_relations("ab", [("a", "b")])
        for rows in ([0b01, 0b01], [0b011, 0b110, 0b100]):  # not reflexive; not transitive
            with pytest.raises(ValueError, match="not reflexively and transitively closed"):
                Preorder("abc"[: len(rows)], rows)
        with pytest.raises(TypeError):
            Preorder("ab", [0b01, 0b01], _trusted=True)


class TestQuotient:
    def test_p1_hasse(self):
        q = p1().quotient()
        assert q.rank == 4
        by_rep = {c[0]: i for i, c in enumerate(q.classes)}
        hasse = {(q.classes[i][0], q.classes[j][0]) for i, j in q.hasse}
        assert hasse == {("e1", "e2"), ("e1", "e3"), ("e3", "e4")}
        assert q.roots() == (by_rep["e1"],)

    def test_p3_three_classes(self):
        q = p3().quotient()
        assert q.rank == 3
        assert ("e1", "e3") in q.classes

    def test_discrete_no_hasse(self):
        q = Preorder.discrete(["x", "y", "z"]).quotient()
        assert q.rank == 3 and q.hasse == ()

    def test_reachability_reconstructs_relation(self):
        for p in all_preorders(["a", "b", "c"]):
            assert p.quotient().reachability_reconstructs(p)


class TestUpperLowerSets:
    def test_p1_examples(self):
        p = p1()
        assert p.is_lower_set({"e1"})
        assert p.is_upper_set({"e4"}) and not p.is_lower_set({"e4"})

    def test_trivial_sets(self):
        p = p1()
        assert p.is_lower_set(set()) and p.is_upper_set(set())
        assert p.is_lower_set(set(p.ground)) and p.is_upper_set(set(p.ground))

    def test_complement_duality(self):
        p = p1()
        for k in range(5):
            for sub in itertools.combinations(p.ground, k):
                s = set(sub)
                comp = set(p.ground) - s
                assert p.is_lower_set(s) == p.is_upper_set(comp)


class TestIrreducibleUpperSets:
    def test_chain(self):
        p = Preorder.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.irreducible_upper_sets(brute_force=True) == [
            frozenset({"a", "b", "c"}),
            frozenset({"b", "c"}),
            frozenset({"c"}),
        ]

    def test_one_below_two_incomparable(self):
        p = Preorder.from_relations(["a", "b", "c"], [("a", "b"), ("a", "c")])
        assert set(p.irreducible_upper_sets(brute_force=True)) == {
            frozenset({"b"}),
            frozenset({"c"}),
            frozenset({"a", "b", "c"}),
        }

    def test_discrete(self):
        p = Preorder.discrete(["a", "b"])
        assert set(p.irreducible_upper_sets()) == {frozenset({"a"}), frozenset({"b"})}

    def test_principal_closures_match_brute_force(self):
        for p in all_preorders(["a", "b", "c", "d"]):
            p.irreducible_upper_sets(brute_force=True)  # asserts internally

    def test_every_upper_set_is_union_of_irreducibles(self):
        for p in all_preorders(["a", "b", "c"]):
            irr = p.irreducible_upper_sets()
            for k in range(1, 4):
                for sub in itertools.combinations(p.ground, k):
                    if p.is_upper_set(sub):
                        union = frozenset().union(*[u for u in irr if u <= set(sub)])
                        assert union == frozenset(sub)


class TestRestrict:
    def test_full_restriction_is_identity(self):
        p = p1()
        assert p.restrict(p.ground) == p

    def test_p1_on_e3_e4(self):
        r = p1().restrict({"e3", "e4"})
        assert r.lt("e3", "e4") and r.rank == 2

    def test_empty(self):
        assert p1().restrict(set()).ground == ()

    def test_rank_additivity_over_lower_sets(self):
        for p in all_preorders(["a", "b", "c", "d"]):
            for s in p.lower_sets():
                inside = sum(1 for c in p.classes() if c <= s)
                rest = p.restrict(set(p.ground) - s)
                assert rest.rank + inside == p.rank


class TestEnumeration:
    def test_counts(self):
        # preorders on n labels: 1, 1, 4, 29, 355
        assert sum(1 for _ in all_preorders([])) == 1
        assert sum(1 for _ in all_preorders(["a"])) == 1
        assert sum(1 for _ in all_preorders(["a", "b"])) == 4
        assert sum(1 for _ in all_preorders(["a", "b", "c"])) == 29
        assert sum(1 for _ in all_preorders(["a", "b", "c", "d"])) == 355


@st.composite
def preorders(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    labels = [f"x{i}" for i in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(labels or ["x0"]), st.sampled_from(labels or ["x0"])),
            max_size=12,
        )
    ) if n else []
    return Preorder.from_relations(labels, pairs)


@given(preorders())
def test_closure_properties(p):
    g = p.ground
    for a in g:
        assert p.leq(a, a)
    for a in g:
        for b in g:
            for c in g:
                if p.leq(a, b) and p.leq(b, c):
                    assert p.leq(a, c)


@given(preorders(), st.data())
def test_lower_upper_duality_random(p, data):
    s = set(data.draw(st.lists(st.sampled_from(p.ground or ["x0"]), max_size=5))) & set(p.ground)
    assert p.is_lower_set(s) == p.is_upper_set(set(p.ground) - s)


def lower_sets_by_definition(p):
    return [
        frozenset(sub)
        for k in range(len(p.ground) + 1)
        for sub in itertools.combinations(p.ground, k)
        if p.is_lower_set(sub)
    ]


def test_lower_sets_match_definition_in_order():
    for p in all_preorders(["a", "b", "c", "d"]):
        assert p.lower_sets() == lower_sets_by_definition(p)


@given(preorders())
def test_lower_sets_match_definition_random(p):
    assert p.lower_sets() == lower_sets_by_definition(p)


@given(preorders())
def test_relabel_round_trip(p):
    mapping = {a: ("y", a) for a in p.ground}
    back = {("y", a): a for a in p.ground}
    assert p.relabel(mapping).relabel(back) == p


@given(preorders(), st.data())
def test_relabel_matches_relabelled_pairs(p, data):
    # a permutation of the ground set, and a bijection onto mixed int/str labels
    shuffled = data.draw(st.permutations(p.ground))
    targets = data.draw(st.permutations([3, 11, "a", "x10", "x2"][: len(p.ground)]))
    for images in (shuffled, targets):
        mapping = dict(zip(p.ground, images))
        expected = Preorder.from_relations(images, [(mapping[a], mapping[b]) for a, b in p.pairs()])
        assert p.relabel(mapping) == expected


def test_relabel_rejects_a_map_that_is_not_injective():
    with pytest.raises(ValueError, match="injective"):
        p1().relabel({"e1": "a", "e2": "a", "e3": "b", "e4": "c"})


class TestClosuresAndMinima:
    def test_up_down_closures(self):
        p = p1()
        assert p.up_closure("e3") == frozenset({"e3", "e4"})
        assert p.down_closure("e4") == frozenset({"e1", "e3", "e4"})

    def test_minimal_labels(self):
        p = p1()
        assert p.minimal_labels() == frozenset({"e1"})
        assert Preorder.discrete("xyz").minimal_labels() == frozenset("xyz")


class TestForestDetection:
    def test_two_parents_is_not_a_forest(self):
        # a and b both directly below c: c covers two classes
        p = Preorder.from_relations("abc", [("a", "c"), ("b", "c")])
        q = p.quotient()
        assert not q.is_forest_of_rooted_trees()
        with pytest.raises(ValueError):
            q.parents()
