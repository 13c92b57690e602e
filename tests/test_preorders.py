import itertools

import pytest
from hypothesis import given, strategies as st

from enrichfan.errors import UnknownLabelError
from enrichfan.preorders import Preorder
from reference_preorders import all_preorders, is_lower_set, lower_sets, parents, relabel, restrict, roots


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
        assert p == Preorder.discrete(["a", "b"]) and p.rank == 2

    def test_transitive_closure(self):
        p = Preorder.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c") and not p.leq("c", "a")

    def test_symmetric_pairs_give_equivalence(self):
        p = Preorder.from_relations(["a", "b"], [("a", "b"), ("b", "a")])
        assert p.leq("a", "b") and p.leq("b", "a") and p.rank == 1

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

    def test_rows_must_lie_in_the_ground_set(self):
        # a bit past the last label, a negative row (infinitely many bits),
        # or a row that is not an int at all
        for rows in ([0b11], [-1], [0b101, 0b010], [1.5], [True]):
            with pytest.raises(ValueError, match="bits outside the ground set"):
                Preorder("ab"[: len(rows)], rows)


def _reachability_reconstructs(q, p) -> bool:
    """Hasse covers plus class membership regenerate the original order."""
    n = len(q.classes)
    reach = [set() for _ in range(n)]
    for i, j in q.hasse:
        reach[i].add(j)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            new = set()
            for j in reach[i]:
                new |= reach[j]
            if not new <= reach[i]:
                reach[i] |= new
                changed = True
    derived = {(i, j) for i in range(n) for j in reach[i]}
    if derived != set(q.less):
        return False
    index = {a: i for i, c in enumerate(q.classes) for a in c}
    for a in p.ground:
        for b in p.ground:
            ia, ib = index[a], index[b]
            if p.leq(a, b) != (ia == ib or (ia, ib) in q.less):
                return False
    return True


class TestQuotient:
    def test_p1_hasse(self):
        q = p1().quotient()
        assert q.rank == 4
        by_rep = {c[0]: i for i, c in enumerate(q.classes)}
        hasse = {(q.classes[i][0], q.classes[j][0]) for i, j in q.hasse}
        assert hasse == {("e1", "e2"), ("e1", "e3"), ("e3", "e4")}
        assert roots(q) == (by_rep["e1"],)

    def test_p3_three_classes(self):
        q = p3().quotient()
        assert q.rank == 3
        assert ("e1", "e3") in q.classes

    def test_discrete_no_hasse(self):
        q = Preorder.discrete(["x", "y", "z"]).quotient()
        assert q.rank == 3 and q.hasse == ()

    def test_reachability_reconstructs_relation(self):
        for p in all_preorders(["a", "b", "c"]):
            assert _reachability_reconstructs(p.quotient(), p)


class TestUpperLowerSets:
    def test_p1_examples(self):
        p = p1()
        assert is_lower_set(p, {"e1"})
        assert p.is_upper_set({"e4"}) and not is_lower_set(p, {"e4"})

    def test_trivial_sets(self):
        p = p1()
        assert is_lower_set(p, set()) and p.is_upper_set(set())
        assert is_lower_set(p, set(p.ground)) and p.is_upper_set(set(p.ground))

    def test_complement_duality(self):
        p = p1()
        for k in range(5):
            for sub in itertools.combinations(p.ground, k):
                s = set(sub)
                comp = set(p.ground) - s
                assert is_lower_set(p, s) == p.is_upper_set(comp)


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
            assert p.irreducible_upper_sets(brute_force=True) == p.irreducible_upper_sets()

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
        assert restrict(p, p.ground) == p

    def test_p1_on_e3_e4(self):
        r = restrict(p1(), {"e3", "e4"})
        assert r.leq("e3", "e4") and not r.leq("e4", "e3") and r.rank == 2

    def test_empty(self):
        assert restrict(p1(), set()).ground == ()

    def test_rank_additivity_over_lower_sets(self):
        for p in all_preorders(["a", "b", "c", "d"]):
            for s in lower_sets(p):
                inside = sum(1 for c in p.classes() if c <= s)
                rest = restrict(p, set(p.ground) - s)
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
    assert is_lower_set(p, s) == p.is_upper_set(set(p.ground) - s)


def lower_sets_by_definition(p):
    return [
        frozenset(sub)
        for k in range(len(p.ground) + 1)
        for sub in itertools.combinations(p.ground, k)
        if is_lower_set(p, sub)
    ]


def test_lower_sets_match_definition_in_order():
    for p in all_preorders(["a", "b", "c", "d"]):
        assert lower_sets(p) == lower_sets_by_definition(p)


@given(preorders())
def test_lower_sets_match_definition_random(p):
    assert lower_sets(p) == lower_sets_by_definition(p)


@given(preorders())
def test_relabel_round_trip(p):
    mapping = {a: ("y", a) for a in p.ground}
    back = {("y", a): a for a in p.ground}
    assert relabel(relabel(p, mapping), back) == p


@given(preorders(), st.data())
def test_relabel_matches_relabelled_pairs(p, data):
    # a permutation of the ground set, and a bijection onto mixed int/str labels
    shuffled = data.draw(st.permutations(p.ground))
    targets = data.draw(st.permutations([3, 11, "a", "x10", "x2"][: len(p.ground)]))
    for images in (shuffled, targets):
        mapping = dict(zip(p.ground, images))
        expected = Preorder.from_relations(images, [(mapping[a], mapping[b]) for a, b in p.pairs()])
        assert relabel(p, mapping) == expected


def test_relabel_rejects_a_map_that_is_not_injective():
    with pytest.raises(ValueError, match="injective"):
        relabel(p1(), {"e1": "a", "e2": "a", "e3": "b", "e4": "c"})


class TestClosuresAndMinima:
    def test_up_down_closures(self):
        # the principal upper set of e3 is a ray; the least lower set holding e4
        p = p1()
        assert frozenset({"e3", "e4"}) in p.irreducible_upper_sets()
        assert min((s for s in lower_sets(p) if "e4" in s), key=len) == frozenset({"e1", "e3", "e4"})

    def test_minimal_labels(self):
        # the labels of the root classes
        for p, least in ((p1(), {"e1"}), (Preorder.discrete("xyz"), set("xyz"))):
            q = p.quotient()
            assert {a for i in roots(q) for a in q.classes[i]} == least


class TestForestDetection:
    def test_two_parents_is_not_a_forest(self):
        # a and b both directly below c: c covers two classes
        p = Preorder.from_relations("abc", [("a", "c"), ("b", "c")])
        q = p.quotient()
        with pytest.raises(ValueError):
            parents(q)
