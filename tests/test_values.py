"""The library's value classes: constructor signatures and checks, equality
and hashing over the same fields as before, reprs, and instances built on
the trusted paths that carry no ``__dict__``."""

import inspect

import pytest

from enrichfan import corpus
from enrichfan.cones import RationalCone, closed_structure_cone, structure_cone
from enrichfan.enriched import (
    EnrichedGraph,
    Specialization,
    canonical_structure,
    enriched_structures,
    locate,
    specializations,
)
from enrichfan.errors import NotABondError, UnknownLabelError
from enrichfan.fans import Fan, fan_of_graph
from enrichfan.graphs import Bond, EdgePermutation, WeightedGraph
from enrichfan.lattices import LatticeQuotient
from enrichfan.moduli import CellClassification, LiftReport, ModuliCell, classify_cells, enumerate_cells
from enrichfan.preorders import Preorder, QuotientPoset
from enrichfan.toric import BlowupStage, LaurentRelation, blowup_schedule, equations


def triangle_structure():
    """``a`` below the class ``{b, c}`` on the triangle."""
    g = corpus.triangle()
    return EnrichedGraph(g, Preorder.from_relations(g.edge_labels, [("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")]))


@pytest.mark.parametrize(
    "cls, params",
    [
        (Bond, "graph side edges"),
        (EdgePermutation, "edge_map vertex_map"),
        (QuotientPoset, "classes less hasse"),
        (EnrichedGraph, "graph preorder"),
        (Specialization, "source target contracted"),
        (RationalCone, "labels rays closed=True rows=None"),
        (Fan, "labels maximal"),
        (LatticeQuotient, "labels generators rank projection"),
        (LaurentRelation, "terms"),
        (BlowupStage, "cardinality centers"),
        (ModuliCell, "index weighted preorder genus aut"),
        (
            CellClassification,
            "maximal codim1_valence_four codim1_weight_one_leaf codim1_merged_classes closure_counts connected_through_codim1",
        ),
        (LiftReport, "genus points_checked failures"),
    ],
)
def test_constructor_signature(cls, params):
    shown = []
    for p in inspect.signature(cls).parameters.values():
        shown.append(p.name if p.default is inspect.Parameter.empty else f"{p.name}={p.default!r}")
    assert " ".join(shown) == params


def _bad_inputs():
    tri, square = corpus.triangle(), corpus.square()
    eg = triangle_structure()
    discrete = Preorder.discrete(tri.edge_labels)
    ab = frozenset({"e1", "e2"})
    return [
        (lambda: Bond(tri, frozenset({"zz"}), frozenset()), NotABondError, "side contains unknown vertices"),
        (lambda: Bond(tri, frozenset(), frozenset()), NotABondError, "a bond needs a nontrivial vertex bipartition"),
        (lambda: Bond.from_side(square, {square.vertices[0], square.vertices[2]}), NotABondError,
         "both sides of a bond must induce connected subgraphs"),
        (lambda: Bond(tri, frozenset({"v1"}), frozenset({"a"})), NotABondError,
         "edge set does not match the cut of the given side"),
        (lambda: EnrichedGraph(tri, discrete), ValueError, "preorder is not an enriched structure on this graph"),
        (lambda: Specialization(eg, eg, {"b"}), ValueError, "contracted set must be a lower set of the source"),
        (lambda: Specialization(eg, eg, {"zz"}), UnknownLabelError, "unknown label 'zz'"),
        (lambda: RationalCone(("x", "y"), [(1, 0), (1, 0)]), ValueError, "duplicate rays"),
        (lambda: RationalCone(("x", "y"), [(1, 0), (2, 0)]), ValueError,
         "rays must be linearly independent (simplicial cones only)"),
        (lambda: LaurentRelation(((ab, "e3", 1), (ab, "e1", -1))), ValueError,
         "exponent attached to an edge outside its bond"),
        (lambda: LaurentRelation(((ab, "e1", 1), (ab, "e2", 1))), ValueError,
         "exponents must sum to zero within each bond"),
        (lambda: ModuliCell(0, WeightedGraph(tri, dict.fromkeys(tri.vertices, 0)), discrete, 2, ()), ValueError,
         "preorder is not an enriched structure on this graph"),
    ]


@pytest.mark.parametrize("build, error, message", _bad_inputs())
def test_constructor_refuses_bad_input(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


def _values():
    """Per class: a value, a twin equal to it but built apart (differing in
    every field left out of equality), a value differing in one compared
    field, and the tuple the hash is taken of."""
    tri = corpus.triangle()
    eg = triangle_structure()
    other_eg = canonical_structure(tri)
    bond = Bond.from_side(tri, {"v1"})
    em = (("a", "b"), ("b", "a"))
    q = eg.preorder.quotient()
    cone = closed_structure_cone(eg)
    cone._comparisons()  # rows and plan are set on this one only
    sps = specializations(eg)
    fan = fan_of_graph(tri)
    lq = LatticeQuotient.from_generators("xy", [(1, 1)])
    rels = equations(corpus.doubled_triangle())
    stages = blowup_schedule(corpus.square())
    cells = enumerate_cells(2)
    c = cells[3]
    cc = classify_cells(1)
    cc_fields = (cc.maximal, cc.codim1_valence_four, cc.codim1_weight_one_leaf, cc.codim1_merged_classes)
    return {
        "Bond": (bond, Bond(tri, frozenset({"v1"}), frozenset({"a", "b"})), bond.complement(), (tri, bond.side, bond.edges)),
        "EdgePermutation": (
            EdgePermutation(em, (("u", "u"),)), EdgePermutation(em, (("u", "v"),)),
            EdgePermutation(em[:1], (("u", "u"),)), (em,),
        ),
        "QuotientPoset": (q, QuotientPoset(q.classes, q.less, q.hasse), other_eg.preorder.quotient(), (q.classes, q.less, q.hasse)),
        "EnrichedGraph": (eg, EnrichedGraph(tri, eg.preorder), other_eg, (tri, eg.preorder)),
        "Specialization": (sps[1], Specialization(eg, sps[1].target, set(sps[1].contracted)), sps[2],
                           (eg, sps[1].target, sps[1].contracted)),
        "RationalCone": (cone, RationalCone(cone.labels, cone.rays), structure_cone(eg), (cone.labels, cone.rays, True)),
        "Fan": (fan, Fan(fan.labels, fan.maximal), Fan(fan.labels, fan.maximal[1:]), (fan.labels, fan.maximal)),
        "LatticeQuotient": (lq, LatticeQuotient(lq.labels, lq.generators, lq.rank, lq.projection),
                            LatticeQuotient.from_generators("xy", [(1, 2)]), (lq.labels, lq.generators, lq.rank, lq.projection)),
        "LaurentRelation": (rels[0], LaurentRelation(rels[0].terms), rels[1], (rels[0].terms,)),
        "BlowupStage": (stages[0], BlowupStage(stages[0].cardinality, stages[0].centers), stages[1],
                        (stages[0].cardinality, stages[0].centers)),
        "ModuliCell": (c, ModuliCell(c.index, c.weighted, c.preorder, c.genus, c.aut), cells[4],
                       (c.index, c.weighted, c.preorder, c.genus, c.aut)),
        "CellClassification": (cc, CellClassification(*cc_fields, dict(cc.closure_counts), cc.connected_through_codim1),
                               CellClassification(*cc_fields, cc.closure_counts, False), None),
        "LiftReport": (LiftReport(1, 5, ()), LiftReport(1, 5, ()), LiftReport(1, 6, ()), (1, 5, ())),
    }


@pytest.mark.parametrize("name", sorted(_values()))
def test_equality_and_hash_read_the_compared_fields(name):
    value, twin, other, key = _values()[name]
    assert value == twin and not value != twin
    assert value != other and not value == other
    assert value.__eq__(key) is NotImplemented
    if key is None:  # a dict field leaves the value unhashable
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    else:
        assert hash(value) == hash(twin) == hash(key)


def test_cone_rows_and_plan_take_no_part_in_equality():
    cone = closed_structure_cone(triangle_structure())
    bare = RationalCone(cone.labels, cone.rays)
    assert bare.rows is None and bare._plan is None and cone.rows is not None
    assert bare == cone and hash(bare) == hash(cone)
    assert RationalCone(cone.labels, cone.rays, False, cone.rows).closure() == cone


@pytest.mark.parametrize(
    "build, text",
    [
        (
            triangle_structure,
            "EnrichedGraph(graph=MultiGraph([v1, v2, v3], {a:v1-v2, b:v1-v3, c:v2-v3}), "
            "preorder=Preorder(['a', 'b', 'c'], [a≼b, a≼c, b≼c, c≼b]))",
        ),
        (
            lambda: EdgePermutation((("a", "a"), ("b", "c"), ("c", "b")), (("u", "u"), ("v", "v"))),
            "EdgePermutation(edge_map=(('a', 'a'), ('b', 'c'), ('c', 'b')), vertex_map=(('u', 'u'), ('v', 'v')))",
        ),
        (
            lambda: enumerate_cells(1)[0],
            "ModuliCell(index=0, weighted=WeightedGraph(MultiGraph([v1], {}), {v1:1}), preorder=Preorder([], []), "
            "genus=1, aut=(EdgePermutation(edge_map=(), vertex_map=(('v1', 'v1'),)),))",
        ),
        (
            lambda: triangle_structure().preorder.quotient(),
            "QuotientPoset(classes=(('a',), ('b', 'c')), less=frozenset({(0, 1)}), hasse=((0, 1),))",
        ),
        (
            lambda: LatticeQuotient.from_generators("ab", [(1, 1)]),
            "LatticeQuotient(labels=('a', 'b'), generators=((1, 1),), rank=1, projection=((-1, 1),))",
        ),
        (
            lambda: blowup_schedule(corpus.triangle())[0],
            "BlowupStage(cardinality=1, centers=((('a',), ('b', 'c')), (('b',), ('a', 'c')), (('c',), ('a', 'b'))))",
        ),
        (
            lambda: classify_cells(1),
            "CellClassification(maximal=(0,), codim1_valence_four=(), codim1_weight_one_leaf=(), "
            "codim1_merged_classes=(), closure_counts={}, connected_through_codim1=True)",
        ),
        (lambda: LiftReport(1, 2, ()), "LiftReport(genus=1, points_checked=2, failures=())"),
        (lambda: Bond.from_side(corpus.triangle(), {"v1"}), "Bond(side={v1}, edges={a, b})"),
        (lambda: RationalCone(("a", "b"), [(1, 0)]), "RationalCone(closed, dim=1, rays=[(1, 0)])"),
        (lambda: Fan(("a",), ()), "Fan(rank=1, maximal=0)"),
    ],
)
def test_repr(build, text):
    assert repr(build()) == text


def test_trusted_instances_carry_no_dict():
    eg = triangle_structure()
    cone = structure_cone(eg)
    built = [
        *enriched_structures(corpus.square()),
        *specializations(eg),
        *(sp.target for sp in specializations(eg)),
        locate(corpus.triangle(), {"a": 1, "b": 2, "c": 2}),
        *enumerate_cells(2),
        enumerate_cells(2)[3].enriched(),
        cone,
        cone.closure(),
        *closed_structure_cone(eg).faces(),
        *fan_of_graph(corpus.square()).maximal,
    ]
    assert not [v for v in built if hasattr(v, "__dict__")]
