"""The bitmask recursion core against the label-keyed reference recursions
and against its own ``(mask, ends)``-keyed form, its packed rank order
against the byte-key sort it replaced,
specialization and the poset DOT against the code that filtered every
structure of each contraction, specialization against ``locate`` at the
barycentre of each face, ``locate`` against its core on edge indices
(``_located_rows``), and the core against closed-form counts."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_enriched as ref
from conftest import connected_multigraphs
import enrichfan.enriched
from enrichfan import corpus
from enrichfan.enriched import (
    Specialization,
    _argmin,
    _bottoms_of,
    _located_rows,
    _nonempty_submasks,
    _ordered_rows,
    _trusted,
    enriched_structures,
    is_enriched,
    locate,
    specializations,
)
from enrichfan.errors import UnknownLabelError
from enrichfan.formats import specialization_poset_dot
from enrichfan.graphs import MultiGraph, biconnected_components, contract, edge_ends
from enrichfan.moduli import enumerate_stable_weighted_graphs
from enrichfan.preorders import Preorder
from reference_preorders import all_preorders
from test_toric_reference import k4, wheel4

# mixed int and string labels: ints sort numerically and before strings
LABELS = [1, 2, 10, "a", "b", "c", "x1", "x10", "x2"]


@st.composite
def multigraphs(draw, max_vertices=5, max_edges=6):
    """Arbitrary multigraphs: loops, bridges, isolated vertices, several components."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = list(range(n))
    labels = draw(st.lists(st.sampled_from(LABELS), max_size=max_edges, unique=True))
    return MultiGraph(vertices, {e: (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))) for e in labels})


def cycle(n):
    vs = [f"v{i}" for i in range(n)]
    return MultiGraph(vs, {f"e{i}": (vs[i], vs[(i + 1) % n]) for i in range(n)})


def small_graphs():
    """Graphs with at most four edges, loops, bridges and disconnected ones among them."""
    extra = {
        "two_loops": MultiGraph(["u"], {"a": ("u", "u"), "b": ("u", "u")}),
        "triangle_pendant": MultiGraph("uvwx", {"a": ("u", "v"), "b": ("v", "w"), "c": ("u", "w"), "d": ("w", "x")}),
        "disjoint": MultiGraph("uvwxy", {"a": ("u", "v"), "b": ("u", "v"), "c": ("w", "x"), 4: ("y", "y")}),
        "isolated": MultiGraph("uvw", {2: ("u", "v"), 10: ("u", "v"), "a": ("u", "v")}),
        "loop_bridge": MultiGraph("uv", {"a": ("u", "u"), "b": ("u", "v"), "c": ("v", "v")}),
    }
    graphs = {name: g for name, g in corpus.corpus_graphs().items() if g.n_edges <= 4}
    graphs.update(extra)
    return graphs


def assert_same_structures(g):
    got = [eg.preorder for eg in enriched_structures(g)]
    assert got == list(ref._structures(g))


@settings(max_examples=60, deadline=None)
@given(connected_multigraphs())
def test_enumeration_matches_reference_connected(g):
    assert_same_structures(g)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_enumeration_matches_reference_any_multigraph(g):
    assert_same_structures(g)
    got = [sorted(c.edge_labels, key=str) for c in biconnected_components(g)]
    assert got == [sorted(c.edge_labels, key=str) for c in ref.biconnected_components(g)]


def test_enumeration_matches_reference_corpus():
    for g in corpus.corpus_graphs().values():
        assert_same_structures(g)


def test_is_enriched_matches_reference_on_every_preorder():
    for name, g in small_graphs().items():
        for p in all_preorders(g.edge_labels):
            assert is_enriched(g, p) == ref._is_enriched(g, p), (name, p)


def test_locate_matches_reference_with_ties():
    rng = random.Random(7)
    graphs = list(small_graphs().values()) + [cycle(5), corpus.theta(4)]
    for g in graphs:
        if not g.n_edges:
            continue
        for trial in range(40):
            # few distinct values force ties in most bottom classes
            pool = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(1 + trial % 3)]
            x = {e: rng.choice(pool) for e in g.edge_labels}
            assert locate(g, x).preorder == ref._locate(g, x)


@settings(max_examples=40, deadline=None)
@given(multigraphs(), st.data())
def test_locate_matches_reference_any_multigraph(g, data):
    values = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
    x = {e: data.draw(values) for e in g.edge_labels}
    assert locate(g, x).preorder == ref._locate(g, x)


def test_locate_reads_every_coordinate_type_alike():
    # int, Fraction, float and str coordinates, exact mixes of them, and the
    # point scaled to integers all locate the reference's structure
    rng = random.Random(2609)
    graphs = [g for g in corpus.corpus_graphs().values() if g.n_edges] + [cycle(5), k4()]
    for g in graphs:
        labels = g.edge_labels
        for trial in range(12):
            pool = [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(1 + trial % 4)]
            x = {e: rng.choice(pool) for e in labels}
            want = ref._locate(g, x)
            scale = math.lcm(*(v.denominator for v in x.values()))
            scaled = {e: v * scale for e, v in x.items()}
            points = [{e: kind(v) for e, v in y.items()} for y in (x, scaled) for kind in (Fraction, float, str)]
            points.append({e: int(v) for e, v in scaled.items()})
            # a float equals a Fraction only when both are exact, so the mixes hold none
            points.append({e: (str(v) if i % 2 else v) for i, (e, v) in enumerate(x.items())})
            points.append({e: (int, str, Fraction)[i % 3](v) for i, (e, v) in enumerate(scaled.items())})
            for point in points:
                assert locate(g, point).preorder == want, (g, point)


def test_located_rows_is_locate_on_edge_indices():
    """The location core on vertex-index ends and an integer vector in
    edge-index order gives the rows ``locate`` gives, on the corpus, C5, K4
    and every genus-2 and genus-3 stable graph, at seeded points drawn from
    pools of one to four values, so that most coordinates tie."""
    rng = random.Random(3030)
    graphs = list(corpus.corpus_graphs().values()) + [cycle(5), k4()]
    graphs += [wg.graph for genus in (2, 3) for wg in enumerate_stable_weighted_graphs(genus)]
    for g in graphs:
        ends = edge_ends(g)
        for trial in range(8):
            pool = [rng.randint(1, 12) for _ in range(1 + trial % 4)]
            x = [rng.choice(pool) for _ in ends]
            assert _located_rows(ends, x) == locate(g, dict(zip(g.edge_labels, x))).preorder.rows, (g, x)


def test_locate_rejects_zero_and_negative_coordinates_of_every_type():
    g = corpus.triangle()
    for bad in (0, -1, Fraction(0), Fraction(-1, 3), 0.0, -0.5, "0", "-2/3"):
        with pytest.raises(ValueError, match="strictly positive"):
            locate(g, {"a": 1, "b": bad, "c": Fraction(1, 2)})
    with pytest.raises(UnknownLabelError):
        locate(g, {"a": 1, "b": 2})


def specialization_keys(sps):
    return [(sp.source, sp.contracted, sp.target.graph, sp.target.preorder) for sp in sps]


def assert_same_specializations(structs):
    for eg in structs:
        assert specialization_keys(specializations(eg)) == specialization_keys(ref.specializations(eg)), eg.preorder


@settings(max_examples=20, deadline=None)
@given(multigraphs())
def test_specializations_match_reference_any_multigraph(g):
    assert_same_specializations(enriched_structures(g))


def test_specializations_match_reference_corpus_and_wheel():
    for g in corpus.corpus_graphs().values():
        assert_same_specializations(enriched_structures(g))
    structs = enriched_structures(wheel4())
    assert_same_specializations(structs[:2] + structs[-2:] + random.Random(9).sample(structs, 4))


def test_specializations_match_the_face_loop_they_were_split_from():
    """``specializations`` reads the face table ``_faces`` and gives the same
    specializations in the same order as the face loop it was split from, on
    every structure of the corpus, C5 and K4 and a seeded sample of W4's."""
    graphs = {**corpus.corpus_graphs(), "c5": cycle(5), "k4": k4(), "w4": wheel4()}
    for name, g in graphs.items():
        structs = enriched_structures(g)
        for eg in structs if len(structs) <= 700 else random.Random(29).sample(structs, 60):
            got, want = specializations(eg), ref.face_specializations(eg)
            assert specialization_keys(got) == specialization_keys(want), (name, eg.preorder)


def test_specializations_never_enter_the_recursion_core(monkeypatch):
    graphs = {**corpus.corpus_graphs(), "c5": cycle(5), "k4": k4()}
    structs = {name: enriched_structures(g) for name, g in graphs.items()}

    def refuse(*args):
        raise AssertionError("specializations entered the recursion core")

    monkeypatch.setattr(enrichfan.enriched, "_rows", refuse)
    for name, found in structs.items():
        for eg in found:
            assert len(specializations(eg)) == 2 ** eg.rank, name


def _outcome(check, *args):
    """``None`` when ``check(*args)`` passes, else the type and message it raises."""
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_specialization_check_matches_the_label_check():
    """On every corpus graph: each structure, each edge subset as the
    contracted set and each structure on its contraction as the target,
    plus the structure itself as a target off the contraction and the set
    with an unknown label, are accepted or rejected with the same exception
    as by the constructor's old label check."""
    seen = Counter()
    for g in corpus.corpus_graphs().values():
        contractions = {}
        for k in range(g.n_edges + 1):
            for s in map(frozenset, itertools.combinations(g.edge_labels, k)):
                contractions[s] = enriched_structures(contract(g, s))
        for eg in enriched_structures(g):
            cases = [(s, t) for s, targets in contractions.items() for t in targets]
            cases += [(s, eg) for s in contractions if s] + [(frozenset({"zz"}), eg), (frozenset(g.edge_labels[:1]) | {"zz"}, eg)]
            for s, target in cases:
                old = _outcome(ref.check_specialization, _trusted(Specialization, source=eg, target=target, contracted=s))
                assert _outcome(Specialization, eg, target, s) == old, (eg.preorder, s, target.preorder)
                seen[old and old[1]] += 1
    assert set(seen) == {
        None,
        "contracted set must be a lower set of the source",
        "target graph must be the stated contraction",
        "target preorder must refine every surviving relation",
        "unknown label 'zz'",
    }


def located_faces(eg):
    """``(zero set, located preorder)`` at the barycentre of each face of
    the closed structure cone, the sum of the face's rays."""
    g = eg.graph
    rays = sorted(set(eg.preorder.rows))
    out = []
    for k in range(len(rays) + 1):
        for face in itertools.combinations(rays, k):
            x = {e: sum(ray >> i & 1 for ray in face) for i, e in enumerate(g.edge_labels)}
            zero = frozenset(e for e, v in x.items() if v == 0)
            out.append((zero, locate(contract(g, zero), {e: v for e, v in x.items() if v}).preorder))
    return out


def test_specializations_are_located_at_the_barycentres_of_the_faces():
    rng = random.Random(15)
    graphs = {**corpus.corpus_graphs(), "c5": cycle(5), "k4": k4(), "w4": wheel4()}
    for name, g in graphs.items():
        structs = enriched_structures(g)
        for eg in structs if len(structs) <= 75 else rng.sample(structs, 12):
            got = Counter((sp.contracted, sp.target.preorder) for sp in specializations(eg))
            assert got == Counter(located_faces(eg)), (name, eg.preorder)


@settings(max_examples=15, deadline=None)
@given(multigraphs())
def test_poset_dot_matches_reference_any_multigraph(g):
    assert specialization_poset_dot(enriched_structures(g)) == ref.specialization_poset_dot(g)


def test_poset_dot_matches_reference_corpus_c5_k4():
    for g in list(corpus.corpus_graphs().values()) + [cycle(5), k4()]:
        assert specialization_poset_dot(enriched_structures(g)) == ref.specialization_poset_dot(g)


def test_cycle_counts_fubini_and_factorial():
    for n, fubini in ((4, 75), (5, 541), (6, 4683), (7, 47293)):
        structs = enriched_structures(cycle(n))
        assert len(structs) == fubini
        assert sum(eg.is_generic() for eg in structs) == math.factorial(n)


def test_theta_counts():
    for n in range(2, 9):
        structs = enriched_structures(corpus.theta(n))
        assert len(structs) == 2 ** n - 1
        assert sum(eg.is_generic() for eg in structs) == n


def bowtie_with_loop():
    """Two triangles at the vertex 0, with a loop at 0 and an isolated vertex 9:
    three blocks at one cut vertex."""
    return MultiGraph([0, 1, 2, 3, 4, 9], {"a": (0, 1), "b": (1, 2), "c": (2, 0), "d": (0, 3), "e": (3, 4), "f": (4, 0), "l": (0, 0)})


def unpack(found, n):
    """Packed structures on ``n`` edges as tuples of rows: row ``i`` is the
    ``n`` bits from bit ``w*i`` on, ``w = 8*ceil(n/8)``."""
    w = 8 * -(-n // 8)
    return [tuple(q >> w * i & (1 << n) - 1 for i in range(n)) for q in found]


def pack(rows):
    w = 8 * -(-len(rows) // 8)
    return sum(row << w * i for i, row in enumerate(rows))


def assert_core_matches_reference(g, values):
    """The packed mask-keyed core, unpacked, gives the rows, in order, of the
    ``(mask, ends)``-keyed reference for all three consumers: enumeration,
    validation of every structure and of a total order and the
    all-equivalent preorder, and location at ``values``."""
    ends = edge_ends(g)
    full = (1 << len(ends)) - 1

    def same(bottoms):
        got = unpack(enrichfan.enriched._rows(ends, full, bottoms, {}, {}), len(ends))
        assert got == ref._rows(ends, full, bottoms, {}), (g, bottoms)
        return got

    found = same(_nonempty_submasks)
    chain = tuple(full & ~((1 << i) - 1) for i in range(len(ends)))
    for rows in found + [chain, (full,) * len(ends)]:
        same(_bottoms_of(rows))
    same(_argmin(values))


@settings(max_examples=80, deadline=None)
@given(multigraphs(), st.data())
def test_core_matches_reference_any_multigraph(g, data):
    values = data.draw(st.lists(st.integers(1, 3), min_size=g.n_edges, max_size=g.n_edges))
    assert_core_matches_reference(g, values)


def test_core_matches_reference_corpus_c5_k4_bowtie():
    rng = random.Random(24)
    graphs = list(corpus.corpus_graphs().values()) + [cycle(5), k4(), bowtie_with_loop()]
    for g in graphs:
        for _ in range(3):
            assert_core_matches_reference(g, [rng.randint(1, 3) for _ in g.edge_labels])


def assert_packed_order_is_byte_key_order(g):
    """The packed core holds the structures of the tuple core it replaced,
    in the same order, and its rank sorts them, from that order and
    shuffled, into the byte-key order of ``_canonical``."""
    ends = edge_ends(g)
    full = (1 << len(ends)) - 1
    found = enrichfan.enriched._rows(ends, full, _nonempty_submasks, {}, {})
    before = ref._tuple_rows(ends, full, _nonempty_submasks, {})
    assert unpack(found, len(ends)) == before
    expected = ref._canonical(before)
    assert _ordered_rows(found, len(ends)) == expected
    shuffled = list(found)
    random.Random(len(found)).shuffle(shuffled)
    assert _ordered_rows(shuffled, len(ends)) == expected
    assert [eg.preorder.rows for eg in enriched_structures(g)] == expected


@settings(max_examples=80, deadline=None)
@given(multigraphs())
def test_packed_order_matches_byte_key_any_multigraph(g):
    assert_packed_order_is_byte_key_order(g)


def test_packed_order_matches_byte_key_corpus_c6_k4_w4():
    for g in list(corpus.corpus_graphs().values()) + [cycle(5), cycle(6), k4(), wheel4(), bowtie_with_loop()]:
        assert_packed_order_is_byte_key_order(g)


def test_packed_order_matches_byte_key_rows_wider_than_a_byte():
    """Nine and ten edges, each row two bytes of the packed int: the order,
    validation of every structure and of the all-equivalent preorder
    against the reference, and location at points with ties."""
    rng = random.Random(10)
    for n in (9, 10):
        g = corpus.theta(n)
        assert_packed_order_is_byte_key_order(g)
        assert all(is_enriched(g, eg.preorder) for eg in enriched_structures(g))
        coarse = Preorder.from_relations(g.edge_labels, itertools.permutations(g.edge_labels, 2))
        assert is_enriched(g, coarse) == ref._is_enriched(g, coarse) is True
        assert is_enriched(g, Preorder.discrete(g.edge_labels)) == ref._is_enriched(g, Preorder.discrete(g.edge_labels)) is False
        for _ in range(20):
            x = {e: rng.randint(1, 3) for e in g.edge_labels}
            assert locate(g, x).preorder == ref._locate(g, x)


def test_discrete_structure_sorts_first():
    """A graph whose blocks are single edges has the discrete structure as its
    only one, and that structure, whose pair list is empty, sorts before every
    other set of rows, at one and at two bytes a row."""
    forest = MultiGraph("uvwxy", {"a": ("u", "v"), "b": ("v", "w"), "c": ("w", "w"), 1: ("x", "x")})
    (eg,) = enriched_structures(forest)
    assert eg.preorder.rows == (1, 2, 4, 8)
    assert_packed_order_is_byte_key_order(forest)
    for n in (1, 4, 9):
        discrete = tuple(1 << i for i in range(n))
        full = ((1 << n) - 1,) * n
        chain = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
        rows = list(dict.fromkeys([full, chain, discrete]))
        assert ref._canonical(rows)[0] == discrete
        assert _ordered_rows([pack(r) for r in rows], n) == ref._canonical(rows)


@st.composite
def reflexive_row_sets(draw):
    """Distinct tuples of ``n`` rows, row ``i`` holding bit ``i`` and any other
    bits, for ``n`` up to 10: closed or not, the order reads only the pairs."""
    n = draw(st.integers(min_value=0, max_value=10))
    row = st.tuples(*[st.integers(0, (1 << n) - 1).map(lambda r, i=i: r | 1 << i) for i in range(n)])
    return n, draw(st.lists(row, min_size=1, max_size=40, unique=True))


@settings(max_examples=300, deadline=None)
@given(reflexive_row_sets())
def test_packed_order_matches_byte_key_on_any_rows(case):
    n, rows = case
    assert _ordered_rows([pack(r) for r in rows], n) == ref._canonical(rows)


def test_specialization_groups_come_in_byte_key_order():
    """The targets of the specializations that contract one lower set come in
    the byte-key order of ``_canonical``, for every structure of the corpus,
    C5 and K4 and a sample of W4's."""
    graphs = {**corpus.corpus_graphs(), "c5": cycle(5), "k4": k4(), "w4": wheel4()}
    sizes = Counter()
    for name, g in graphs.items():
        structs = enriched_structures(g)
        for eg in structs if len(structs) <= 700 else random.Random(28).sample(structs, 60):
            for _, group in itertools.groupby(specializations(eg), key=lambda sp: sp.contracted):
                rows = [sp.target.preorder.rows for sp in group]
                assert rows == ref._canonical(rows), (name, eg.preorder)
                sizes[len(rows) > 1] += 1
    assert sizes[True] and sizes[False]
