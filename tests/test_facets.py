"""The row forest (``enriched._parents``) against its definition and the
Hasse covers of the quotient poset, and the facet table (``enriched._faces`` restricted to the faces that drop one
ray) against the full face table and against the forest.

Dropping a class's ray from the closed structure cone merges the class
into its parent, or contracts it when it is a bottom class; the facet
table read off ``_faces`` must be exactly that, face for face."""

import random
from collections import Counter

from hypothesis import given, settings

from enrichfan import corpus
from enrichfan.enriched import _faces, _parents, enriched_structures
from reference_preorders import parents as hasse_parents
from test_enriched_reference import cycle, multigraphs
from test_toric_reference import k4, wheel4

GRAPHS = {**corpus.corpus_graphs(), "c5": cycle(5), "k4": k4(), "w4": wheel4()}
W4_FULL_TABLE_SAMPLE = 1500  # W4 structures whose full face table is built too; all of them take about 14 s


def least_strict_superset(row, rows) -> int:
    supersets = [r for r in set(rows) if r != row and r & row == row]
    return min(supersets, key=int.bit_count, default=0)


def unpacked(q: int, n: int) -> list:
    w = (n + 7) & -8
    return [q >> w * i & (1 << n) - 1 for i in range(n)]


def packed(rows: list) -> int:
    w = (len(rows) + 7) & -8
    return sum(r << w * i for i, r in enumerate(rows))


def forest_facets(rows: tuple) -> dict:
    """The facet table read off the forest: each class merged into its
    parent, or contracted when it has none."""
    table = {}
    for row, parent in _parents(rows).items():
        if parent:
            mask, target = 0, [parent if r == row else r for r in rows]
        else:
            mask = sum(1 << i for i, r in enumerate(rows) if r == row)
            kept = [i for i in range(len(rows)) if not mask >> i & 1]
            target = [sum(1 << j for j, k in enumerate(kept) if rows[i] >> k & 1) for i in kept]
        table.setdefault(mask, Counter())[packed(target)] += 1
    return table


def facets_of_full_table(rows: tuple) -> dict:
    """The full face table restricted to the faces with one ray fewer than
    the cone: a face's rays are the distinct rows of its target."""
    n, dim = len(rows), len(set(rows))
    table = {}
    for mask, targets in _faces(rows).items():
        m = n - mask.bit_count()
        for q in targets:
            if len(set(unpacked(q, m))) == dim - 1:
                table.setdefault(mask, Counter())[q] += 1
    return table


def assert_forest_and_facets(rows: tuple, full: bool = True):
    assert _parents(rows) == {row: least_strict_superset(row, rows) for row in set(rows)}
    table = _faces(rows, facets=True)
    assert sum(map(len, table.values())) == len(set(rows))
    facets = {mask: Counter(targets) for mask, targets in table.items()}
    assert facets == forest_facets(rows)
    if full:
        assert facets == facets_of_full_table(rows)


def test_forest_is_the_hasse_predecessor_map():
    for g in GRAPHS.values():
        for eg in enriched_structures(g):
            p = eg.preorder
            q = p.quotient()
            row = [p.rows[p.ground.index(cls[0])] for cls in q.classes]
            below = hasse_parents(q)
            assert _parents(p.rows) == {row[j]: row[below[j]] if j in below else 0 for j in range(len(row))}


def test_forest_and_facets_on_corpus_c5_k4_w4():
    for name, g in GRAPHS.items():
        structs = enriched_structures(g)
        sample = set(random.Random(33).sample(range(len(structs)), W4_FULL_TABLE_SAMPLE)) if name == "w4" else None
        for k, eg in enumerate(structs):
            assert_forest_and_facets(eg.preorder.rows, full=sample is None or k in sample)


@settings(max_examples=40, deadline=None)
@given(multigraphs())
def test_forest_and_facets_on_any_multigraph(g):
    for eg in enriched_structures(g):
        assert_forest_and_facets(eg.preorder.rows)


def test_a_bottom_class_has_parent_zero_and_a_chain_is_a_path():
    # the 3-cycle's chain a < b < c: rows {a,b,c}, {b,c}, {c}
    a, b, c = 0b111, 0b110, 0b100
    assert _parents((a, b, c)) == {a: 0, b: a, c: b}
    # the discrete structure on two blocks: every class is a bottom class
    assert _parents((0b01, 0b10)) == {0b01: 0, 0b10: 0}
