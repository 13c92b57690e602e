"""Spread bottoms and the shared face table, against the code they replaced.

The recursion core whose bottoms come with their spread, each bottom's
packed rows one multiply (``enriched._rows``), against the core that summed
them one shifted mask at a time (``reference_enriched._summed_rows``), for
all three consumers: the packed rows, in order.  The face table that
squeezes each ray once per lower set (``enriched._faces``) against the one
that squeezed the rays of each face anew (``reference_enriched.facewise_faces``),
with and without ``facets``; and ``specializations`` against the form that
read that table and built its objects through ``_trusted``.  On the corpus,
C5, C6, K4, a seeded sample of W4's structures and hypothesis multigraphs."""

import random

import pytest
from hypothesis import given, settings

import enrichfan.enriched
import reference_enriched as ref
from enrichfan import corpus
from enrichfan.enriched import _argmin, _bottoms_of, _faces, _nonempty_submasks, enriched_structures, specializations
from enrichfan.graphs import edge_ends
from test_enriched_reference import cycle, multigraphs
from test_toric_reference import k4, wheel4

SAMPLE = 120  # structures validated, faced or specialized per graph with more

GRAPHS = {**corpus.corpus_graphs(), "c5": cycle(5), "c6": cycle(6), "k4": k4(), "w4": wheel4()}


def sampled(structs, rng):
    return structs if len(structs) <= SAMPLE else rng.sample(structs, SAMPLE)


def assert_rows_match_summed(g, rng):
    ends = edge_ends(g)
    n, full = len(ends), (1 << len(ends)) - 1

    def same(bottoms, old):  # ``old``: the same bottoms, in the protocol the reference takes
        got = enrichfan.enriched._rows(ends, full, bottoms, {}, {})
        assert got == ref._summed_rows(ends, full, old, {}, {}), (g, bottoms)
        return got

    found = same(_nonempty_submasks, ref._nonempty_submasks)
    structs = [eg.preorder.rows for eg in enriched_structures(g)]
    assert len(found) == len(structs)
    chain = tuple(full & ~((1 << i) - 1) for i in range(n))
    for rows in sampled(structs, rng) + [chain, (full,) * n, tuple(1 << i for i in range(n))]:  # enriched or not
        same(_bottoms_of(rows), ref._bottoms_of(rows))
    for trial in range(20):
        pool = [rng.randint(1, 9) for _ in range(1 + trial % 4)]  # few values: most bottoms tie
        values = [rng.choice(pool) for _ in ends]
        same(_argmin(values), ref._argmin(values))


def sorted_table(table):
    return {lower: sorted(targets) for lower, targets in table.items()}


def assert_faces_and_specializations_match(structs):
    for eg in structs:
        rows = eg.preorder.rows
        for facets in (False, True):
            assert sorted_table(_faces(rows, facets)) == sorted_table(ref.facewise_faces(rows, facets)), (eg.preorder, facets)
        got, want = specializations(eg), ref.trusted_specializations(eg)
        assert got == want and [type(sp.target) for sp in got] == [type(sp.target) for sp in want], eg.preorder


@pytest.mark.parametrize("name", GRAPHS)
def test_rows_match_the_summed_core(name):
    assert_rows_match_summed(GRAPHS[name], random.Random(38))


@pytest.mark.parametrize("name", GRAPHS)
def test_faces_and_specializations_match_the_facewise_table(name):
    assert_faces_and_specializations_match(sampled(enriched_structures(GRAPHS[name]), random.Random(38)))


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_edges=7))
def test_rows_match_the_summed_core_any_multigraph(g):
    assert_rows_match_summed(g, random.Random(g.n_edges))


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_edges=6))
def test_faces_and_specializations_match_the_facewise_table_any_multigraph(g):
    assert_faces_and_specializations_match(sampled(enriched_structures(g), random.Random(g.n_edges)))
