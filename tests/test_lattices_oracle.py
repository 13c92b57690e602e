"""Differential tests: the integer echelon core in ``lattices`` against sympy.

sympy is a test-only dependency; its Smith and Hermite normal forms are the
oracle for invariant factors, lattice equality, kernel lattices and lattice
quotients, and for the triangular rows the kernel check reduces its
relations to, on hypothesis matrices and on the corpus fans and bonds.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_decomp

from enrichfan import corpus
from enrichfan.fans import fan_of_graph, graph_lattice_quotient
from enrichfan.graphs import bonds
from enrichfan.lattices import (
    LatticeQuotient,
    _triangular,
    invariant_factors,
    kernel_lattice,
    lattice_span_equal,
)


def _matrix(rows, ncols: int) -> Matrix:
    return Matrix(len(rows), ncols, [int(x) for row in rows for x in row])


def sympy_hnf(rows, ncols: int) -> Matrix:
    """Column HNF of the transposed rows: a canonical form of their row lattice."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return Matrix(0, 0, [])
    return hermite_normal_form(_matrix(rows, ncols).T)


def sympy_snf(rows, ncols: int):
    """``(diagonal, S)`` with D = S * M * T the Smith decomposition of M."""
    d, s, _ = smith_normal_decomp(_matrix(rows, ncols), domain=ZZ)
    diag = [abs(int(d[i, i])) for i in range(min(d.shape))]
    return diag, s


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    """Integer matrices with zero rows, repeated rows and row sums mixed in."""
    ncols = draw(st.integers(1, max_cols))
    entry = st.integers(-6, 6)
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(("free", "free", "zero", "repeat", "sum")))
        row = tuple(draw(entry) for _ in range(ncols))
        if kind == "zero":
            row = (0,) * ncols
        elif kind == "repeat" and rows:
            row = draw(st.sampled_from(rows))
        elif kind == "sum" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            total = tuple(x + y for x, y in zip(a, b))
            if all(-6 <= x <= 6 for x in total):
                row = total
        rows.append(row)
    return rows, ncols


def check_invariant_factors(rows, ncols):
    diag, _ = sympy_snf(rows, ncols)
    assert invariant_factors(rows, ncols) == sorted(x for x in diag if x)


def check_kernel(rows, ncols):
    diag, s = sympy_snf(rows, ncols)
    rank = sum(1 for x in diag if x)
    expected = [tuple(int(x) for x in s.row(i)) for i in range(rank, len(rows))]
    basis = kernel_lattice(rows, ncols)
    assert len(basis) == len(expected)
    for c in basis:
        assert all(sum(c[i] * rows[i][j] for i in range(len(rows))) == 0 for j in range(ncols))
    assert sympy_hnf(basis, len(rows)) == sympy_hnf(expected, len(rows))


def check_quotient(labels, gens):
    n = len(labels)
    lq = LatticeQuotient.from_generators(labels, gens)
    diag, _ = sympy_snf(gens, n)
    rank = sum(1 for x in diag if x)
    assert lq.rank == rank and len(lq.projection) == n - rank
    for g in gens:
        assert lq.project(g) == (0,) * (n - rank)
    # the projection is onto Z^(n - rank): its Smith form is all ones
    assert sympy_snf(lq.projection, n)[0] == [1] * (n - rank)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_invariant_factors_match_smith(m):
    check_invariant_factors(*m)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_lattice_matches_smith(m):
    check_kernel(*m)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_span_equal_matches_hermite(m, data):
    rows, ncols = m
    # a unimodular shuffle of the rows spans the same lattice; an extra row
    # (a row sum, which stays inside, or a free row) may or may not
    other = list(rows)
    for _ in range(data.draw(st.integers(0, 6))):
        if len(other) < 2:
            break
        i, j = data.draw(st.permutations(range(len(other))))[:2]
        c = data.draw(st.sampled_from((-2, -1, 1, 2)))
        other[i] = tuple(x + c * y for x, y in zip(other[i], other[j]))
    if data.draw(st.booleans()):
        other.append(tuple(data.draw(st.integers(-6, 6)) for _ in range(ncols)))
    expected = sympy_hnf(rows, ncols) == sympy_hnf(other, ncols)
    assert lattice_span_equal(rows, other, ncols) is expected
    assert lattice_span_equal(other, rows, ncols) is expected


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_quotient_matches_smith(m):
    rows, ncols = m
    check_quotient(tuple(f"x{i}" for i in range(ncols)), rows)


@pytest.mark.parametrize("name", sorted(corpus.CORPUS))
def test_corpus_fan_cones(name):
    g = corpus.CORPUS[name]()
    fan = fan_of_graph(g)
    cones = {frozenset(f) for c in fan.maximal for k in range(c.dim + 1) for f in itertools.combinations(c.rays, k)}
    for raysets in sorted(cones, key=sorted):
        rays = sorted(raysets)
        if not rays:
            continue
        check_invariant_factors(rays, fan.ambient_rank)
        check_kernel(rays, fan.ambient_rank)
        check_quotient(fan.labels, rays)
        assert lattice_span_equal(rays, rays[::-1], fan.ambient_rank)
    lq = graph_lattice_quotient(g)
    check_quotient(lq.labels, list(lq.generators))


@pytest.mark.parametrize("name", corpus.BICONNECTED_CORPUS)
def test_corpus_bond_quotients(name):
    g = corpus.CORPUS[name]()
    for b in bonds(g):
        # the bond's lattice modulo its all-ones vector
        q = LatticeQuotient.from_generators(b.sorted_edges(), [(1,) * len(b.edges)])
        check_quotient(q.labels, list(q.generators))
        assert q.quotient_rank == len(b.edges) - 1


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_triangular_rows_match_hermite(m):
    # entries up to 6 in size take the gcd step as well as the subtraction
    rows, ncols = m
    basis = _triangular([{j: x for j, x in enumerate(row) if x} for row in rows])
    tri = [tuple(row.get(c, 0) for c in range(ncols)) for row in basis.values()]
    assert len({next(j for j, x in enumerate(row) if x) for row in tri}) == len(tri)
    assert sympy_hnf(tri, ncols) == sympy_hnf(rows, ncols)
