"""Ranks, solves and cone halfspaces on the integer echelon routine against
the ``Fraction`` eliminations they replaced (``reference_lattices``)."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_lattices as ref
from enrichfan.cones import GE, GT, Halfspace, RationalCone
from enrichfan.lattices import kernel_lattice, linearly_independent, primitive, rank_of, solve_columns
from test_lattices_oracle import matrices


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_reference(case):
    rows, _ = case
    assert rank_of(rows) == ref.rank_of(rows)
    assert linearly_independent(rows) == (ref.rank_of(rows) == len(rows))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_lattice_size_matches_reference_rank(case):
    rows, ncols = case
    assert len(kernel_lattice(rows, ncols)) == len(rows) - ref.rank_of(rows)


def _outcome(solve, columns, target):
    try:
        return solve(columns, target)
    except ValueError:
        return "dependent"


@st.composite
def systems(draw):
    """Columns with zero, repeated and summed ones mixed in, and a target that
    is a rational combination of them, possibly pushed off their span."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    columns = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("free", "free", "free", "zero", "repeat", "sum")))
        col = tuple(draw(entry) for _ in range(n))
        if kind == "zero":
            col = (0,) * n
        elif kind == "repeat" and columns:
            col = draw(st.sampled_from(columns))
        elif kind == "sum" and len(columns) >= 2:
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            col = tuple(x + y for x, y in zip(a, b))
        columns.append(col)
    coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    lam = [draw(coeff) for _ in columns]
    target = [sum((c * col[i] for c, col in zip(lam, columns)), Fraction(0)) for i in range(n)]
    if draw(st.booleans()):
        target[draw(st.integers(0, n - 1))] += draw(st.integers(-2, 2))
    return columns, tuple(target)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_matches_reference(case):
    columns, target = case
    assert _outcome(solve_columns, columns, target) == _outcome(ref.solve_columns, columns, target)


def _reference_halfspaces(cone):
    hs = ref._h_from_rays(cone.labels, cone.rays)
    if not cone.closed:
        hs = tuple(Halfspace(h.coeffs, GT) if h.rel == GE else h for h in hs)
    return hs


def check_same_set(rays, n):
    labels = tuple(f"e{i}" for i in range(n))
    grid = [-2, -1, 0, 1, 2] if n <= 3 else [-1, 0, 1]
    points = list(itertools.product(grid, repeat=n))
    k = len(rays)
    for lam in itertools.product([-1, 0, Fraction(1, 2), 1, 3], repeat=k):
        points.append(tuple(sum(c * r[i] for c, r in zip(lam, rays)) for i in range(n)))
    for closed in (True, False):
        cone = RationalCone.from_rays(labels, rays, closed=closed)
        ours, theirs = cone.h_description(), _reference_halfspaces(cone)
        for x in points:
            inside = all(h.holds(x) for h in ours)
            assert inside == all(h.holds(x) for h in theirs), (cone, x)
            assert inside == (cone.closure_contains(x) if closed else cone.interior_contains(x))


@st.composite
def simplicial_rays(draw):
    """Primitive, linearly independent integer rays, smooth or not."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    rays = []
    for _ in range(k):
        ray = tuple(draw(st.integers(-3, 3)) for _ in range(n))
        if any(ray):
            ray = primitive(ray)
            if ray not in rays and ref.rank_of(rays + [ray]) == len(rays) + 1:
                rays.append(ray)
    return rays, n


@settings(max_examples=80, deadline=None)
@given(simplicial_rays())
def test_h_description_matches_reference(case):
    rays, n = case
    check_same_set(rays, n)


@pytest.mark.parametrize(
    "rays, n",
    [
        ([(1, 1), (1, -1)], 2),
        ([(1, 1, 0), (1, -1, 0)], 3),  # the span is not saturated
        ([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3),
        ([(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1)], 4),
    ],
)
def test_h_description_on_determinant_two_cones(rays, n):
    assert not RationalCone(tuple(range(n)), tuple(rays)).is_smooth()
    check_same_set(rays, n)
