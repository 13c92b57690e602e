"""Ranks and cone rows on the integer echelon routine, and cone membership
on their signs, against the ``Fraction`` eliminations they replaced
(``reference_lattices``, ``reference_membership``); and the echelon routine
itself against its copy from before its one-sided row steps rewrote only
the row that changes; and lattice equality by mutual membership, with the
sparse triangular bases it reads, against the Hermite compare and the dense
triangular rows it replaced."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_lattices as ref
import reference_membership
from enrichfan.cones import RationalCone, containing
from enrichfan.graphs import _bond_masks
from enrichfan.lattices import _echelon, _triangular, kernel_lattice, lattice_span_equal, linearly_independent, primitive, rank_of
from enrichfan.toric import _dual_map_rows
from test_lattices_oracle import matrices
from test_toric_reference import GRAPHS


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


def _reference_halfspaces(cone):
    hs = ref._h_from_rays(cone.labels, cone.rays)
    if not cone.closed:
        hs = tuple(ref.Halfspace(h.coeffs, ref.GT) if h.rel == ref.GE else h for h in hs)
    return hs


def assert_membership_matches_solve(cone, points):
    """Membership in ``cone``, its closure and its relative interior, and
    ``containing``, against the ``Fraction`` solve in the ray basis."""
    old = reference_membership.Cone(cone.rays, cone.closed)
    for x in points:
        assert cone.closure().contains(x) == old.closure_contains(x), (cone, x)
        assert RationalCone(cone.labels, cone.rays, False, cone.rows).contains(x) == old.interior_contains(x), (cone, x)
        assert cone.contains(x) == old.contains(x), (cone, x)
        assert containing([cone, cone.closure()], x) == [i for i, inside in enumerate((old.contains(x), old.closure_contains(x))) if inside]


def check_same_set(rays, n, solve=False):
    """Our rows and the reference halfspaces agree on a grid and on
    combinations of the rays; with ``solve`` so does the ``Fraction`` solve."""
    labels = tuple(f"e{i}" for i in range(n))
    grid = [-2, -1, 0, 1, 2] if n <= 3 else [-1, 0, 1]
    points = list(itertools.product(grid, repeat=n))
    k = len(rays)
    for lam in itertools.product([-1, 0, Fraction(1, 2), 1, 3], repeat=k):
        points.append(tuple(sum(c * r[i] for c, r in zip(lam, rays)) for i in range(n)))
    for closed in (True, False):
        cone = RationalCone.from_rays(labels, rays, closed=closed)
        ours, theirs = ref.halfspaces_of(cone), _reference_halfspaces(cone)
        for x in points:
            inside = all(h.holds(x) for h in ours)
            assert inside == all(h.holds(x) for h in theirs), (cone, x)
            assert inside == cone.contains(x)
        if solve:
            assert_membership_matches_solve(cone, points)


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


@st.composite
def smooth_rays(draw):
    """Rays of a smooth cone: some rows of the identity after unimodular
    row additions, made primitive and sorted as a cone keeps them."""
    n = draw(st.integers(1, 4))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            c = draw(st.integers(-2, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return [tuple(r) for r in rows[: draw(st.integers(0, n))]], n


@settings(max_examples=80, deadline=None)
@given(simplicial_rays())
def test_h_description_matches_reference(case):
    rays, n = case
    check_same_set(rays, n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(smooth_rays(), simplicial_rays()), st.data())
def test_membership_matches_fraction_solve(case, data):
    """Points that are rational combinations of the rays, with negative,
    zero and positive coefficients, some pushed off the span, on smooth and
    on other simplicial cones (``test_h_description_on_determinant_two_cones``
    pins four of determinant 2)."""
    rays, n = case
    coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    points = []
    for _ in range(4):
        lam = [data.draw(coeff) for _ in rays]
        x = [sum((c * r[i] for c, r in zip(lam, rays)), Fraction(0)) for i in range(n)]
        if data.draw(st.booleans()):
            x[data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from([Fraction(-1, 3), 1, 2]))
        points.append(tuple(x))
    labels = tuple(f"e{i}" for i in range(n))
    for closed in (True, False):
        assert_membership_matches_solve(RationalCone.from_rays(labels, rays, closed=closed), points)


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
    check_same_set(rays, n, solve=True)


def _assert_same_echelon(rows, ncols):
    for track in (False, True):
        ours, theirs = _echelon(rows, ncols, track), ref._echelon(rows, ncols, track)
        assert ours == theirs, (rows, track)
        assert (ours.u is None) == (not track)


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(), matrices(max_rows=9, max_cols=4)))
def test_echelon_matches_reference(case):
    """The same H, pivots and U, entry for entry, tracked and untracked, on
    matrices with zero, repeated and summed rows, entries in [-6, 6] (so
    negative and non-dividing ones), and as many as nine rows on four columns."""
    _assert_same_echelon(*case)


@pytest.mark.parametrize(
    "rows, ncols",
    [
        ([(2, 3), (4, 6), (-6, 9), (0, 0), (3, 4)], 2),  # divisible and non-dividing eliminations, a zero row
        ([(-2, 1, 0), (4, -3, 5), (0, 0, 0), (-6, 2, 7), (2, 5, -1)], 3),
        ([(0, 5), (0, -10), (3, 0)], 2),  # a zero in the pivot position
        ([(1, 7, 9), (0, 2, 11), (0, 0, 3)], 3),  # reduction above every pivot
        ([], 3),
    ],
)
def test_echelon_matches_reference_on_fixed_matrices(rows, ncols):
    _assert_same_echelon(rows, ncols)


@pytest.mark.parametrize("name", ["k4", "w4", "prism"])
def test_echelon_matches_reference_on_dual_maps(name):
    """The tracked echelon the kernel check runs, on its largest inputs."""
    g = GRAPHS[name]()
    _, rows = _dual_map_rows(g, _bond_masks(g))
    assert len(rows) > g.n_edges - 1  # more rows than columns
    _assert_same_echelon(rows, g.n_edges - 1)


def _sparse_rows(rows) -> list:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@st.composite
def lattice_pairs(draw):
    """Two row families over one column count: the second is a unimodular
    shuffle of the first, then maybe a row scaled by 2 or 3 (an index-2 or
    index-3 sublattice when that row is independent of the rest), a row sum,
    a zero row, or a row outside the first family's span."""
    rows, ncols = draw(matrices())
    other = list(rows)
    for _ in range(draw(st.integers(0, 4))):
        if len(other) < 2:
            break
        i, j = draw(st.permutations(range(len(other))))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        other[i] = tuple(x + c * y for x, y in zip(other[i], other[j]))
    change = draw(st.sampled_from(("none", "scale", "sum", "zero", "outside")))
    if change == "scale" and other:
        i = draw(st.integers(0, len(other) - 1))
        other[i] = tuple(draw(st.sampled_from((2, 3))) * x for x in other[i])
    elif change == "sum" and other:
        other.append(tuple(map(sum, zip(*other))))
    elif change == "zero":
        other.append((0,) * ncols)
    elif change == "outside":
        other.append(tuple(draw(st.integers(-6, 6)) for _ in range(ncols)))
    return rows, other, ncols


@settings(max_examples=300, deadline=None)
@given(lattice_pairs())
def test_span_equal_matches_hermite_reference(case):
    rows, other, ncols = case
    expected = ref.hermite_span_equal(rows, other, ncols)
    assert ref.hermite_span_equal(other, rows, ncols) is expected
    assert lattice_span_equal(rows, other, ncols) is expected
    assert lattice_span_equal(other, rows, ncols) is expected
    # sparse rows, as the kernel check passes its relations, give the same answer
    assert lattice_span_equal(_sparse_rows(rows), other, ncols) is expected
    assert lattice_span_equal(other, _sparse_rows(rows), ncols) is expected


def test_span_equal_sees_index_two_and_three_sublattices():
    # each family's basis in the other's lattice: a scaled basis row is the
    # direction the Hermite compare caught and the kernel check relies on
    base = [(1, 2, 0, -1), (0, 1, 3, 1), (0, 0, 1, 4)]
    for k in (2, 3):
        for i in range(3):
            sub = [tuple(k * x for x in row) if j == i else row for j, row in enumerate(base)]
            assert not lattice_span_equal(base, sub, 4) and not lattice_span_equal(sub, base, 4)
            assert not ref.hermite_span_equal(base, sub, 4)
    assert lattice_span_equal(base, base + [(1, 3, 3, 0)], 4)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_triangular_basis_matches_dense_reference(m):
    # the same rows, in the same order, as the dense triangular rows before:
    # only the form of the return changed
    rows, ncols = m
    basis = _triangular(_sparse_rows(rows))
    assert all(min(row) == col for col, row in basis.items())
    assert [tuple(row.get(c, 0) for c in range(ncols)) for row in basis.values()] == ref.dense_triangular(_sparse_rows(rows), ncols)


def test_span_equal_refuses_rows_of_the_wrong_length():
    with pytest.raises(ValueError, match="row length"):
        lattice_span_equal([(1, 0)], [(1, 0, 0)], 2)
