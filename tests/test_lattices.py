import pytest
from hypothesis import given, settings, strategies as st

from enrichfan.lattices import (
    LatticeQuotient,
    invariant_factors,
    kernel_lattice,
    lattice_span_equal,
    linearly_independent,
    primitive,
    rank_of,
)


class TestPrimitive:
    def test_scaling(self):
        assert primitive((2, 4, -6)) == (1, 2, -3)
        assert primitive((0, 5, 0)) == (0, 1, 0)
        assert primitive((-3, 0)) == (-1, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive((0, 0))


class TestRank:
    def test_rank(self):
        assert rank_of([(1, 0), (0, 1)]) == 2
        assert rank_of([(1, 2), (2, 4)]) == 1
        assert rank_of([(0, 0)]) == 0
        assert linearly_independent([(1, 1, 0), (0, 1, 1)])
        assert not linearly_independent([(1, 1), (1, 1)])


class TestKernelLattice:
    def test_simple_kernel(self):
        # rows: e1, e2, e1+e2 -> kernel spanned by (1, 1, -1)
        basis = kernel_lattice([(1, 0), (0, 1), (1, 1)], 2)
        assert len(basis) == 1
        assert lattice_span_equal(basis, [(1, 1, -1)], 3)

    def test_full_rank_rows(self):
        assert kernel_lattice([(1, 0), (0, 1)], 2) == []

    def test_kernel_vectors_kill_rows(self):
        rows = [(2, 1, 0), (0, 1, 1), (2, 2, 1), (4, 4, 2)]
        for c in kernel_lattice(rows, 3):
            combo = [sum(c[i] * rows[i][j] for i in range(len(rows))) for j in range(3)]
            assert combo == [0, 0, 0]

    def test_saturated(self):
        # (2,-2) combination vanishes; the saturated kernel contains (1,-1)
        basis = kernel_lattice([(1, 1), (1, 1)], 2)
        assert lattice_span_equal(basis, [(1, -1)], 2)


class TestLatticeSpan:
    def test_equal_up_to_row_ops(self):
        assert lattice_span_equal([(1, 0), (0, 1)], [(1, 1), (0, 1)], 2)
        assert not lattice_span_equal([(2, 0), (0, 1)], [(1, 0), (0, 1)], 2)

    def test_contains(self):
        # a vector lies in the span exactly when adding it keeps the span
        rows = [(1, 1, 0), (0, 2, 1)]
        assert lattice_span_equal(rows, rows + [(1, 3, 1)], 3)
        assert not lattice_span_equal(rows, rows + [(1, 0, 0)], 3)
        assert lattice_span_equal(rows, rows + [(0, 0, 0)], 3)


class TestInvariantFactors:
    def test_unimodular_rows(self):
        assert invariant_factors([(1, 0, 0), (0, 1, 0)], 3) == [1, 1]

    def test_index_two(self):
        assert invariant_factors([(1, 0), (1, 2)], 2) == [1, 2]

    def test_zero(self):
        assert invariant_factors([], 3) == []
        assert invariant_factors([(0, 0, 0)], 3) == []


class TestLatticeQuotient:
    def test_disjoint_supports(self):
        # two component sum vectors inside Z^4
        lq = LatticeQuotient.from_generators(
            ("a", "b", "c", "d"), [(1, 1, 1, 0), (0, 0, 0, 1)]
        )
        assert lq.rank == 2 and lq.quotient_rank == 2
        assert lq.project((1, 1, 1, 0)) == (0, 0)
        assert lq.project((0, 0, 0, 1)) == (0, 0)
        # projection is surjective: its Smith form is all ones
        assert invariant_factors(lq.projection, 4) == [1, 1]

    def test_kernel_is_saturation(self):
        lq = LatticeQuotient.from_generators(("a", "b"), [(2, 2)])
        # saturation of span{(2,2)} is span{(1,1)}
        assert lq.project((1, 1)) == (0,)
        assert lq.quotient_rank == 1

    def test_trivial_quotient(self):
        lq = LatticeQuotient.from_generators(("a", "b"), [])
        assert lq.rank == 0
        assert lq.project((5, 7)) == (5, 7)

    def test_a_projection_that_keeps_a_generator_raises(self, monkeypatch):
        # the kernel check is a raise, not an assert that ``python -O`` strips
        monkeypatch.setattr(LatticeQuotient, "project", lambda self, vec: (1,))
        with pytest.raises(RuntimeError, match="does not kill every generator"):
            LatticeQuotient.from_generators(("a", "b"), [(1, 1)])


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_kernel_lattice_is_exact(rows):
    rows = [tuple(r) for r in rows]
    basis = kernel_lattice(rows, 3)
    for c in basis:
        for j in range(3):
            assert sum(c[i] * rows[i][j] for i in range(len(rows))) == 0
    assert len(basis) == len(rows) - rank_of(rows)
