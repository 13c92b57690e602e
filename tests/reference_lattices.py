"""The four ``Fraction`` eliminations that ranks, solves and cone halfspaces
ran on before they moved onto the integer echelon routine
``lattices._echelon``.

Kept verbatim as the reference the new code is tested against;
``_h_from_rays`` has lost only its unbounded ``lru_cache``, which memoized
and did not change its results.  ``solve_columns`` is also the reference
for cone membership, through ``reference_membership``.

The ``Halfspace`` constraint these functions return, and the reference
structure-cone constraints in ``reference_preorders``, is the type
``cones`` had before a cone's constraints became plain integer rows; it is
copied here verbatim, with ``halfspaces_of`` to read a cone's rows as such.

``_echelon`` is the integer routine itself as it was before its two
one-sided row operations (the divisible elimination below a pivot and the
reduction above it) rewrote only the row that changes: here they run
through ``combine``, which rebuilds both rows.  It is copied verbatim and
returns the library's ``_Echelon``.

``hermite_span_equal`` and ``dense_triangular`` are ``lattice_span_equal``
and ``_triangular`` as they were before lattice equality became mutual
membership on sparse triangular bases: the first compares the Hermite
forms of the library's ``_echelon``, the second returns its triangular rows
dense.  Both are copied verbatim, renamed, with ``_echelon`` read from the
library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from enrichfan import lattices
from enrichfan.lattices import _Echelon, _sparse_sum, _xgcd, dot, primitive

GE = ">="
GT = ">"
EQ = "=="


@dataclass(frozen=True)
class Halfspace:
    """A homogeneous constraint ``coeffs . x  rel  0``."""

    coeffs: tuple
    rel: str

    def __post_init__(self):
        if self.rel not in (GE, GT, EQ):
            raise ValueError(f"unknown relation {self.rel!r}")

    def holds(self, x) -> bool:
        v = dot(self.coeffs, x)
        if self.rel == GE:
            return v >= 0
        if self.rel == GT:
            return v > 0
        return v == 0

    def weakened(self) -> "Halfspace":
        return Halfspace(self.coeffs, GE) if self.rel == GT else self


def halfspaces_of(cone) -> tuple:
    """A cone's rows as halfspaces: the equalities, then the facets, which
    are strict on an open cone."""
    equalities, facets = cone.h_description()
    rel = GE if cone.closed else GT
    return tuple(Halfspace(r, EQ) for r in equalities) + tuple(Halfspace(r, rel) for r in facets)


def solve_columns(columns, target):
    """Solve ``sum(lam_i * columns[i]) == target`` exactly over the rationals.

    Returns the coefficient list, or None when the system is inconsistent.
    Raises ValueError if the columns are linearly dependent (solutions would
    not be unique).
    """
    k = len(columns)
    if k == 0:
        return [] if all(x == 0 for x in target) else None
    n = len(columns[0])
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("columns are linearly dependent")
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if aug[r][k] != 0:
            return None
    return [aug[i][k] for i in range(k)]


def rank_of(vectors) -> int:
    """Rank over the rationals of a list of integer/rational row vectors."""
    rows = [list(map(Fraction, v)) for v in vectors if any(v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _h_from_rays(labels: tuple, rays: tuple) -> tuple:
    """Equalities spanning the annihilator of span(rays) plus facet inequalities.

    For a simplicial cone the facet functionals are the rows of the dual
    basis (R R^T)^-1 R, cleared to primitive integer vectors.
    """
    n = len(labels)
    if not rays:
        return tuple(
            Halfspace(tuple(1 if j == i else 0 for j in range(n)), EQ) for i in range(n)
        )
    k = len(rays)
    gram = [[Fraction(dot(rays[i], rays[j])) for j in range(k)] for i in range(k)]
    inv = _invert(gram)
    duals = []
    for i in range(k):
        row = [sum(inv[i][t] * rays[t][j] for t in range(k)) for j in range(n)]
        duals.append(_clear_denominators(row))
    eqs = []
    for basis_row in _rational_kernel_rows(rays, n):
        eqs.append(Halfspace(_clear_denominators(basis_row), EQ))
    return tuple(eqs) + tuple(Halfspace(d, GE) for d in duals)


def _invert(mat):
    k = len(mat)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(k)] for i, row in enumerate(mat)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def _rational_kernel_rows(rows, ncols):
    """Basis of { y : row . y = 0 for all rows }, over the rationals."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [x / lead for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        y = [Fraction(0)] * ncols
        y[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            y[pc] = -mat[r][fc]
        basis.append(y)
    return basis


def _clear_denominators(row):
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    return primitive(tuple(int(x * den) for x in row))


def _echelon(rows, ncols: int, track: bool = False) -> _Echelon:
    """Row Hermite normal form of an integer matrix by unimodular row operations.

    Pivots are positive and the entries above each pivot are reduced into
    ``[0, pivot)``, so two matrices have the same H exactly when their rows
    span the same lattice.  With ``track`` the operations are also applied
    to the rows of ``U``.
    """
    h = [list(r) for r in rows]
    if any(len(r) != ncols for r in h):
        raise ValueError("row length does not match the column count")
    m = len(h)
    u = [[int(i == j) for j in range(m)] for i in range(m)] if track else None
    mats = (h, u) if track else (h,)

    def combine(p, r, x, y, z, w):
        # rows (p, r) <- [[x, y], [z, w]] (p, r), a matrix of determinant 1
        for mat in mats:
            a, b = mat[p], mat[r]
            mat[p] = [x * i + y * j for i, j in zip(a, b)]
            mat[r] = [z * i + w * j for i, j in zip(a, b)]

    pivots = []
    for col in range(ncols):
        top = len(pivots)
        if top == m:
            break
        for r in range(top + 1, m):
            b = h[r][col]
            if not b:
                continue
            x = h[top][col]
            if x and b % x == 0:
                combine(top, r, 1, 0, -(b // x), 1)
            else:
                g, s, t = _xgcd(x, b)
                combine(top, r, s, t, -b // g, x // g)
        pivot = h[top][col]
        if not pivot:
            continue
        if pivot < 0:
            for mat in mats:
                mat[top] = [-i for i in mat[top]]
            pivot = -pivot
        for k in range(top):
            q = h[k][col] // pivot
            if q:
                combine(k, top, 1, -q, 0, 1)
        pivots.append(col)
    return _Echelon(h, pivots, u)


def hermite_span_equal(rows1, rows2, ncols: int) -> bool:
    """Whether two integer row families span the same lattice (HNF compare)."""
    def hermite(rows):
        e = lattices._echelon(rows, ncols)
        return e.rows[: e.rank]

    return hermite(rows1) == hermite(rows2)


def dense_triangular(rows, ncols: int) -> list:
    """Sparse rows ``{column: entry}`` reduced to a generating set of their
    lattice with one row per leading column, returned dense.

    Each row is cleared against the kept row of its leading column by the
    steps of ``_echelon``: a multiple of the kept row is subtracted when its
    entry divides, otherwise the pair goes to its gcd row and a row with
    that column cleared.  So at most rank rows remain, and many sparse rows
    reach ``lattice_span_equal`` as a few.
    """
    kept = {}
    for row in map(dict, rows):
        while row:
            col = min(row)
            top = kept.get(col)
            if top is None:
                kept[col] = row
                break
            x, b = top[col], row[col]
            if b % x:
                g, s, t = _xgcd(x, b)
                kept[col], row = _sparse_sum(s, top, t, row), _sparse_sum(-b // g, top, x // g, row)
                continue
            q = b // x
            for c, w in top.items():  # row -= q * top, in place
                w = row.get(c, 0) - q * w
                if w:
                    row[c] = w
                else:
                    del row[c]
    return [tuple(row.get(c, 0) for c in range(ncols)) for row in kept.values()]
