"""Exact integer linear algebra for small lattices.

Every elimination takes the steps of one integer routine, ``_echelon``:
unimodular row operations bring a matrix to Hermite normal form H (pivots
positive, entries above each pivot reduced modulo it), optionally recording
U with U * rows = H.  A step that leaves one of its two rows unchanged
(subtracting a multiple of the pivot row below or above it) rewrites only
the other row, in H and in U.

- ``rank_of`` and ``linearly_independent`` read the rank of H.
- ``_substitute`` is one integer forward substitution over the pivots of
  H; the facets of a cone in ``cones`` come from it.
- ``lattice_span_equal`` tests mutual membership, with no Hermite form:
  ``_triangular`` brings each family's sparse rows to a basis with
  distinct leading columns, and a row lies in such a lattice exactly when
  ``_clear``, the loop that built it, reduces it to nothing.
- ``kernel_lattice`` takes the rows of U whose H-row vanishes.
- ``LatticeQuotient.from_generators`` echelons the transposed generators:
  its projection is the zero-row part of U.
- ``invariant_factors`` echelons rows and columns in turn until the matrix
  is diagonal, then normalises the diagonal by gcd and lcm (Smith form).

The matrices here have at most a few dozen rows, so plain Python integers
are fast enough and the module needs nothing beyond the standard library.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .graphs import _Value


def primitive(v) -> tuple:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(map(mul, a, b))


def _xgcd(a: int, b: int) -> tuple:
    """``(g, s, t)`` with ``s*a + t*b == g == gcd(a, b) > 0``; ``a``, ``b`` not both zero."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


class _Echelon(NamedTuple):
    rows: list  # the Hermite normal form H, nonzero rows first
    pivots: list  # pivot column of each nonzero row of H
    u: list  # unimodular U with U * input == H (tracked runs only)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _echelon(rows, ncols: int, track: bool = False) -> _Echelon:
    """Row Hermite normal form of an integer matrix by unimodular row operations.

    Pivots are positive and the entries above each pivot are reduced into
    ``[0, pivot)``, so two matrices have the same H exactly when their rows
    span the same lattice.  With ``track`` the operations are also applied
    to the rows of ``U``.  ``combine`` rewrites both rows of a step;
    ``subtract``, for a divisible elimination below the pivot and for the
    reduction above it, leaves the pivot row alone and rewrites only the
    row that changes.
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

    def subtract(r, p, q):
        # row r <- row r - q * row p; row p is unchanged, so it is not rewritten
        for mat in mats:
            mat[r] = [i - q * j for i, j in zip(mat[r], mat[p])]

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
                subtract(r, top, b // x)
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
                subtract(k, top, q)
        pivots.append(col)
    return _Echelon(h, pivots, u)


def _substitute(e: _Echelon, target) -> list:
    """Integer ``mu`` with ``(mu * H)[p] == target[p]`` at every pivot column p.

    H is in echelon form, so this is one forward substitution over its
    pivots.  The target must make ``mu`` integral, as any multiple of the
    product of the pivots does, so every division is exact.
    """
    mu = []
    for j, (row, p) in enumerate(zip(e.rows, e.pivots)):
        rest = target[p] - sum(mu[i] * e.rows[i][p] for i in range(j))
        mu.append(rest // row[p])
    return mu


def rank_of(vectors) -> int:
    """Rank over the rationals of a list of integer row vectors."""
    rows = [tuple(v) for v in vectors]
    return _echelon(rows, len(rows[0]) if rows else 0).rank


def linearly_independent(vectors) -> bool:
    vectors = list(vectors)
    return rank_of(vectors) == len(vectors)


def invariant_factors(rows, ncols: int) -> list:
    """Nonzero diagonal of the Smith normal form, each entry dividing the next.

    Row and column echelon forms alternate until the matrix is diagonal; the
    diagonal is then normalised pairwise by gcd and lcm.  Each round either
    lowers the first pivot (to the gcd of its row) or, when the pivot
    divides its row, isolates it, because ``_echelon`` leaves a pivot row
    alone while it divides the entries below; so the rounds terminate.
    """
    mat, width = rows, ncols
    while True:
        e = _echelon(mat, width)
        h = e.rows[: e.rank]
        if all(sum(1 for x in row if x) == 1 for row in h):
            break
        mat, width = list(zip(*h)), len(h)
    diag = [row[p] for row, p in zip(h, e.pivots)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag


def kernel_lattice(rows, ncols: int) -> list:
    """Basis of the saturated lattice ``{c : sum_i c_i * rows[i] = 0}``.

    With U * rows = H, the rows of U whose H-row vanishes; the lattice they
    span is saturated because U is unimodular.
    """
    e = _echelon(rows, ncols, track=True)
    return [tuple(r) for r in e.u[e.rank :]]


def lattice_span_equal(rows1, rows2, ncols: int) -> bool:
    """Whether two families of rows, each ``ncols`` entries or a sparse
    ``{column: entry}`` dict, span the same lattice: mutual membership."""
    b1, b2 = (_triangular(_sparse(r, ncols) for r in rows) for rows in (rows1, rows2))
    return not any(_clear(dict(r), b2) for r in b1.values()) and not any(_clear(dict(r), b1) for r in b2.values())


def _sparse(row, ncols: int) -> dict:
    if not isinstance(row, dict) and len(row) != ncols:
        raise ValueError("row length does not match the column count")
    return row if isinstance(row, dict) else {j: x for j, x in enumerate(row) if x}


def _triangular(rows) -> dict:
    """A basis of the lattice of sparse rows, keyed by its distinct leading columns."""
    kept = {}
    for row in rows:
        _clear(dict(row), kept, grow=True)
    return kept


def _clear(row: dict, kept: dict, grow: bool = False) -> dict:
    """Clear ``row`` in place against ``kept``, rows keyed by their distinct leading
    columns, while the row of its leading column divides its leading entry.  Each
    multiple is forced, so what is left is empty exactly when ``row`` lies in their
    lattice.  With ``grow`` the steps of ``_echelon`` extend ``kept`` to span it."""
    while row:
        col = min(row)
        top = kept.get(col)
        if top is not None and row[col] % top[col] == 0:
            q = row[col] // top[col]
            for c, w in top.items():  # row -= q * top, in place
                w = row.get(c, 0) - q * w
                if w:
                    row[c] = w
                else:
                    del row[c]
        elif not grow:
            break
        elif top is None:
            kept[col] = row
            break
        else:
            x, b = top[col], row[col]
            g, s, t = _xgcd(x, b)
            kept[col], row = _sparse_sum(s, top, t, row), _sparse_sum(-b // g, top, x // g, row)
    return row


def _sparse_sum(a: int, u: dict, b: int, v: dict) -> dict:
    """``a * u + b * v`` on sparse rows, zero entries dropped."""
    out = {c: a * u.get(c, 0) + b * v.get(c, 0) for c in u.keys() | v.keys()}
    return {c: w for c, w in out.items() if w}


class LatticeQuotient(_Value):
    """An integral surjection ``Z^labels -> Z^(n-r)`` with kernel a saturated sublattice.

    Built from the echelon form U * G^T = H of the transposed generator
    matrix: the rows of U past the rank of H kill every generator and cut
    out the saturation of their span.  U is unimodular, so they extend to a
    basis of the dual lattice and the projection is onto.
    """

    __slots__ = ("labels", "generators", "rank", "projection")

    def __init__(self, labels: tuple, generators: tuple, rank: int, projection: tuple):
        self.labels = labels
        self.generators = generators
        self.rank = rank
        self.projection = projection  # (n - r) rows of length n

    @staticmethod
    def from_generators(labels, generators) -> "LatticeQuotient":
        labels = tuple(labels)
        n = len(labels)
        gens = [tuple(int(x) for x in g) for g in generators]
        for g in gens:
            if len(g) != n:
                raise ValueError("generator length does not match the ambient rank")
        e = _echelon([[g[i] for g in gens] for i in range(n)], len(gens), track=True)
        lq = LatticeQuotient(labels, tuple(gens), e.rank, tuple(map(tuple, e.u[e.rank :])))
        if any(any(lq.project(g)) for g in gens):
            raise RuntimeError("the quotient projection does not kill every generator")
        return lq

    @property
    def quotient_rank(self) -> int:
        return len(self.labels) - self.rank

    def project(self, vec) -> tuple:
        if len(vec) != len(self.labels):
            raise ValueError("vector length does not match the ambient rank")
        return tuple(dot(row, vec) for row in self.projection)
