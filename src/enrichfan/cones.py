"""Exact rational polyhedral cones and the cones attached to enriched structures.

Every cone produced here is simplicial and smooth: the rays are part of a
basis of the ambient lattice.  A cone carries both descriptions: primitive
integer rays of its closure, and integer rows ``(equalities, facets)``
cutting it out.  A point lies in the closed cone when every equality row
vanishes on it and every facet row is ``>= 0``; in the relatively open cone
the facet rows are ``> 0``.

When every row is a comparison (one ``+1`` and at most one ``-1``, or a single
``-1``), as a structure cone's rows are, membership compares coordinates by
cross-multiplying numerators and denominators (both positive), which skips
the ``numbers.Rational`` check of ``Fraction``'s comparisons; other cones
test the sign of each row on the point.  Coordinates are taken exactly:
floats at their exact values, inf and NaN refused.

Membership takes one path.  ``contains`` hands a point of the right length
with only ``int`` and ``Fraction`` coordinates straight to ``_meets``, and any
other point through ``_exact``, which checks its length and converts it or
refuses it; ``containing`` makes the point exact and scales it to integers
once, then calls ``_meets`` on every cone.  ``_meets`` is the one membership
loop: it reads the comparison plan from its slot, working it out only on
first use, and stops at the first comparison that fails.

The public constructor checks that the rays are independent with one exact
echelon.  Cones independent by construction skip it through ``_trusted_cone``:
a structure cone, read off its preorder rows with its comparison plan, one
facet per class from the row forest (``enriched._parents``), and its rows
built from the plan on first read; every face of a cone, whose rays are a
subset of independent rays; and the star-subdivision and quotient cones of
``fans``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod

from .enriched import EnrichedGraph, _parents
from .graphs import _Value
from .lattices import _echelon, _substitute, dot, invariant_factors, linearly_independent, primitive


class RationalCone(_Value):
    """A simplicial rational cone, possibly relatively open.

    ``rays``, kept sorted, generate the closure; ``closed`` distinguishes
    the closed cone from its relative interior.  ``rows`` is the pair
    ``(equalities, facets)`` of integer rows cutting out the closure; when
    absent it is built on first read from a comparison plan handed over, or
    else derived from the rays the first time membership is asked.  Neither
    ``rows`` nor the comparison plan takes part in equality or hashing.
    """

    __slots__ = ("labels", "rays", "closed", "_rows", "_plan")

    def __init__(self, labels: tuple, rays: tuple, closed: bool = True, rows: tuple = None):
        rays = tuple(sorted(rays))
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate rays")
        if rays and not linearly_independent(rays):
            raise ValueError("rays must be linearly independent (simplicial cones only)")
        self.labels = labels
        self.rays = rays
        self.closed = closed
        self._rows = rows
        self._plan = None

    def _key(self) -> tuple:
        return (self.labels, self.rays, self.closed)

    @staticmethod
    def from_rays(labels, rays, closed: bool = True) -> "RationalCone":
        return RationalCone(tuple(labels), tuple({primitive(r) for r in rays}), closed)

    @property
    def dim(self) -> int:
        return len(self.rays)

    @property
    def ambient_rank(self) -> int:
        return len(self.labels)

    @property
    def ray_set(self) -> frozenset:
        return frozenset(self.rays)

    def closure(self) -> "RationalCone":
        """The closed cone on the same rays, keeping the rows and the comparison plan."""
        if self.closed:
            return self
        return _trusted_cone(self.labels, self.rays, True, self._rows, self._plan)

    @property
    def rows(self):
        if self._rows is None and self._plan:
            self._rows = tuple(tuple(_unit_row(i, j, len(self.labels)) for i, j in pairs) for pairs in self._plan)
        return self._rows

    def h_description(self) -> tuple:
        """``(equalities, facets)``: integer rows cutting out the closure."""
        if self.rows is None:
            self._rows = _h_from_rays(self.labels, self.rays)
        return self._rows

    def _comparisons(self):
        """Rows as pairs ``(i, j)`` reading ``x[i] - x[j]`` (index ``n`` reads 0); False if one is no comparison."""
        if self._plan is None:
            plan = tuple(tuple(_comparison(row, len(self.labels)) for row in rows) for rows in self.h_description())
            self._plan = all(None not in pairs for pairs in plan) and plan
        return self._plan

    def _meets(self, x) -> bool:
        """Membership of the exact point ``x`` from :func:`_exact`; the one membership loop."""
        plan = self._plan
        if plan is None:
            plan = self._comparisons()
        if not plan:
            equalities, facets = ([dot(row, x) for row in rows] for rows in self.h_description())
            return not any(equalities) and all(v >= 0 if self.closed else v > 0 for v in facets)
        equalities, facets = plan
        for i, j in equalities:
            a, b = x[i], x[j]
            if a.numerator * b.denominator != b.numerator * a.denominator:
                return False
        if self.closed:
            for i, j in facets:
                a, b = x[i], x[j]
                if a.numerator * b.denominator < b.numerator * a.denominator:
                    return False
        else:
            for i, j in facets:
                a, b = x[i], x[j]
                if a.numerator * b.denominator <= b.numerator * a.denominator:
                    return False
        return True

    def contains(self, x) -> bool:
        """Membership in the cone as described (open cones: their interior).

        A point of the right length with only ``int`` and ``Fraction``
        coordinates is already exact and goes straight to :meth:`_meets`;
        any other goes through :func:`_exact`, which checks and converts it.
        """
        n = len(self.labels)
        if len(x) == n:
            for v in x:
                if type(v) is not Fraction and type(v) is not int:
                    break
            else:
                return self._meets([*x, 0])
        return self._meets(_exact(x, n))

    def is_face_of(self, other: "RationalCone") -> bool:
        return self.labels == other.labels and self.ray_set <= other.ray_set

    def faces(self) -> list:
        """All faces of the closed simplicial cone, as ray subsets.

        A subset of sorted, independent rays is sorted and independent, so
        each face is built unchecked.
        """
        return [
            _trusted_cone(self.labels, sub)
            for k in range(len(self.rays) + 1)
            for sub in itertools.combinations(self.rays, k)
        ]

    def face_count(self) -> int:
        return 2 ** self.dim

    def is_smooth(self) -> bool:
        """Ray generators extend to a basis of the ambient lattice."""
        if not self.rays:
            return True
        facs = invariant_factors(self.rays, self.ambient_rank)
        return len(facs) == len(self.rays) and all(f == 1 for f in facs)

    def __repr__(self):
        kind = "closed" if self.closed else "open"
        return f"RationalCone({kind}, dim={self.dim}, rays={list(self.rays)})"


def _trusted_cone(labels: tuple, rays: tuple, closed: bool = True, rows=None, plan=None) -> RationalCone:
    """A cone on ``rays`` known to be sorted, distinct and independent,
    with its slots set directly instead of through the echelon check."""
    cone = object.__new__(RationalCone)
    cone.labels = labels
    cone.rays = rays
    cone.closed = closed
    cone._rows = rows
    cone._plan = plan
    return cone


def _comparison(row, n: int):
    """``(i, j)`` with ``row . x == x[i] - x[j]``, index ``n`` reading 0; None if ``row`` is no comparison."""
    if sorted(filter(None, row)) in ([-1], [1], [-1, 1]):
        return row.index(1) if 1 in row else n, row.index(-1) if -1 in row else n


def _exact(x, rank: int) -> list:
    """``x``, checked for length, as ``int`` and ``Fraction`` coordinates (as given if all are), then a 0."""
    if len(x) != rank:
        raise ValueError(f"point has {len(x)} coordinates, the ambient lattice has {rank}")
    if {int, Fraction}.issuperset(map(type, x)):
        return [*x, 0]
    return [v if isinstance(v, (int, Fraction)) else Fraction(*v.as_integer_ratio()) for v in x] + [0]


def containing(cones, x) -> list:
    """Indices of the cones (each as described) that contain ``x``.

    The cones share one ambient lattice, as the cones of one graph or one
    fan do, so ``x`` is checked against the first cone's, made exact and
    scaled to integers by the lcm of its denominators once, unless that is
    1.  Every row is homogeneous, so a positive factor keeps each sign and
    each verdict.
    """
    if not cones:
        return []
    x = _exact(x, len(cones[0].labels))
    scale = lcm(*(v.denominator for v in x))
    if scale != 1:
        x = [v.numerator * (scale // v.denominator) for v in x]
    return [i for i, cone in enumerate(cones) if cone._meets(x)]


def _h_from_rays(labels: tuple, rays: tuple) -> tuple:
    """Equalities cutting out span(rays) plus one facet row per ray.

    With U * R^T = H, the rows of U past the rank annihilate every ray and
    span the saturated annihilator: they are the equalities.  The top block
    of H is upper triangular with determinant d, so forward substitution
    against ``d * e_i`` gives an integral ``mu`` whose functional
    ``mu * U_top`` (the first k rows of U) is d on ray i and 0 on the
    others: the facet opposite ray i, made primitive.
    """
    n, k = len(labels), len(rays)
    e = _echelon([[r[j] for r in rays] for j in range(n)], k, track=True)
    top = e.u[:k]
    d = prod(row[p] for row, p in zip(e.rows, e.pivots))
    facets = []
    for i in range(k):
        mu = _substitute(e, [d * (j == i) for j in range(k)])
        facets.append(primitive([dot(mu, col) for col in zip(*top)]))
    return tuple(map(tuple, e.u[k:])), tuple(facets)


_DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to 0/1 bytes, for bytes.translate


def _indicators(rows, n: int) -> list:
    """The bitmask ``rows`` as sorted 0/1 vectors of length ``n``, read off their binary digits."""
    return sorted(tuple(format(row, "b").zfill(n)[::-1].encode().translate(_DIGITS)) for row in rows)


def ray_generators(eg: EnrichedGraph) -> list:
    """Ray generators of the closed structure cone: indicator vectors of the
    irreducible upper sets, which are the distinct rows of the preorder."""
    return _indicators(set(eg.preorder.rows), eg.graph.n_edges)


def _unit_row(i: int, j: int, n: int) -> tuple:
    """The integer row reading ``x[i] - x[j]``, index ``n`` reading 0."""
    row = [0] * (n + 1)
    row[i] = 1
    row[j] = -1
    return tuple(row[:n])


def _structure_cone(eg: EnrichedGraph, closed: bool) -> RationalCone:
    """The structure cone, read off the preorder rows.

    A class is the set of edges sharing one row, taken in order of its
    first edge.  Each class has one facet from the row forest
    (``enriched._parents``): a cover by its parent, or positivity for a
    bottom class.  The comparisons, equalities inside classes and these
    facets grouped by lower and then upper class, roots last, cut out the
    whole cone by transitivity.  They are the comparison plan, pairs
    ``(i, j)`` reading ``x[i] - x[j]`` with index ``n`` reading 0, which
    the integer rows are built from on first read.  The rays are the
    distinct rows as 0/1 vectors: principal upper sets of distinct classes,
    unitriangular in any linear extension, so independent and not rechecked.
    """
    rows = eg.preorder.rows
    n = len(rows)
    members = {}  # distinct row -> its edges, in order of first edge
    for i, row in enumerate(rows):
        members.setdefault(row, []).append(i)
    equalities = tuple((a, b) for cls in members.values() for a, b in zip(cls, cls[1:]))
    covers = sorted([(members[parent][0] if parent else n, members[row][0]) for row, parent in _parents(rows).items()])
    plan = (equalities, tuple((j, i) for i, j in covers))
    return _trusted_cone(eg.graph.edge_labels, tuple(_indicators(members, n)), closed, None, plan)


def structure_cone(eg: EnrichedGraph) -> RationalCone:
    """The relatively open cone of edge lengths realizing the structure:
    x_e < x_f exactly when e is strictly below f, equal on classes, all > 0."""
    return _structure_cone(eg, closed=False)


def closed_structure_cone(eg: EnrichedGraph) -> RationalCone:
    return _structure_cone(eg, closed=True)


def increment_matrix(eg: EnrichedGraph) -> tuple:
    """Integral change of coordinates from edge lengths to per-class increments.

    Returns ``(classes, rows)``: per class, the closed cone's facet with its
    ``+1`` on the class's first edge, the difference against the Hasse parent
    (root classes keep their plain coordinate).  Restricted to the span of
    the structure cone this is an isomorphism onto Z^(number of classes),
    and it sends the open cone onto the strictly positive orthant.
    """
    labels = eg.graph.edge_labels
    classes = eg.preorder.quotient().classes
    by_plus = {row.index(1): row for row in closed_structure_cone(eg).rows[1]}
    return classes, tuple(by_plus[labels.index(cls[0])] for cls in classes)


def increment_coordinates(eg: EnrichedGraph, x) -> dict:
    """Apply :func:`increment_matrix` to a length vector given by edge label."""
    labels = eg.graph.edge_labels
    vec = [Fraction(x[lab]) for lab in labels]
    classes, rows = increment_matrix(eg)
    return {cls: dot(row, vec) for cls, row in zip(classes, rows)}
