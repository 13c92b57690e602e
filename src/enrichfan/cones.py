"""Exact rational polyhedral cones and the cones attached to enriched structures.

Every cone produced here is simplicial and smooth: the rays are part of a
basis of the ambient lattice.  A cone carries both descriptions: primitive
integer rays of its closure, and halfspaces with a strict/weak flag each
(strict ones describe the relative interior, i.e. the open cone).

Membership is decided on integers.  Every constraint is homogeneous, so
``contains`` tests the positive integer multiple ``m * x`` of the point,
with ``m`` the lcm of the coordinates' denominators; each halfspace test
is then an ``int`` dot product.  A float coordinate counts at its exact
binary value, as it does in ``enriched.locate``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod

from .enriched import EnrichedGraph
from .lattices import (
    _echelon,
    _substitute,
    dot,
    invariant_factors,
    linearly_independent,
    primitive,
    solve_columns,
)

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


@dataclass(frozen=True)
class RationalCone:
    """A simplicial rational cone, possibly relatively open.

    ``rays`` always generate the closure; ``closed`` distinguishes the
    closed cone from its relative interior.  Halfspaces are optional and
    derived on demand; when present they cut out exactly the cone (strict
    flags included).
    """

    labels: tuple
    rays: tuple
    closed: bool = True
    halfspaces: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays")
        if self.rays and not linearly_independent(self.rays):
            raise ValueError("rays must be linearly independent (simplicial cones only)")

    @staticmethod
    def from_rays(labels, rays, closed: bool = True, halfspaces=None) -> "RationalCone":
        labels = tuple(labels)
        prim = sorted({primitive(r) for r in rays})
        return RationalCone(labels, tuple(prim), closed, tuple(halfspaces) if halfspaces else None)

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
        if self.closed:
            return self
        hs = tuple(h.weakened() for h in self.halfspaces) if self.halfspaces else None
        return RationalCone(self.labels, self.rays, True, hs)

    def h_description(self) -> tuple:
        """Halfspaces cutting out the cone; computed from the rays if absent."""
        if self.halfspaces is not None:
            return self.halfspaces
        hs = _h_from_rays(self.labels, self.rays)
        if not self.closed:
            hs = tuple(Halfspace(h.coeffs, GT) if h.rel == GE else h for h in hs)
        return hs

    def coefficients_of(self, x):
        """Exact coordinates of ``x`` in the ray basis, or None outside the span."""
        return solve_columns(self.rays, tuple(x))

    def closure_contains(self, x) -> bool:
        lam = self.coefficients_of(x)
        return lam is not None and all(v >= 0 for v in lam)

    def interior_contains(self, x) -> bool:
        """Membership in the relative interior of the closure."""
        lam = self.coefficients_of(x)
        return lam is not None and all(v > 0 for v in lam)

    def contains(self, x) -> bool:
        """Membership in the cone as described (open cones: their interior).

        Decided on the integer point ``m * x`` (see :func:`_integral`), which
        lies in the cone exactly when ``x`` does; floats count at their
        exact value.
        """
        x = _integral(x)
        if self.halfspaces is not None:
            return all(h.holds(x) for h in self.halfspaces)
        return self.closure_contains(x) if self.closed else self.interior_contains(x)

    def is_face_of(self, other: "RationalCone") -> bool:
        return self.labels == other.labels and self.ray_set <= other.ray_set

    def faces(self) -> list:
        """All faces of the closed simplicial cone, as ray subsets."""
        out = []
        for k in range(len(self.rays) + 1):
            for sub in itertools.combinations(self.rays, k):
                out.append(RationalCone(self.labels, tuple(sorted(sub))))
        return out

    def face_count(self) -> int:
        return 2 ** self.dim

    def is_smooth(self) -> bool:
        """Ray generators extend to a basis of the ambient lattice."""
        if not self.rays:
            return True
        facs = invariant_factors(self.rays, self.ambient_rank)
        return len(facs) == len(self.rays) and all(f == 1 for f in facs)

    def embedded(self, labels) -> "RationalCone":
        """Zero-extend the cone into a larger labeled ambient lattice."""
        labels = tuple(labels)
        pos = {lab: i for i, lab in enumerate(labels)}
        for lab in self.labels:
            if lab not in pos:
                raise ValueError(f"label {lab!r} missing from target ambient lattice")
        own = [pos[lab] for lab in self.labels]
        own_set = set(own)

        def put(vec):
            out = [0] * len(labels)
            for i, v in zip(own, vec):
                out[i] = v
            return tuple(out)

        rays = tuple(sorted(put(r) for r in self.rays))
        hs = None
        if self.halfspaces is not None:
            hs = [Halfspace(put(h.coeffs), h.rel) for h in self.halfspaces]
            for i in range(len(labels)):
                if i not in own_set:
                    unit = tuple(1 if j == i else 0 for j in range(len(labels)))
                    hs.append(Halfspace(unit, EQ))
            hs = tuple(hs)
        return RationalCone(labels, rays, self.closed, hs)

    def __repr__(self):
        kind = "closed" if self.closed else "open"
        return f"RationalCone({kind}, dim={self.dim}, rays={list(self.rays)})"


def _integral(x) -> tuple:
    """``m * x`` for the least positive integer ``m`` that makes it integral."""
    ratios = [v.as_integer_ratio() for v in x]
    m = lcm(*(d for _, d in ratios))
    return tuple(n * (m // d) for n, d in ratios)


def _h_from_rays(labels: tuple, rays: tuple) -> tuple:
    """Equalities cutting out span(rays) plus one facet inequality per ray.

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
        facets.append(primitive([int(dot(mu, col)) for col in zip(*top)]))
    return tuple(Halfspace(tuple(u), EQ) for u in e.u[k:]) + tuple(Halfspace(f, GE) for f in facets)


def ray_generators(eg: EnrichedGraph) -> list:
    """Ray generators of the closed structure cone: indicator vectors of the
    irreducible upper sets, which are the distinct rows of the preorder."""
    n = eg.graph.n_edges
    return sorted(tuple(row >> j & 1 for j in range(n)) for row in set(eg.preorder.rows))


def _structure_cone(eg: EnrichedGraph, closed: bool) -> RationalCone:
    """The structure cone, with constraints generated from the quotient poset.

    Equalities inside classes, one inequality per Hasse cover, positivity
    on the root classes; transitivity makes these cut out the whole cone.
    The inequalities are strict on the open cone.
    """
    labels = eg.graph.edge_labels
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    q = eg.preorder.quotient()
    first = [pos[cls[0]] for cls in q.classes]

    def diff(i, j):
        row = [0] * n
        row[i] += 1
        row[j] -= 1
        return tuple(row)

    rel = GE if closed else GT
    hs = [Halfspace(diff(pos[a], pos[b]), EQ) for cls in q.classes for a, b in zip(cls, cls[1:])]
    hs += [Halfspace(diff(first[j], first[i]), rel) for i, j in q.hasse]
    hs += [Halfspace(tuple(int(t == first[i]) for t in range(n)), rel) for i in q.roots()]
    return RationalCone(tuple(labels), tuple(ray_generators(eg)), closed, tuple(hs))


def structure_cone(eg: EnrichedGraph) -> RationalCone:
    """The relatively open cone of edge lengths realizing the structure:
    x_e < x_f exactly when e is strictly below f, equal on classes, all > 0."""
    return _structure_cone(eg, closed=False)


def closed_structure_cone(eg: EnrichedGraph) -> RationalCone:
    return _structure_cone(eg, closed=True)


def increment_matrix(eg: EnrichedGraph) -> tuple:
    """Integral change of coordinates from edge lengths to per-class increments.

    Returns ``(classes, rows)``: one row per equivalence class, mapping a
    length vector to the difference against the class's Hasse parent (the
    root classes keep their plain coordinate).  Restricted to the span of
    the structure cone this is an isomorphism onto Z^(number of classes),
    and it sends the open cone onto the strictly positive orthant.
    """
    labels = eg.graph.edge_labels
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    q = eg.preorder.quotient()
    parents = q.parents()
    rows = []
    for idx, cls in enumerate(q.classes):
        row = [0] * n
        row[pos[cls[0]]] += 1
        if idx in parents:
            row[pos[q.classes[parents[idx]][0]]] -= 1
        rows.append(tuple(row))
    return q.classes, tuple(rows)


def increment_coordinates(eg: EnrichedGraph, x) -> dict:
    """Apply :func:`increment_matrix` to a length vector given by edge label."""
    labels = eg.graph.edge_labels
    vec = [Fraction(x[lab]) for lab in labels]
    classes, rows = increment_matrix(eg)
    return {cls: dot(row, vec) for cls, row in zip(classes, rows)}


def lengths_from_increments(eg: EnrichedGraph, y) -> dict:
    """Inverse of :func:`increment_coordinates` on the structure subspace.

    ``y`` maps each class (tuple of labels) to a value; the length of an
    edge is the sum of increments along the Hasse path from its root class.
    """
    q = eg.preorder.quotient()
    parents = q.parents()
    totals = {}

    def total(idx):
        if idx not in totals:
            base = total(parents[idx]) if idx in parents else 0
            totals[idx] = base + y[q.classes[idx]]
        return totals[idx]

    out = {}
    for idx, cls in enumerate(q.classes):
        for lab in cls:
            out[lab] = total(idx)
    return out
