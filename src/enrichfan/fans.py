"""Fans of enriched structures: direct construction, star subdivision, quotients.

A fan is stored by its maximal cones only; all cones here are smooth and
simplicial, so faces are ray subsets and two cones agree exactly when
their ray sets do.
"""

from __future__ import annotations

import itertools

from .cones import RationalCone, _trusted_cone, closed_structure_cone
from .enriched import generic_structures
from .errors import NotStronglyConvexError
from .graphs import MultiGraph, _Value, biconnected_components, good_contraction_sequence
from .lattices import LatticeQuotient, linearly_independent, primitive


class Fan(_Value):
    """A fan given by its maximal cones (faces implicit)."""

    __slots__ = ("labels", "maximal")

    def __init__(self, labels: tuple, maximal: tuple):
        self.labels = labels
        self.maximal = maximal

    @staticmethod
    def from_cones(labels, cones) -> "Fan":
        labels = tuple(labels)
        dedup = {}
        for c in cones:
            if c.labels != labels:
                raise ValueError("all cones must live in the fan's ambient lattice")
            dedup[c.rays] = c.closure()
        # drop cones that are faces of others; only a cone with more rays can
        # have a given cone as a proper face, and those are kept first
        kept = {}  # rays -> ray set, most rays first
        for r in sorted(dedup, key=lambda r: (-len(r), r)):
            rs = frozenset(r)
            if not any(rs < k for k in itertools.takewhile(lambda k: len(k) > len(rs), kept.values())):
                kept[r] = rs
        return Fan(labels, tuple(dedup[r] for r in sorted(kept)))

    @property
    def ambient_rank(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return max((c.dim for c in self.maximal), default=0)

    def rays(self) -> tuple:
        return tuple(sorted({r for c in self.maximal for r in c.rays}))

    def contains_cone(self, cone: RationalCone) -> bool:
        rs = cone.ray_set
        return any(rs <= c.ray_set for c in self.maximal)

    def is_complete(self) -> bool:
        """Facet-pairing criterion for a pure simplicial fan.

        Complete iff every facet (one ray dropped) of every maximal cone is
        shared by exactly two maximal cones.
        """
        d = self.ambient_rank
        if any(c.dim != d for c in self.maximal):
            return False
        count = {}
        for c in self.maximal:
            for facet in itertools.combinations(c.rays, d - 1):
                count[frozenset(facet)] = count.get(frozenset(facet), 0) + 1
        return all(v == 2 for v in count.values())

    def __repr__(self):
        return f"Fan(rank={self.ambient_rank}, maximal={len(self.maximal)})"


def fan_equal(f1: Fan, f2: Fan) -> bool:
    """Equality as sets of maximal cones, under canonical ray sorting."""
    return f1.labels == f2.labels and {c.rays for c in f1.maximal} == {c.rays for c in f2.maximal}


def octant_fan(labels) -> Fan:
    """The fan of all faces of the nonnegative orthant."""
    labels = tuple(labels)
    return Fan.from_cones(labels, [coordinate_cone(labels, labels)])


def coordinate_cone(labels, subset) -> RationalCone:
    """The face of the orthant spanned by the unit vectors of ``subset``."""
    labels = tuple(labels)
    n = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    rays = [tuple(1 if j == pos[lab] else 0 for j in range(n)) for lab in subset]
    return RationalCone.from_rays(labels, rays)


def fan_of_graph(g: MultiGraph) -> Fan:
    """The fan subdividing the orthant by the closed cones of the generic
    enriched structures on ``g``."""
    return Fan.from_cones(g.edge_labels, [closed_structure_cone(eg) for eg in generic_structures(g)])


def star_subdivision(fan: Fan, tau: RationalCone) -> Fan:
    """Insert the ray summing tau's generators and rebuild the cones over tau.

    Star subdivision at a ray (or at the zero cone) regenerates the fan.
    Every cone containing tau must be smooth.
    """
    if not fan.contains_cone(tau):
        raise ValueError("tau is not a cone of the fan")
    if tau.dim <= 1:
        return fan
    u = primitive(tuple(sum(col) for col in zip(*tau.rays)))
    tau_rays = tau.ray_set
    new_cones = []
    for sigma in fan.maximal:
        if not tau_rays <= sigma.ray_set:
            new_cones.append(sigma)
            continue
        if not sigma.is_smooth():
            raise ValueError("star subdivision requires smooth cones around tau")
        # u has coefficient 1 on the dropped ray, so the swap keeps the rays
        # a lattice basis of the smooth sigma's span: no rank check is needed
        for dropped in sorted(tau_rays):
            rays = tuple(sorted([r for r in sigma.rays if r != dropped] + [u]))
            new_cones.append(_trusted_cone(fan.labels, rays))
    return Fan.from_cones(fan.labels, new_cones)


def fan_by_star_subdivision(g: MultiGraph) -> Fan:
    """Build the fan of ``g`` from the orthant by star subdivisions.

    Subdivides at the coordinate cone of every contraction target that
    :func:`good_contraction_sequence` lists, largest targets first.
    """
    labels = g.edge_labels
    fan = octant_fan(labels)
    for s, gc in good_contraction_sequence(g):
        fan = star_subdivision(fan, coordinate_cone(labels, gc.edge_labels))
    return fan


def graph_lattice_quotient(g: MultiGraph) -> LatticeQuotient:
    """Quotient of the edge lattice by the all-ones vector of every block."""
    labels = g.edge_labels
    gens = []
    for comp in biconnected_components(g):
        gens.append(tuple(1 if lab in comp.edge_labels else 0 for lab in labels))
    return LatticeQuotient.from_generators(labels, gens)


def quotient_fan(fan: Fan, lq: LatticeQuotient) -> Fan:
    """Image of a fan under a lattice quotient whose kernel is spanned by rays.

    Rays mapping to zero are dropped; the image of each cone must stay
    strongly convex (its surviving rays stay linearly independent).
    """
    if tuple(lq.labels) != fan.labels:
        raise ValueError("quotient must be defined on the fan's ambient lattice")
    qlabels = tuple(f"q{i}" for i in range(lq.quotient_rank))
    cones = []
    for c in fan.maximal:
        imgs = []
        for r in c.rays:
            img = lq.project(r)
            if any(img):
                imgs.append(primitive(img))
        if imgs and not linearly_independent(imgs):
            raise NotStronglyConvexError("projected cone contains a line")
        cones.append(_trusted_cone(qlabels, tuple(sorted(imgs))))  # independent, hence distinct
    return Fan.from_cones(qlabels, cones)
