"""Structure cones and their faces as they were built through the checking constructor.

``cones._structure_cone`` now reads the classes, Hasse covers and root
classes off the preorder rows, derives the rows and the comparison plan
from one list of index pairs, and hands the cone over unchecked; ``faces``
hands each ray subset over unchecked too.  The bodies below are the ones
they replaced: the structure cone built from ``Preorder.quotient`` and the
public ``RationalCone`` constructor, whose ``linearly_independent`` runs
one exact echelon on the rays, and the faces built through that same
constructor.
"""

from __future__ import annotations

import itertools

from enrichfan.cones import RationalCone, ray_generators
from enrichfan.enriched import EnrichedGraph
from reference_preorders import roots


def structure_cone(eg: EnrichedGraph, closed: bool) -> RationalCone:
    """The structure cone, with its rows generated from the quotient poset.

    Equalities inside classes, one facet per Hasse cover, positivity on the
    root classes; transitivity makes these cut out the whole cone.
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

    equalities = tuple(diff(pos[a], pos[b]) for cls in q.classes for a, b in zip(cls, cls[1:]))
    facets = [diff(first[j], first[i]) for i, j in q.hasse]
    facets += [tuple(int(t == first[i]) for t in range(n)) for i in roots(q)]
    return RationalCone(tuple(labels), tuple(ray_generators(eg)), closed, (equalities, tuple(facets)))


def faces(cone: RationalCone) -> list:
    """All faces of the closed simplicial cone, as ray subsets."""
    out = []
    for k in range(len(cone.rays) + 1):
        for sub in itertools.combinations(cone.rays, k):
            out.append(RationalCone(cone.labels, sub))
    return out
