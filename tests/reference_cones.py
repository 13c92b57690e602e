"""Structure cones and their faces as they were built through the checking constructor.

``cones._structure_cone`` now reads the classes, Hasse covers and root
classes off the preorder rows, derives the rows and the comparison plan
from one list of index pairs, and hands the cone over unchecked; ``faces``
hands each ray subset over unchecked too.  The bodies below are the ones
they replaced: the structure cone built from ``Preorder.quotient`` and the
public ``RationalCone`` constructor, whose ``linearly_independent`` runs
one exact echelon on the rays, and the faces built through that same
constructor.

``walked_structure_cone`` is ``_structure_cone`` as it was before it
read its facets off the row forest (``enriched._parents``), copied
verbatim but for its name: it walks the rows largest first itself and
builds the integer rows at once, not on first read.
"""

from __future__ import annotations

import itertools

from enrichfan.cones import RationalCone, _indicators, _trusted_cone, _unit_row, ray_generators
from enrichfan.enriched import EnrichedGraph
from enrichfan.graphs import bits
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


def walked_structure_cone(eg: EnrichedGraph, closed: bool) -> RationalCone:
    """The structure cone, read off the preorder rows.

    A class is the set of edges sharing one row, taken in order of its
    first edge.  The distinct rows are laminar (a bottom class's row is its
    whole block, and the rest are rows of the contraction, whose blocks are
    disjoint and inside the blocks), so each class has one Hasse facet: a
    cover by the class of its least strict superset row, the last one met
    when rows come largest first, or positivity when no row holds it.  The
    comparisons are equalities inside classes and these facets, grouped by
    lower class and then by upper class, roots last; transitivity makes
    them cut out the whole cone.  One list of pairs ``(i, j)``, reading
    ``x[i] - x[j]`` with index ``n`` reading 0, gives both the integer rows
    and the comparison plan.  The rays are the distinct rows as 0/1
    vectors: principal upper sets of distinct classes, unitriangular in any
    linear extension, so independent and not rechecked.
    """
    rows = eg.preorder.rows
    n = len(rows)
    members = {}  # distinct row -> its edges, in order of first edge
    for i, row in enumerate(rows):
        members.setdefault(row, []).append(i)
    least = [n] * n  # per edge, the first edge of the least row met so far holding it
    covers = []  # (first edge of the lower class or n, first edge of the class)
    for row in sorted(members, key=int.bit_count, reverse=True):
        f = members[row][0]
        covers.append((least[f], f))
        for e in bits(row):
            least[e] = f
    equalities = tuple((a, b) for cls in members.values() for a, b in zip(cls, cls[1:]))
    plan = (equalities, tuple((j, i) for i, j in sorted(covers)))
    h = tuple(tuple(_unit_row(i, j, n) for i, j in pairs) for pairs in plan)
    return _trusted_cone(eg.graph.edge_labels, tuple(_indicators(members, n)), closed, h, plan)
