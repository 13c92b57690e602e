"""The dual comparison map of ``enrichfan.toric`` as first written.

Kept as the reference the single-pass ``_dual_map_rows`` and the
domain-based ``relation_coordinates`` are tested against.  Every call here
recomputes the bonds of the graph: ``_dual_map_rows`` through
``_dual_bases``, and ``relation_coordinates`` once per relation.
"""

from __future__ import annotations

from enrichfan.graphs import MultiGraph, bonds, sort_labels
from enrichfan.toric import LaurentRelation


def _dual_bases(g: MultiGraph):
    """Coordinates for the sum-zero functionals on each bond and on the edges.

    A sum-zero integer vector on a set S is written in the basis
    e - f0 (f0 the least element), giving |S| - 1 coordinates.
    """
    all_bonds = bonds(g)
    domain = []  # (bond_edges, edge) pairs indexing the domain basis
    for b in all_bonds:
        edges = sort_labels(b.edges)
        domain.extend(((frozenset(b.edges), e) for e in edges[1:]))
    labels = g.edge_labels
    cod = labels[1:]  # functional basis e - e0 on the edge lattice
    return all_bonds, domain, cod


def _dual_map_rows(g: MultiGraph):
    """Rows of the dual comparison map, one per domain basis element.

    The codomain basis drops the first edge: a sum-zero functional has
    coordinates (l_e) over the remaining edges.
    """
    _, domain, cod = _dual_bases(g)
    rows = []
    for bond_edges, e in domain:
        f0 = sort_labels(bond_edges)[0]
        func = {e: 1, f0: -1}  # the functional e* - f0*, extended by zero
        row = [func.get(lab, 0) for lab in cod]
        rows.append(tuple(row))
    return domain, rows


def relation_coordinates(g: MultiGraph, rel: LaurentRelation):
    """Coordinates of a relation in the bond-functional domain basis."""
    _, domain, _ = _dual_bases(g)
    index = {pair: i for i, pair in enumerate(domain)}
    vec = [0] * len(domain)
    for bond_edges, e, exp in rel.terms:
        fs = frozenset(bond_edges)
        f0 = sort_labels(fs)[0]
        if e != f0:
            vec[index[(fs, e)]] += exp
        # the f0 component is determined by the zero-sum constraint
    return tuple(vec)
