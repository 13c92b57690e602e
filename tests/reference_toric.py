"""The relation search and the dual comparison map of ``enrichfan.toric`` as
first written.

Kept as the reference the index-built ``equations`` and ``_dual_map_rows``
are tested against.  Here every relation is built on labels: each candidate
goes through ``from_exponents``, which sorts its terms by ``label_key``, and
the relations are sorted by ``_relation_key``.  Every call recomputes the
bonds of the graph: ``_dual_map_rows`` through ``_dual_bases``, and
``relation_coordinates`` once per relation.

``_holds_at_torus_points`` is the torus check as it was before it shared
one evaluation loop with ``holds_at``: it builds a dict of ``Fraction``
coordinates per draw, and the numerator list once per coordinate.
``holds_at`` is ``LaurentRelation.holds_at`` from then, cross-multiplying
each coordinate's lowest terms.  Both are copied verbatim, ``self`` made
the first argument of ``holds_at`` and the torus check calling it where it
called ``rel.holds_at``.

``cut_scan_bond_sums`` and ``term_holds_at_torus_points`` are the index
``_bond_sums`` and the torus check as they were before the bond sums came
from XOR-ing edge masks and the torus check from net exponents: the first
scans the four side pairs of each bond pair and takes the cut of their union
on labels, the second evaluates every term of every relation at each seeded
point.  Both are copied verbatim, renamed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from enrichfan.errors import GuardExceededError
from enrichfan.graphs import MultiGraph, bonds, label_key, sort_labels
from enrichfan.toric import LaurentRelation, _product_is_one, _require_biconnected


def from_exponents(entries) -> LaurentRelation:
    """The relation with the summed exponents of ``entries``, terms in label order."""
    acc = {}
    for bond_edges, edge, exp in entries:
        key = (tuple(sort_labels(bond_edges)), edge)
        acc[key] = acc.get(key, 0) + exp
    terms = tuple(
        sorted(
            ((be, e, x) for (be, e), x in acc.items() if x != 0),
            key=lambda t: (tuple(map(label_key, t[0])), label_key(t[1])),
        )
    )
    return LaurentRelation(terms)


def negate(rel: LaurentRelation) -> LaurentRelation:
    return LaurentRelation(tuple((be, e, -x) for be, e, x in rel.terms))


def canonical(rel: LaurentRelation) -> LaurentRelation:
    """Fix the overall sign: first exponent positive."""
    if rel.terms and rel.terms[0][2] < 0:
        return negate(rel)
    return rel


def _bond_sums(g: MultiGraph, all_bonds: list):
    """Triples (B1, B2, B3) of bond edge sets with B3 the disjoint-side sum."""
    bond_by_edges = {b.edges: b for b in all_bonds}
    triples = set()
    for b1, b2 in itertools.combinations(bond_by_edges.values(), 2):
        for s1 in (b1.side, b1.complement_side):
            for s2 in (b2.side, b2.complement_side):
                if s1 & s2 or s1 | s2 == frozenset(g.vertices):
                    continue
                cut = g.cut_edges(s1 | s2)
                if cut in bond_by_edges and cut not in (b1.edges, b2.edges):
                    triples.add((b1.edges, b2.edges, cut))
    return triples


def equations(g: MultiGraph, max_edges: int = 8) -> list:
    """Binomial and trinomial defining relations of the bond-product image."""
    _require_biconnected(g)
    if g.n_edges > max_edges:
        raise GuardExceededError(f"relation search capped at {max_edges} edges")
    if g.n_edges < 2:
        return []
    out = set()
    all_bonds = bonds(g)
    for b1, b2 in itertools.combinations(all_bonds, 2):
        common = b1.edges & b2.edges
        for e1, e2 in itertools.combinations(sort_labels(common), 2):
            rel = from_exponents(
                [(b1.edges, e1, 1), (b1.edges, e2, -1), (b2.edges, e2, 1), (b2.edges, e1, -1)]
            )
            out.add(canonical(rel))
    for be1, be2, be3 in _bond_sums(g, all_bonds):
        for e1 in sort_labels(be1 & be3):
            for e2 in sort_labels(be1 & be2):
                for e3 in sort_labels(be2 & be3):
                    rel = from_exponents(
                        [
                            (be1, e1, 1), (be1, e2, -1),
                            (be2, e2, 1), (be2, e3, -1),
                            (be3, e3, 1), (be3, e1, -1),
                        ]
                    )
                    out.add(canonical(rel))
    return sorted(out, key=_relation_key)


def _relation_key(rel: LaurentRelation):
    return tuple(
        (tuple(map(label_key, be)), label_key(e), x) for be, e, x in rel.terms
    )


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


def holds_at(self, point: dict) -> bool:
    """Whether the product of x_e^exp is 1, decided by cross-multiplying.

    With ``x_e = n_e / d_e`` in lowest terms, ``top`` collects ``n_e^k``
    for positive exponents and ``d_e^|k|`` for negative ones, ``bottom``
    the same with ``n_e`` and ``d_e`` swapped; the relation holds exactly
    when ``top == bottom``.  A zero coordinate under a negative exponent
    raises ZeroDivisionError.
    """
    top = bottom = 1
    for _, e, exp in self.terms:
        n, d = point[e].as_integer_ratio()
        if exp < 0:
            if n == 0:
                raise ZeroDivisionError(f"coordinate x_{e} is zero under a negative exponent")
            n, d, exp = d, n, -exp
        top *= n ** exp
        bottom *= d ** exp
    return top == bottom


def _holds_at_torus_points(labels: tuple, rels: list, seed: int, trials: int) -> bool:
    rng = random.Random(seed)
    for _ in range(trials):
        point = {}
        for e in labels:
            num = rng.choice([n for n in range(-9, 10) if n not in (-1, 0, 1)])
            den = rng.randint(2, 9)
            while abs(num) == den:
                den = rng.randint(2, 9)
            point[e] = Fraction(num, den)
        for rel in rels:
            if not holds_at(rel, point):
                return False
    return True


def cut_scan_bond_sums(g: MultiGraph, all_bonds: list):
    """Index triples (i1, i2, i3) of bonds with B3 the disjoint-side sum of B1 and B2."""
    index = {b.edges: i for i, b in enumerate(all_bonds)}
    vertices = frozenset(g.vertices)
    triples = set()
    for (i1, b1), (i2, b2) in itertools.combinations(enumerate(all_bonds), 2):
        for s1 in (b1.side, b1.complement_side):
            for s2 in (b2.side, b2.complement_side):
                if s1 & s2 or s1 | s2 == vertices:
                    continue
                i3 = index.get(g.cut_edges(s1 | s2))
                if i3 is not None and i3 not in (i1, i2):
                    triples.add((i1, i2, i3))
    return triples


def term_holds_at_torus_points(labels: tuple, rels: list, seed: int, trials: int) -> bool:
    """Whether every relation holds at ``trials`` seeded points ``num / den``.

    The relations are indexed by edge column once, and each point is a list
    of ``(num, den)`` pairs in ``labels`` order, read by :func:`_product_is_one`.
    """
    column = {e: j for j, e in enumerate(labels)}
    indexed = [tuple((column[e], exp) for _, e, exp in rel.terms) for rel in rels]
    numerators = [n for n in range(-9, 10) if n not in (-1, 0, 1)]
    rng = random.Random(seed)
    for _ in range(trials):
        point = []
        for _ in labels:
            num = rng.choice(numerators)
            den = rng.randint(2, 9)
            while abs(num) == den:
                den = rng.randint(2, 9)
            point.append((num, den))
        for terms in indexed:
            if not _product_is_one(terms, point):
                return False
    return True
