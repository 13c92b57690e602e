"""The variety of enriched structures of a nodal curve, as combinatorial data.

For a biconnected dual graph the variety embeds into a product of
projective spaces, one factor per bond.  This module produces the
binomial and trinomial equations of the image, the lattice-kernel
certificate that those equations generate, and the blowup-center
schedule of the birational model over projective space.

Bonds are the expensive part: each public function enumerates the bonds
of its graph once and hands that list, or the domain basis built from it,
to the helpers it calls.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GuardExceededError, NotBiconnectedError
from .graphs import (
    MultiGraph,
    biconnected_components,
    bonds,
    good_contraction_sequence,
    is_biconnected,
    label_key,
    sort_labels,
)
from .lattices import kernel_lattice, lattice_span_equal


def _require_biconnected(g: MultiGraph):
    if not is_biconnected(g):
        raise NotBiconnectedError("this operation expects a biconnected graph; split into blocks first")


def variety_dimension(g: MultiGraph) -> int:
    """Edges minus the number of blocks carrying edges."""
    return g.n_edges - len(biconnected_components(g))


@dataclass(frozen=True)
class LaurentRelation:
    """An exponent vector on (bond, edge) coordinate pairs, summing to zero
    within every bond."""

    terms: tuple  # ((bond_edges, edge, exponent), ...) canonically sorted

    def __post_init__(self):
        per_bond = {}
        for bond_edges, edge, exp in self.terms:
            if edge not in bond_edges:
                raise ValueError("exponent attached to an edge outside its bond")
            per_bond[bond_edges] = per_bond.get(bond_edges, 0) + exp
        if any(v != 0 for v in per_bond.values()):
            raise ValueError("exponents must sum to zero within each bond")

    @staticmethod
    def from_exponents(entries) -> "LaurentRelation":
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

    def negate(self) -> "LaurentRelation":
        return LaurentRelation(tuple((be, e, -x) for be, e, x in self.terms))

    def canonical(self) -> "LaurentRelation":
        """Fix the overall sign: first exponent positive."""
        if self.terms and self.terms[0][2] < 0:
            return self.negate()
        return self

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

    def rendered(self, bond_names: dict) -> str:
        lhs, rhs = [], []
        for be, e, exp in self.terms:
            name = bond_names[be]
            part = f"x_{e}^{name}" if abs(exp) == 1 else f"(x_{e}^{name})^{abs(exp)}"
            (lhs if exp > 0 else rhs).append(part)
        left = " ".join(lhs) or "1"
        right = " ".join(rhs) or "1"
        return f"{left} = {right}"


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
    """Binomial and trinomial defining relations of the bond-product image.

    Binomials: for bonds B1, B2 sharing two edges e1, e2, the cross ratio
    x_e1^B1 x_e2^B2 = x_e2^B1 x_e1^B2.  Trinomials: for B3 = B1 + B2 and
    e1 in B1 cap B3, e2 in B1 cap B2, e3 in B2 cap B3, the cycle
    x_e1^B1 x_e2^B2 x_e3^B3 = x_e2^B1 x_e3^B2 x_e1^B3.
    """
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
            rel = LaurentRelation.from_exponents(
                [(b1.edges, e1, 1), (b1.edges, e2, -1), (b2.edges, e2, 1), (b2.edges, e1, -1)]
            )
            out.add(rel.canonical())
    for be1, be2, be3 in _bond_sums(g, all_bonds):
        for e1 in sort_labels(be1 & be3):
            for e2 in sort_labels(be1 & be2):
                for e3 in sort_labels(be2 & be3):
                    rel = LaurentRelation.from_exponents(
                        [
                            (be1, e1, 1), (be1, e2, -1),
                            (be2, e2, 1), (be2, e3, -1),
                            (be3, e3, 1), (be3, e1, -1),
                        ]
                    )
                    out.add(rel.canonical())
    return sorted(out, key=_relation_key)


def _relation_key(rel: "LaurentRelation"):
    return tuple(
        (tuple(map(label_key, be)), label_key(e), x) for be, e, x in rel.terms
    )


def bond_names(g: MultiGraph) -> dict:
    """Stable display names B1, B2, ... for the bonds of ``g``."""
    return {b.sorted_edges(): f"B{i + 1}" for i, b in enumerate(bonds(g))}


def _dual_map_rows(g: MultiGraph):
    """The dual comparison map: its domain basis and one row per basis element.

    A sum-zero integer vector on a set S is written in the basis e - f0
    (f0 the least element of S), giving |S| - 1 coordinates.  The domain
    is indexed by (bond_edges, edge) pairs, edge running over each bond but
    its least edge; the codomain basis drops the first edge of the graph.
    Row (B, e) is the functional e* - f0*, extended by zero.
    """
    cod = g.edge_labels[1:]
    domain, rows = [], []
    for b in bonds(g):
        f0, *rest = b.sorted_edges()
        for e in rest:
            domain.append((b.edges, e))
            rows.append(tuple(1 if lab == e else -1 if lab == f0 else 0 for lab in cod))
    return domain, rows


def relation_coordinates(domain: list, rel: LaurentRelation):
    """Coordinates of a relation in ``domain``, the basis from ``_dual_map_rows``.

    The exponent on the least edge of a bond has no coordinate: the
    zero-sum constraint determines it.
    """
    index = {pair: i for i, pair in enumerate(domain)}
    vec = [0] * len(domain)
    for bond_edges, e, exp in rel.terms:
        fs = frozenset(bond_edges)
        if e != sort_labels(fs)[0]:
            vec[index[(fs, e)]] += exp
    return tuple(vec)


def kernel_rank(g: MultiGraph) -> int:
    """sum over bonds of (|B| - 1), minus (|E| - 1)."""
    _require_biconnected(g)
    return sum(len(b.edges) - 1 for b in bonds(g)) - (g.n_edges - 1)


def relations_generate_kernel(g: MultiGraph, max_edges: int = 8) -> bool:
    """The emitted relations span the kernel lattice of the dual map.

    The kernel is computed independently by integer normal forms; the
    relation lattice must match it exactly.  ``max_edges`` caps the check
    and its relation search alike.
    """
    _require_biconnected(g)
    if g.n_edges > max_edges:
        raise GuardExceededError(f"kernel check capped at {max_edges} edges")
    domain, rows = _dual_map_rows(g)
    kernel = kernel_lattice(rows, len(g.edge_labels) - 1)
    rels = [relation_coordinates(domain, r) for r in equations(g, max_edges)]
    if len(kernel) != len(domain) - (g.n_edges - 1):  # kernel_rank; len(domain) is the sum of |B| - 1
        return False
    return lattice_span_equal(rels, kernel, len(domain))


def torus_point_check(g: MultiGraph, seed: int = 2024, trials: int = 100) -> bool:
    """Every emitted relation holds at random nonzero rational torus points.

    Coordinates avoid 0 and +-1, so perturbing any single exponent is
    guaranteed to break at least the perturbed product.
    """
    _require_biconnected(g)
    rels = equations(g)
    rng = random.Random(seed)
    for _ in range(trials):
        point = {}
        for e in g.edge_labels:
            num = rng.choice([n for n in range(-9, 10) if n not in (-1, 0, 1)])
            den = rng.randint(2, 9)
            while abs(num) == den:
                den = rng.randint(2, 9)
            point[e] = Fraction(num, den)
        for rel in rels:
            if not rel.holds_at(point):
                return False
    return True


def mutated_evaluate(rel: LaurentRelation, point: dict, index: int = 0, bump: int = 1) -> Fraction:
    """Negative control: the relation's product with one exponent bumped.

    Valid relations evaluate to 1; with coordinates away from 0 and +-1 the
    bumped product cannot be 1.  It is taken with the bumped exponent in
    place, so it raises ZeroDivisionError exactly where the mutant does.
    """
    value = Fraction(1)
    for i, (_, e, exp) in enumerate(rel.terms):
        value *= Fraction(point[e]) ** (exp + bump if i == index else exp)
    return value


@dataclass(frozen=True)
class BlowupStage:
    cardinality: int
    centers: tuple  # (contracted_set, vanishing_coordinates) pairs


def blowup_schedule(g: MultiGraph, max_edges: int = 8) -> list:
    """Centers of the blowups of projective edge space, by contraction size.

    Stage k holds the size-k edge sets whose contraction stays biconnected;
    the center is the linear subspace where the surviving coordinates
    vanish.  Stages are nonempty and increase in cardinality.
    """
    _require_biconnected(g)
    if g.n_edges > max_edges:
        raise GuardExceededError(f"schedule capped at {max_edges} edges")
    stages = {}
    for s, gc in good_contraction_sequence(g):
        if not s:
            continue
        stages.setdefault(len(s), []).append((sort_labels(s), sort_labels(gc.edge_labels)))
    return [
        BlowupStage(
            k,
            tuple(sorted(stages[k], key=lambda t: tuple(map(label_key, t[0])))),
        )
        for k in sorted(stages)
    ]
