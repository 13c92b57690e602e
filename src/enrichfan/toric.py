"""The variety of enriched structures of a nodal curve, as combinatorial data.

For a biconnected dual graph the variety embeds into a product of
projective spaces, one factor per bond.  This module produces the
binomial and trinomial equations of the image, the lattice-kernel
certificate that those equations generate, and the blowup-center
schedule of the birational model over projective space.

A bond is a ``graphs._bond_masks`` pair of side and cut masks.  Each
public function enumerates them once and hands the list to private helpers;
a caller that runs several of them on one graph (``verify``, the CLI)
enumerates once and calls those helpers itself.  Relations are built once,
by ``_relations``, as (bond index, edge index, exponent) terms.  Bonds and
edges are both in label order, so sorting the terms sorts the labels, which
appear only where ``_equations`` and ``_bond_names`` write output.  The cut
of a disjoint union of sides is the XOR of their cuts, so ``_bond_sums``
finds B1 + B2 by XOR-ing cut masks.  Each bond of a relation gets one +1
and one -1, so relations are built unchecked.

Relations are evaluated by one loop, ``_product_is_one``, on integer
(numerator, denominator) pairs: ``LaurentRelation.holds_at`` runs it on a
point's coordinates, and the torus check on seeded points.  A torus point
gives x_e^B the value t_e for every bond B, so the torus check sums each
relation's exponents per edge first: at nonzero coordinates the product is
the same.  A relation with no net exponent holds at every torus point; if
no relation has one, no point is drawn.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import GuardExceededError, NotBiconnectedError
from .graphs import (
    MultiGraph,
    _bond_masks,
    _trusted,
    _Value,
    biconnected_components,
    bits,
    good_contraction_sequence,
    is_biconnected,
    sort_labels,
)
from .lattices import kernel_lattice, lattice_span_equal


def _require_biconnected(g: MultiGraph):
    if not is_biconnected(g):
        raise NotBiconnectedError("this operation expects a biconnected graph; split into blocks first")


def _guarded_bonds(g: MultiGraph, max_edges: int, what: str) -> list:
    """The bond masks of the biconnected ``g``, refused past ``max_edges`` edges."""
    _require_biconnected(g)
    if g.n_edges > max_edges:
        raise GuardExceededError(f"{what} capped at {max_edges} edges")
    return _bond_masks(g)


def variety_dimension(g: MultiGraph) -> int:
    """Edges minus the number of blocks carrying edges."""
    return g.n_edges - len(biconnected_components(g))


class LaurentRelation(_Value):
    """An exponent vector on (bond, edge) coordinate pairs, summing to zero
    within every bond."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms  # ((bond_edges, edge, exponent), ...) canonically sorted
        per_bond = {}
        for bond_edges, edge, exp in terms:
            if edge not in bond_edges:
                raise ValueError("exponent attached to an edge outside its bond")
            per_bond[bond_edges] = per_bond.get(bond_edges, 0) + exp
        if any(v != 0 for v in per_bond.values()):
            raise ValueError("exponents must sum to zero within each bond")

    def holds_at(self, point: dict) -> bool:
        """Whether the product of x_e^exp is 1, decided by :func:`_product_is_one`
        on each coordinate's integer ratio.  A zero coordinate under a
        negative exponent raises ZeroDivisionError."""
        ratios = {e: point[e].as_integer_ratio() for _, e, _ in self.terms}
        return _product_is_one([(e, exp) for _, e, exp in self.terms], ratios)

    def rendered(self, bond_names: dict) -> str:
        lhs, rhs = [], []
        for be, e, exp in self.terms:
            name = bond_names[be]
            part = f"x_{e}^{name}" if abs(exp) == 1 else f"(x_{e}^{name})^{abs(exp)}"
            (lhs if exp > 0 else rhs).append(part)
        left = " ".join(lhs) or "1"
        right = " ".join(rhs) or "1"
        return f"{left} = {right}"


def _product_is_one(terms, point) -> bool:
    """Whether the product of x_e^k over the ``(e, k)`` terms is 1, decided by cross-multiplying.

    The evaluation loop of ``holds_at`` and the torus check alike.
    ``point[e]`` is an integer pair ``(n, d)`` with ``x_e = n / d`` and ``d``
    nonzero, not necessarily in lowest terms.  ``top`` collects ``n^k`` for
    positive exponents and ``d^|k|`` for negative ones, ``bottom`` the same
    with ``n`` and ``d`` swapped; the product is 1 exactly when
    ``top == bottom``.  A zero ``n`` under a negative exponent raises
    ZeroDivisionError.
    """
    top = bottom = 1
    for e, k in terms:
        n, d = point[e]
        if k < 0:
            if n == 0:
                raise ZeroDivisionError(f"coordinate x_{e} is zero under a negative exponent")
            n, d, k = d, n, -k
        top *= n ** k
        bottom *= d ** k
    return top == bottom


def _bond_sums(g: MultiGraph, masks: list):
    """Index triples (i1, i2, i3) of bonds with B3 the disjoint-side sum of B1 and B2:
    B3's cut is the XOR of theirs, and some two of their sides are disjoint and
    miss a vertex.  The given sides hold vertex 0, so that is when one lies
    in the other or the two cover every vertex."""
    full = (1 << g.n_vertices) - 1
    index = {cut: i for i, (_, cut) in enumerate(masks)}
    triples = set()
    for (i1, (s1, c1)), (i2, (s2, c2)) in itertools.combinations(enumerate(masks), 2):
        i3 = index.get(c1 ^ c2)
        if i3 is not None and (not s1 & ~s2 or not s2 & ~s1 or s1 | s2 == full):
            triples.add((i1, i2, i3))
    return triples


def _relations(g: MultiGraph, masks: list) -> tuple:
    """Every relation as a sorted tuple of (bond index, edge index, exponent) terms.

    A relation's first exponent is positive, and the relations come sorted.
    No edge lies in all of B1, B2 and B1 + B2, so no two terms share a (bond, edge) pair.
    """
    cuts = [cut for _, cut in masks]
    out = set()
    for (i1, c1), (i2, c2) in itertools.combinations(enumerate(cuts), 2):
        for e1, e2 in itertools.combinations(bits(c1 & c2), 2):  # i1 < i2 and e1 < e2: sorted as built
            out.add(((i1, e1, 1), (i1, e2, -1), (i2, e1, -1), (i2, e2, 1)))
    for i1, i2, i3 in _bond_sums(g, masks):
        for e1 in bits(cuts[i1] & cuts[i3]):
            for e2 in bits(cuts[i1] & cuts[i2]):
                for e3 in bits(cuts[i2] & cuts[i3]):
                    terms = sorted(((i1, e1, 1), (i1, e2, -1), (i2, e2, 1), (i2, e3, -1), (i3, e3, 1), (i3, e1, -1)))
                    sign = 1 if terms[0][2] > 0 else -1
                    out.add(tuple((i, j, sign * x) for i, j, x in terms))
    return tuple(sorted(out))


def equations(g: MultiGraph, max_edges: int = 8) -> list:
    """Binomial and trinomial defining relations of the bond-product image.

    Binomials: for bonds B1, B2 sharing two edges e1, e2, the cross ratio
    x_e1^B1 x_e2^B2 = x_e2^B1 x_e1^B2.  Trinomials: for B3 = B1 + B2 and
    e1 in B1 cap B3, e2 in B1 cap B2, e3 in B2 cap B3, the cycle
    x_e1^B1 x_e2^B2 x_e3^B3 = x_e2^B1 x_e3^B2 x_e1^B3.
    """
    return _equations(g, _guarded_bonds(g, max_edges, "relation search"))


def _equations(g: MultiGraph, masks: list) -> list:
    labels, bond_edges = g.edge_labels, list(_bond_names(g, masks))  # each bond's sorted labels
    rels = _relations(g, masks)
    return [_trusted(LaurentRelation, terms=tuple((bond_edges[i], labels[j], x) for i, j, x in rel)) for rel in rels]


def bond_names(g: MultiGraph) -> dict:
    """Stable display names B1, B2, ... for the bonds of ``g``."""
    return _bond_names(g, _bond_masks(g))


def _bond_names(g: MultiGraph, masks: list) -> dict:
    labels = g.edge_labels
    return {tuple(map(labels.__getitem__, bits(cut))): f"B{i + 1}" for i, (_, cut) in enumerate(masks)}


def _dual_map_rows(g: MultiGraph, masks: list):
    """The dual comparison map: its domain basis and one row per basis element.

    A sum-zero integer vector on a set S is written in the basis e - f0
    (f0 the least element of S), giving |S| - 1 coordinates.  The domain
    is indexed by (bond index, edge index) pairs, edge running over each
    bond but its least edge; the codomain basis drops the first edge of the
    graph.  Row (B, e) is the functional e* - f0*, extended by zero.
    """
    domain, rows = [], []
    for i, (_, cut) in enumerate(masks):
        f0, *rest = bits(cut)
        for e in rest:
            domain.append((i, e))
            rows.append(tuple(1 if j == e else -1 if j == f0 else 0 for j in range(1, g.n_edges)))
    return domain, rows


def kernel_rank(g: MultiGraph) -> int:
    """sum over bonds of (|B| - 1), minus (|E| - 1)."""
    _require_biconnected(g)
    return _kernel_rank(g, _bond_masks(g))


def _kernel_rank(g: MultiGraph, masks: list) -> int:
    return sum(cut.bit_count() - 1 for _, cut in masks) - (g.n_edges - 1)


def relations_generate_kernel(g: MultiGraph, max_edges: int = 8) -> bool:
    """The emitted relations span the kernel lattice of the dual map.

    The kernel is computed independently by integer normal forms; the
    relation lattice must match it exactly.  ``max_edges`` caps the check
    and its relation search alike.
    """
    masks = _guarded_bonds(g, max_edges, "kernel check")
    return _generates_kernel(g, masks, *_dual_kernel(g, masks))


def _dual_kernel(g: MultiGraph, masks: list) -> tuple:
    """The domain of the dual comparison map and a basis of its kernel lattice, by integer normal forms."""
    domain, rows = _dual_map_rows(g, masks)
    return domain, kernel_lattice(rows, g.n_edges - 1)


def _generates_kernel(g: MultiGraph, masks: list, domain: list, kernel: list) -> bool:
    """Whether the relations span ``kernel``, the kernel over ``domain`` that ``_dual_kernel`` gives."""
    if len(kernel) != len(domain) - (g.n_edges - 1):  # kernel_rank; len(domain) is the sum of |B| - 1
        return False
    column = {pair: k for k, pair in enumerate(domain)}  # a bond's least edge has no coordinate
    rels = [{column[i, j]: x for i, j, x in rel if (i, j) in column} for rel in _relations(g, masks)]
    return lattice_span_equal(rels, kernel, len(domain))


def torus_point_check(g: MultiGraph, seed: int = 2024, trials: int = 100) -> bool:
    """Every emitted relation holds at random nonzero rational torus points.

    Coordinates avoid 0 and +-1, so perturbing any single exponent is
    guaranteed to break at least the perturbed product.
    """
    return _holds_at_torus_points(g.edge_labels, equations(g), seed, trials)


def _holds_at_torus_points(labels: tuple, rels: list, seed: int, trials: int) -> bool:
    """Whether every relation's net exponents per edge column hold at ``trials``
    seeded points, each a list of ``(num, den)`` pairs in ``labels`` order."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    column = {e: j for j, e in enumerate(labels)}
    indexed = []
    for rel in rels:
        net = {}
        for _, e, exp in rel.terms:
            net[column[e]] = net.get(column[e], 0) + exp
        if any(net.values()):
            indexed.append([(j, k) for j, k in net.items() if k])
    numerators = [n for n in range(-9, 10) if n not in (-1, 0, 1)]
    rng = random.Random(seed)
    for _ in range(trials if indexed else 0):
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


def mutated_evaluate(rel: LaurentRelation, point: dict, index: int = 0, bump: int = 1) -> Fraction:
    """Negative control: the relation's product with one exponent bumped.

    Valid relations evaluate to 1; with coordinates away from 0 and +-1 the
    bumped product cannot be 1.  It is taken with the bumped exponent in
    place, so it raises ZeroDivisionError exactly where the mutant does.  A
    zero ``bump`` or an ``index`` outside the terms mutates nothing: refused.
    """
    if not 0 <= index < len(rel.terms):
        raise ValueError(f"index {index} is outside the relation's {len(rel.terms)} terms")
    if bump == 0:
        raise ValueError("bump must be nonzero")
    value = Fraction(1)
    for i, (_, e, exp) in enumerate(rel.terms):
        value *= Fraction(point[e]) ** (exp + bump if i == index else exp)
    return value


class BlowupStage(_Value):
    __slots__ = ("cardinality", "centers")

    def __init__(self, cardinality: int, centers: tuple):
        self.cardinality = cardinality
        self.centers = centers  # (contracted_set, vanishing_coordinates) pairs


def blowup_schedule(g: MultiGraph, max_edges: int = 8) -> list:
    """Centers of the blowups of projective edge space, by contraction size.

    Stage k holds the size-k edge sets whose contraction stays biconnected;
    the center is the linear subspace where the surviving coordinates
    vanish.  Stages are nonempty and increase in cardinality.
    """
    _require_biconnected(g)
    if g.n_edges > max_edges:
        raise GuardExceededError(f"schedule capped at {max_edges} edges")
    stages = {}  # the sequence comes by ascending size, each size in label order
    for s, gc in good_contraction_sequence(g):
        if s:
            stages.setdefault(len(s), []).append((sort_labels(s), sort_labels(gc.edge_labels)))
    return [BlowupStage(k, tuple(centers)) for k, centers in stages.items()]
