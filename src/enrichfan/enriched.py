"""Enriched structures on graphs: validation, enumeration, specialization.

An enriched structure on a graph is a preorder on its edge set built
recursively: a biconnected graph must have a single equivalence class
below every edge whose contraction is again enriched, and on a graph with
separating vertices the structure restricts to each block with edges of
different blocks incomparable.

One recursion core has three consumers: enumeration, validation and
location.  A graph is the tuple of vertex-index ends of its edges in
``edge_labels`` order (``graphs.edge_ends``), a subgraph is a bitmask over
those edge indices, and a structure is its tuple of preorder rows over the
same indices.  On a single block the core takes a bottom class, contracts
it and recurses on the rest; otherwise it splits the mask with
``graphs.block_masks`` and combines the blocks' rows.  Rows come out
closed: a bottom row is the whole current mask and block rows are ORed.

Within one call the subproblem on the edge mask K is always G/(E∖K)
restricted to K.  Contracting a bottom composes with the contractions
before it.  At a block split, contracting the other blocks instead of
deleting them merges no two vertices of the kept block: a path outside a
block between two of its vertices would close a cycle through the block,
against its maximality.  So a dict scoped to one call memoizes
subproblems on the mask alone, and only a miss of two or more edges
merges the ends of the edges outside K with the one union-find,
``graphs._roots``; nothing is cached between calls.  The consumers differ
only in the bottom classes they offer: every nonempty subset
(enumeration), the rows equal to the mask (validation, which accepts
exactly when the rebuilt rows are the given ones) or the argmin set
(location).

Specializations need no recursion: each is read off a face of the closed
structure cone.  These and the structures the core builds are correct by
construction, so ``enriched_structures``, ``locate`` and ``specializations``
build their results on a trusted path that skips the checks of the public
``EnrichedGraph`` and ``Specialization`` constructors; the latter's check,
``_specialization_failure``, runs on rows and serves ``verify`` too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import or_

from .errors import GroundSetMismatchError, NotABondError, UnknownLabelError
from .graphs import Bond, MultiGraph, _roots, _Value, biconnected_components, bits, block_masks, bonds, contract, edge_ends, sort_labels
from .preorders import Preorder


def _trusted(cls, **fields):
    """An instance of the value class ``cls`` with its slots set to ``fields``,
    built without the checks of its constructor.

    Only for values the recursion core or a face reading built, which pass
    those checks by construction.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        setattr(obj, name, value)
    return obj


class EnrichedGraph(_Value):
    """A graph together with an enriched structure on its edge set."""

    __slots__ = ("graph", "preorder")

    def __init__(self, graph: MultiGraph, preorder: Preorder):
        self.graph = graph
        self.preorder = preorder
        if not is_enriched(graph, preorder):
            raise ValueError("preorder is not an enriched structure on this graph")

    @property
    def rank(self) -> int:
        return self.preorder.rank

    def is_generic(self) -> bool:
        return self.preorder.is_partial_order()


def _rows(ends: tuple, mask: int, bottoms, memo: dict) -> list:
    """Rows of the enriched structures on the edges in ``mask`` whose bottom
    classes are drawn from ``bottoms(block_mask)``.

    ``ends`` are the whole graph's.  The subproblem is G/(E∖mask)
    restricted to ``mask`` however it was reached (a bottom's contraction
    composes with the earlier ones, and contracting the other blocks
    merges no two vertices of a block), so ``memo`` is keyed on ``mask``
    alone and the contraction runs only on a miss.  Blocks come ordered by
    their least edge, so the vertex numbering of the contraction does not
    matter.  Each result has one row per edge index of the whole graph,
    zero outside ``mask``.
    """
    found = memo.get(mask)
    if found is not None:
        return found
    n = len(ends)
    if mask & (mask - 1) == 0:  # at most one edge: only the discrete structure
        found = [tuple(mask if mask >> i & 1 else 0 for i in range(n))]
    else:
        root = _roots(map(ends.__getitem__, bits(((1 << n) - 1) & ~mask))).get
        blocks = block_masks([(root(u, u), root(v, v)) for u, v in ends], mask)
        if len(blocks) == 1:
            found = []
            for bottom in bottoms(mask):
                base = tuple(mask if bottom >> i & 1 else 0 for i in range(n))
                for rows in _rows(ends, mask & ~bottom, bottoms, memo):
                    found.append(tuple(map(or_, base, rows)))
        else:
            found = None
            for block in blocks:
                part = _rows(ends, block, bottoms, memo)
                found = part if found is None else [tuple(map(or_, a, b)) for a in found for b in part]
    memo[mask] = found
    return found


def _structure_rows(g: MultiGraph, bottoms) -> list:
    ends = edge_ends(g)
    return _rows(ends, (1 << len(ends)) - 1, bottoms, {})


def _nonempty_submasks(mask: int):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _bottoms_of(rows: tuple):
    """The one bottom class a given preorder allows: its rows that cover the mask."""

    def bottoms(mask):
        bottom = 0
        for i in bits(mask):
            if rows[i] & mask == mask:
                bottom |= 1 << i
        return (bottom,) if bottom else ()

    return bottoms


def _argmin(values: list):
    """The one bottom class a point allows: its least coordinates on the mask."""

    def bottoms(mask):
        lo = min(values[i] for i in bits(mask))
        return (sum(1 << i for i in bits(mask) if values[i] == lo),)

    return bottoms


def is_enriched(g: MultiGraph, p: Preorder) -> bool:
    """Decide the recursive conditions for ``p`` to enrich ``g``.

    The core rebuilds a structure taking each bottom class from ``p``
    itself; ``p`` is enriched exactly when that succeeds and gives ``p``
    back (any relation between different blocks is then missing).
    """
    if p.ground != g.edge_labels:
        raise GroundSetMismatchError("preorder ground set must equal the edge set")
    return _structure_rows(g, _bottoms_of(p.rows)) == [p.rows]


def _canonical(found: list) -> list:
    """Structure rows in the order of their sorted lists of related pairs.

    Edges are indexed in ``label_key`` order, so the index pairs ``(i, j)``,
    ``i != j``, sort as the label pairs do; they are compared as bytes,
    built once per distinct row."""
    pair_bytes = [
        {row: bytes([x for j in bits(row & ~(1 << i)) for x in (i, j)]) for row in set(column)}
        for i, column in enumerate(zip(*found))
    ]
    return sorted(found, key=lambda rows: b"".join([t[r] for t, r in zip(pair_bytes, rows)]))


def enriched_structures(g: MultiGraph) -> list:
    """Every enriched structure on ``g``, each exactly once."""
    rows = _canonical(_structure_rows(g, _nonempty_submasks))
    out = []
    for p in Preorder._family(g.edge_labels, rows):  # _trusted, unrolled: this runs once per structure
        eg = object.__new__(EnrichedGraph)
        eg.graph = g
        eg.preorder = p
        out.append(eg)
    return out


def generic_structures(g: MultiGraph) -> list:
    return [eg for eg in enriched_structures(g) if eg.is_generic()]


def canonical_structure(g: MultiGraph) -> EnrichedGraph:
    """All edges of each block equivalent, blocks incomparable."""
    pairs = []
    for c in biconnected_components(g):
        pairs.extend((a, b) for a in c.edge_labels for b in c.edge_labels if a != b)
    return EnrichedGraph(g, Preorder.from_relations(g.edge_labels, pairs))


def bond_minima(eg: EnrichedGraph, b: Bond) -> frozenset:
    """Edges of the bond lying below every edge of the bond.

    Nonempty for every bond of an enriched graph; this is the lower set the
    bond inherits from the structure.
    """
    if b.graph != eg.graph or b.edges != eg.graph.cut_edges(b.side):
        raise NotABondError("not a bond of this enriched graph")
    p = eg.preorder
    t = frozenset(e for e in b.edges if all(p.leq(e, f) for f in b.edges))
    if not t:
        raise ValueError("enriched structure admits no bond minimum; invariant broken")
    return t


def from_bond_collection(g: MultiGraph, t) -> EnrichedGraph:
    """The enriched structure generated by ``e ≼ e'`` for e in T_B, e' in B.

    ``t`` maps every bond of ``g`` (keyed by its frozen edge set or by a
    Bond) to a nonempty subset of that bond.
    """
    table = {}
    for key, val in t.items():
        edges = key.edges if isinstance(key, Bond) else frozenset(key)
        table[edges] = frozenset(val)
    pairs = []
    for b in bonds(g):
        if b.edges not in table:
            raise KeyError(f"missing entry for bond {sort_labels(b.edges)}")
        chosen = table[b.edges]
        if not chosen:
            raise ValueError(f"empty subset for bond {sort_labels(b.edges)}")
        if not chosen <= b.edges:
            raise UnknownLabelError("chosen subset must lie inside its bond")
        pairs.extend((e, f) for e in chosen for f in b.edges if e != f)
    return EnrichedGraph(g, Preorder.from_relations(g.edge_labels, pairs))


def _specialization_failure(rows: tuple, mask: int, target: EnrichedGraph, contracted: MultiGraph):
    """Why contracting the edges in ``mask`` of the structure with ``rows``
    (giving the graph ``contracted``) and coarsening the rest does not give
    ``target``, or None when it does.  Target edge ``j`` is survivor ``kept[j]``."""
    kept = [i for i in range(len(rows)) if not mask >> i & 1]
    if any(rows[i] & mask for i in kept):
        return "contracted set must be a lower set of the source"
    if target.graph != contracted:
        return "target graph must be the stated contraction"
    gaps = list(bits(mask))
    for i, row in zip(kept, target.preorder.rows):  # rows[i] lies among the survivors, mask being a lower set
        for b in gaps:  # lift: open a zero bit at each contracted edge, lowest first
            row = (row >> b << (b + 1)) | (row & ((1 << b) - 1))
        if rows[i] & ~row:
            return "target preorder must refine every surviving relation"
    return None


class Specialization(_Value):
    """A coarsening move: contract a lower set, then possibly merge classes."""

    __slots__ = ("source", "target", "contracted")

    def __init__(self, source: EnrichedGraph, target: EnrichedGraph, contracted: frozenset):
        self.source = source
        self.target = target
        self.contracted = s = frozenset(contracted)
        p = source.preorder
        failure = _specialization_failure(p.rows, p._mask(s), target, contract(source.graph, s))
        if failure:
            raise ValueError(failure)

    def is_identity(self) -> bool:
        return not self.contracted and self.target.preorder == self.source.preorder


def specializations(eg: EnrichedGraph) -> list:
    """All specializations of ``eg``, the identity included: one per face
    of its closed structure cone, whose rays are the distinct rows.

    A face's set of rays contracts the edges on none of them, a lower set,
    and orders the rest: ``e ≼ f`` exactly when every ray of the face
    through ``e`` passes through ``f``.  Groups come in ``lower_sets``
    order, each in ``_canonical`` order.
    """
    p = eg.preorder
    rays = list(set(p.rows))
    through = [sum(1 << t for t, ray in enumerate(rays) if ray >> e & 1) for e in range(len(p.rows))]
    groups = {}
    for face in range(1 << len(rays)):
        on = [r & face for r in through]  # the face's rays through each edge
        kept = [a for a in on if a]
        target = tuple(sum(1 << j for j, b in enumerate(kept) if a & ~b == 0) for a in kept)
        groups.setdefault(sum(1 << e for e, a in enumerate(on) if not a), []).append(target)
    out = []
    for s in p.lower_sets():
        target_graph = contract(eg.graph, s)
        for cand in Preorder._family(target_graph.edge_labels, _canonical(groups[p._mask(s)])):
            target = _trusted(EnrichedGraph, graph=target_graph, preorder=cand)
            out.append(_trusted(Specialization, source=eg, target=target, contracted=s))
    return out


def locate(g: MultiGraph, x) -> EnrichedGraph:
    """The unique enriched structure whose open cone contains ``x``.

    ``x`` maps every edge to a strictly positive rational: an ``int`` or
    anything ``Fraction`` accepts.  The point is scaled to integers by the
    lcm of its denominators, a positive factor that keeps every argmin set,
    so the comparisons are on ints.  The bottom class of each biconnected
    piece is the argmin set, and the rest recurses on the contraction.
    """
    if set(x) != set(g.edge_labels):
        raise UnknownLabelError("coordinate keys must be exactly the edge labels")
    values = [v if isinstance(v, int) else Fraction(v) for v in map(x.__getitem__, g.edge_labels)]
    scale = lcm(*(v.denominator for v in values))
    values = [v.numerator * (scale // v.denominator) for v in values]
    for e, v in zip(g.edge_labels, values):
        if v <= 0:
            raise ValueError(f"coordinate of {e!r} must be strictly positive")
    (rows,) = _structure_rows(g, _argmin(values))
    return _trusted(EnrichedGraph, graph=g, preorder=Preorder._family(g.edge_labels, [rows])[0])
