"""Enriched structures on graphs: validation, enumeration, specialization.

An enriched structure on a graph is a preorder on its edge set built
recursively: a biconnected graph must have a single equivalence class
below every edge whose contraction is again enriched, and on a graph with
separating vertices the structure restricts to each block with edges of
different blocks incomparable.

One recursion core has four consumers: enumeration, validation, location
and specialization.  A graph is the tuple of vertex-index ends of its
edges in ``edge_labels`` order (``graphs.edge_ends``), a subgraph is a
bitmask over those edge indices, and a structure is its tuple of preorder
rows over the same indices.  On a single block the core takes a bottom
class, contracts it (a union-find over vertex ids) and recurses; otherwise
it splits the mask with ``graphs.block_masks`` and combines the blocks'
rows.  Rows come out closed: a bottom row is the whole current mask and
block rows are ORed.  A dict scoped to one call memoizes subproblems on
the mask together with the renumbered contracted ends; nothing is cached
between calls.  The consumers differ only in the bottom classes they
offer: every nonempty subset (enumeration), the rows equal to the mask
(validation, which accepts exactly when the rebuilt rows are the given
ones), the argmin set (location), or the subsets closed downwards under
the preorder the results must contain (specialization).

Structures the core builds are correct by construction, so
``enriched_structures``, ``locate`` and ``specializations`` create their
results through a trusted path that skips the checks of the public
``EnrichedGraph`` and ``Specialization`` constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import or_

from .errors import GroundSetMismatchError, NotABondError, UnknownLabelError
from .graphs import Bond, MultiGraph, biconnected_components, bits, block_masks, bonds, contract, edge_ends, label_key, sort_labels
from .preorders import Preorder, _transpose


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` built without ``__post_init__``.

    Only for values the recursion core built, which pass those checks by
    construction.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class EnrichedGraph:
    """A graph together with an enriched structure on its edge set."""

    graph: MultiGraph
    preorder: Preorder

    def __post_init__(self):
        if self.preorder.ground != self.graph.edge_labels:
            raise GroundSetMismatchError("preorder ground set must equal the edge set")
        if not is_enriched(self.graph, self.preorder):
            raise ValueError("preorder is not an enriched structure on this graph")

    @property
    def rank(self) -> int:
        return self.preorder.rank

    def is_generic(self) -> bool:
        return self.preorder.is_partial_order()

    def contract_lower_set(self, s) -> "EnrichedGraph":
        s = frozenset(s)
        if not self.preorder.is_lower_set(s):
            raise ValueError("contraction set must be a lower set")
        rest = set(self.graph.edge_labels) - s
        return EnrichedGraph(contract(self.graph, s), self.preorder.restrict(rest))

    def relabel_edges(self, mapping) -> "EnrichedGraph":
        g = self.graph
        renamed = MultiGraph(g.vertices, {mapping[e]: g.ends(e) for e in g.edge_labels})
        return EnrichedGraph(renamed, self.preorder.relabel(mapping))


def _state(ends: tuple, keep: int, merge: int = 0) -> tuple:
    """Ends of the edges in ``keep`` once the edges in ``merge`` are contracted.

    Vertices are renumbered in order of first appearance and edges outside
    ``keep`` get ``None``, so equal subproblems reached along different
    paths get equal states.
    """
    parent = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for e in bits(merge):
        u, v = map(find, ends[e])
        if u != v:
            parent[v] = u
    out = [None] * len(ends)
    number = {}
    for e in bits(keep):
        a, b = (number.setdefault(find(x), len(number)) for x in ends[e])
        out[e] = (a, b) if a <= b else (b, a)
    return tuple(out)


def _rows(ends: tuple, mask: int, bottoms, memo: dict) -> list:
    """Rows of the enriched structures on the edges in ``mask`` whose bottom
    classes are drawn from ``bottoms(block_mask)``.

    Each result has one row per edge index of the whole graph, zero outside
    ``mask``.
    """
    key = (mask, ends)
    found = memo.get(key)
    if found is not None:
        return found
    n = len(ends)
    if mask & (mask - 1) == 0:  # at most one edge: only the discrete structure
        found = [tuple(mask if mask >> i & 1 else 0 for i in range(n))]
    else:
        blocks = block_masks(ends, mask)
        if len(blocks) == 1:
            found = []
            for bottom in bottoms(mask):
                base = tuple(mask if bottom >> i & 1 else 0 for i in range(n))
                rest = mask & ~bottom
                for rows in _rows(_state(ends, rest, bottom), rest, bottoms, memo):
                    found.append(tuple(map(or_, base, rows)))
        else:
            found = None
            for block in blocks:
                part = _rows(_state(ends, block), block, bottoms, memo)
                found = part if found is None else [tuple(map(or_, a, b)) for a in found for b in part]
    memo[key] = found
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


def _refining(rows: tuple):
    """The bottom classes a structure containing the preorder ``rows`` can
    have: the nonempty unions of the edges' down-sets within the mask."""
    below = _transpose(rows)

    def bottoms(mask):
        found = {0}
        for i in bits(mask):
            found |= {sub | below[i] & mask for sub in found}
        return found - {0}

    return bottoms


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
    return [_trusted(EnrichedGraph, graph=g, preorder=p) for p in Preorder._family(g.edge_labels, rows)]


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


@dataclass(frozen=True)
class Specialization:
    """A coarsening move: contract a lower set, then possibly merge classes."""

    source: EnrichedGraph
    target: EnrichedGraph
    contracted: frozenset

    def __post_init__(self):
        src, tgt = self.source, self.target
        if not src.preorder.is_lower_set(self.contracted):
            raise ValueError("contracted set must be a lower set of the source")
        if tgt.graph != contract(src.graph, self.contracted):
            raise ValueError("target graph must be the stated contraction")
        rest = set(src.graph.edge_labels) - self.contracted
        if not tgt.preorder.contains(src.preorder.restrict(rest)):
            raise ValueError("target preorder must refine every surviving relation")

    def is_identity(self) -> bool:
        return not self.contracted and self.target.preorder == self.source.preorder

    def is_simple(self) -> bool:
        return not self.contracted and self.target.rank == self.source.rank - 1


def specializations(eg: EnrichedGraph) -> list:
    """All specializations of ``eg``, the identity included.

    A specialization is determined by the contracted lower set together
    with the coarsened structure on the contraction.  The core builds the
    targets whose bottom classes the surviving relations allow, and drops
    those missing a surviving relation between edges of different blocks.
    """
    out = []
    for s in eg.preorder.lower_sets():
        target_graph = contract(eg.graph, s)
        surviving = eg.preorder.restrict(set(eg.graph.edge_labels) - s).rows
        found = _structure_rows(target_graph, _refining(surviving))
        kept = [rows for rows in found if all(o & ~r == 0 for r, o in zip(rows, surviving))]
        for cand in Preorder._family(target_graph.edge_labels, _canonical(kept)):
            target = _trusted(EnrichedGraph, graph=target_graph, preorder=cand)
            out.append(_trusted(Specialization, source=eg, target=target, contracted=s))
    return out


def simple_specialization(eg: EnrichedGraph, c1, c2) -> EnrichedGraph:
    """Merge two consecutive classes ``c1 < c2`` into one; rank drops by one.

    The merged relation is the transitive closure of the old one together
    with the equivalence of the two classes.
    """
    q = eg.preorder.quotient()
    i = q.class_index(min(c1, key=label_key))
    j = q.class_index(min(c2, key=label_key))
    if frozenset(q.classes[i]) != frozenset(c1) or frozenset(q.classes[j]) != frozenset(c2):
        raise UnknownLabelError("arguments must be whole equivalence classes")
    if not q.consecutive(i, j):
        raise ValueError("classes must be consecutive in the Hasse diagram")
    e1 = q.classes[i][0]
    e2 = q.classes[j][0]
    merged = EnrichedGraph(eg.graph, eg.preorder.with_pairs([(e2, e1)]))
    assert merged.rank == eg.rank - 1
    return merged


def class_inclusion(sp: Specialization) -> dict:
    """Injective map from target classes to source classes.

    A target class goes to the least source class among those meeting its
    target-equivalence bundle.
    """
    src_p = sp.source.preorder
    out = {}
    for cls in sp.target.preorder.classes():
        rep = min(cls, key=label_key)
        bundle = [e for e in sp.target.preorder.ground if sp.target.preorder.equiv(e, rep)]
        mins = [e for e in bundle if not any(src_p.lt(f, e) for f in bundle)]
        min_classes = {src_p.class_of(e) for e in mins}
        if len(min_classes) != 1:
            raise ValueError("no unique minimal source class; invariant broken")
        out[cls] = frozenset(min_classes.pop())
    if len(set(out.values())) != len(out):
        raise ValueError("class inclusion is not injective; invariant broken")
    return {frozenset(k): v for k, v in out.items()}


def locate(g: MultiGraph, x) -> EnrichedGraph:
    """The unique enriched structure whose open cone contains ``x``.

    ``x`` maps every edge to a strictly positive rational; the bottom class
    of each biconnected piece is the argmin set, and the rest recurses on
    the contraction.
    """
    if set(x) != set(g.edge_labels):
        raise UnknownLabelError("coordinate keys must be exactly the edge labels")
    values = [Fraction(x[e]) for e in g.edge_labels]
    for e, v in zip(g.edge_labels, values):
        if v <= 0:
            raise ValueError(f"coordinate of {e!r} must be strictly positive")
    (rows,) = _structure_rows(g, _argmin(values))
    return _trusted(EnrichedGraph, graph=g, preorder=Preorder._family(g.edge_labels, [rows])[0])
