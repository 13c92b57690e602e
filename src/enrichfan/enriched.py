"""Enriched structures on graphs: validation, enumeration, specialization.

An enriched structure on a graph is a preorder on its edge set built
recursively: a biconnected graph must have a single equivalence class
below every edge whose contraction is again enriched, and on a graph with
separating vertices the structure restricts to each block with edges of
different blocks incomparable.

One recursion core has three consumers: enumeration, validation and
location.  A graph is the tuple of vertex-index ends of its edges in
``edge_labels`` order, the form ``MultiGraph`` stores (``graphs.edge_ends``
returns it), a subgraph is a bitmask over those edge indices, and in the
core a structure on n edges is one int with row i (the edges above edge
i) at bit w*i, w = 8*ceil(n/8).  On a single block the core takes a
bottom class, contracts it and recurses on the rest; otherwise it splits
the mask with ``graphs.block_masks``.  Rows come out closed (a bottom row
is the whole current mask, block rows are ORed) and are unpacked only on
the way out.

Within one call the subproblem on the edge mask K is always G/(E∖K)
restricted to K: contracting a bottom composes with the contractions
before it, and contracting the other blocks at a block split merges no
two vertices of the kept block (a path outside a block between two of
its vertices would close a cycle through it).  So a dict scoped to one
call memoizes subproblems on the mask alone, and each carries its
contraction down: a block keeps its parent's ends, and the rest of a
bottom merges only the bottom's edges (``graphs._roots``) and remaps only
its own; a rest of loops alone, as every bottom of a theta graph leaves,
has only the discrete structure.  Nothing is cached between calls.  The
consumers differ only in the bottoms they offer: every nonempty subset
(enumeration), the rows equal to the mask (validation, which accepts when
it rebuilds the given structure) or the argmin set (location,
``_located_rows``, whose callers may share one table of each mask's
contraction and blocks between the points on one graph).  Each yields
``(bottom, spread)`` pairs, bit i of the bottom at bit w*i of its spread,
so the bottom's packed rows are ``mask * spread``; enumeration walks the
submasks of the mask's spread in step with the mask's own.

Specializations need no recursion: ``_faces`` reads the faces of the
closed structure cone into one table, lower-set mask to packed target
rows, which ``specializations`` and the gluing in ``moduli`` both read,
each contracting a lower set once, on edge indices (``graphs._contract``).
Each face's lower set comes off one table filled ray by ray, each ray is
squeezed to the surviving edges once per lower set, and a surviving edge's
target row is the squeezed least ray of the face through it.
The distinct rows, the rays, form a forest (``_parents``): each class's
parent is its least strictly larger row, and the facet that drops a
class's ray merges the class into its parent, or contracts a bottom class.
These and the core's structures are correct by construction, so they are
built on a trusted path that skips the checks of the public
``EnrichedGraph`` and ``Specialization`` constructors; the latter's,
``_specialization_failure``, runs on rows and serves ``verify``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from struct import Struct

from .errors import GroundSetMismatchError, NotABondError, UnknownLabelError
from .graphs import Bond, MultiGraph, _contract, _roots, _trusted, _Value, biconnected_components, bits, block_masks, bonds, contract, edge_ends, sort_labels
from .preorders import Preorder

_REV8 = bytes((b * 0x202020202 & 0x10884422010) % 1023 for b in range(256))  # bits reversed


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


def _rows(ends, mask: int, bottoms, memo: dict, splits: dict, merge: int = 0) -> list:
    """The packed enriched structures on the edges in ``mask`` (rows outside
    it zero) whose bottom classes come, with their spreads at the row width
    ``w``, from ``bottoms(block_mask, w)``.

    ``ends`` are the parent's, its bottom ``merge`` not yet contracted;
    ``memo`` and ``splits``, each mask's contracted ends and blocks, are
    keyed on ``mask`` alone: blocks come by least edge, so the
    contraction's vertex numbering does not matter."""
    found = memo.get(mask)
    if found is not None:
        return found
    w = (len(ends) + 7) & -8
    split = splits.get(mask) if mask & (mask - 1) else (ends, ())
    if split is None:
        loops = False
        if merge:  # the rest of a bottom: contract the bottom, remap the edges left
            root = _roots(map(ends.__getitem__, bits(merge))).get
            ends, loops = list(ends), True
            for e in bits(mask):
                u, v = ends[e]
                u, v = ends[e] = root(u, u), root(v, v)
                loops = loops and u == v
        split = splits[mask] = ends, () if loops else block_masks(ends, mask)
    ends, blocks = split
    if not blocks:  # at most one edge, or only loops: the discrete structure alone
        found = [sum(1 << (w + 1) * i for i in bits(mask))]
    elif len(blocks) == 1:
        found = []
        for bottom, spread in bottoms(mask, w):
            base = mask * spread  # row i is the whole mask for each i in the bottom
            found += [base | q for q in _rows(ends, mask & ~bottom, bottoms, memo, splits, bottom)]
    else:
        found = None
        for block in blocks:
            part = _rows(ends, block, bottoms, memo, splits)
            found = part if found is None else [a | b for a in found for b in part]
    memo[mask] = found
    return found


def _structure_rows(ends: tuple, bottoms, splits: dict = None) -> list:
    """The rows of the structures ``_rows`` builds on the graph with ``ends``, ordered."""
    return _ordered_rows(_rows(ends, (1 << len(ends)) - 1, bottoms, {}, {} if splits is None else splits), len(ends))


def _ordered_rows(found: list, n: int) -> list:
    """The packed structures ``found`` on ``n`` edges as rows, ordered as the
    sorted lists of their related pairs ``(i, j)``, ``i != j``, and so of
    label pairs.  Pair ``(i, j)`` is bit ``w*i + j``, so B, the bit reversal
    of the L packed bits less the diagonal, reads the pair set S least pair
    first; the order is that of |S| - B - (B & -B): a larger B starts with
    a smaller pair, the other terms put a list before its extensions, and
    an empty S takes 2^L for B & -B."""
    k = (n + 7) // 8
    found = [q.to_bytes(k * n, "little") for q in found]
    if len(found) > 1:
        off = sum(1 << 8 * k * n - 1 - (8 * k + 1) * i for i in range(n))

        def rank(d):
            b = int.from_bytes(d.translate(_REV8), "big") ^ off
            return b.bit_count() - b - (b & -b or 1 << 8 * k * n)

        found.sort(key=rank)
    if k < 3:  # one or two bytes a row
        return list(map(Struct(f"<{n}{'BH'[k - 1]}").unpack, found))
    return [tuple(int.from_bytes(d[i : i + k], "little") for i in range(0, k * n, k)) for d in found]


def _nonempty_submasks(mask: int, w: int):
    """Each nonempty submask of ``mask``, decreasing, with its spread: the spread's submasks decrease in step."""
    sub = mask
    spread = whole = sum(1 << w * i for i in bits(mask))
    while sub:
        yield sub, spread
        sub = (sub - 1) & mask
        spread = (spread - 1) & whole


def _bottoms_of(rows: tuple):
    """The one bottom class a given preorder allows: its rows that cover the mask."""

    def bottoms(mask, w):
        bottom = spread = 0
        for i in bits(mask):
            if rows[i] & mask == mask:
                bottom, spread = bottom | 1 << i, spread | 1 << w * i
        return ((bottom, spread),) if bottom else ()

    return bottoms


def _argmin(values: list):
    """The one bottom class a point allows: its least coordinates on the mask."""

    def bottoms(mask, w):
        lo = min(values[i] for i in bits(mask))
        bottom = spread = 0
        for i in bits(mask):
            if values[i] == lo:
                bottom, spread = bottom | 1 << i, spread | 1 << w * i
        return ((bottom, spread),)

    return bottoms


def _located_rows(ends: tuple, values, splits: dict = None) -> tuple:
    """The rows ``locate`` finds at positive integers ``values`` in edge-index order."""
    return _structure_rows(ends, _argmin(values), splits)[0]


def is_enriched(g: MultiGraph, p: Preorder) -> bool:
    """Decide the recursive conditions for ``p`` to enrich ``g``.

    The core rebuilds a structure taking each bottom class from ``p``
    itself; ``p`` is enriched exactly when that succeeds and gives ``p``
    back (any relation between different blocks is then missing).
    """
    if p.ground != g.edge_labels:
        raise GroundSetMismatchError("preorder ground set must equal the edge set")
    return _structure_rows(edge_ends(g), _bottoms_of(p.rows)) == [p.rows]


def enriched_structures(g: MultiGraph) -> list:
    """Every enriched structure on ``g``, each exactly once."""
    rows = _structure_rows(edge_ends(g), _nonempty_submasks)
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


def _parents(rows: tuple) -> dict:
    """Map each distinct row of a structure to its parent, its least strict
    superset row, or to 0 for a bottom class.  The rows are laminar (a
    bottom class's row is its whole block, the rest are rows of the
    contraction, whose blocks are disjoint and inside the blocks), so those
    holding an edge form a chain: taken largest first, a row's parent is the
    last one met holding any of its edges."""
    least, parents = [0] * len(rows), {}  # per edge, the least row met so far holding it
    for row in sorted(set(rows), key=int.bit_count, reverse=True):
        parents[row] = least[(row & -row).bit_length() - 1]
        for e in bits(row):
            least[e] = row
    return parents


def _faces(rows: tuple, facets: bool = False) -> dict:
    """The face table of the closed structure cone of the preorder with
    ``rows``, whose rays are the distinct rows: each lower-set mask mapped
    to the packed target rows of its faces, one per face, or only of its
    facets, the faces that drop one ray.

    A face's set of rays contracts the edges on none of them, a lower set,
    and orders the rest: the rays through an edge form a chain
    (``_parents``), and ``e ≼ f`` exactly when the least ray of the face
    through ``e`` passes through ``f``.
    """
    rays = sorted(set(rows), key=int.bit_count)  # least first along every chain
    n, r = len(rows), len(rays)
    through = [sum(1 << t for t, ray in enumerate(rays) if ray >> e & 1) for e in range(n)]
    if facets:  # dropping ray t leaves off the edges on no other ray
        faces = [((1 << r) - 1 - (1 << t), sum(1 << e for e, a in enumerate(through) if a == 1 << t)) for t in range(r)]
    else:
        off = [(1 << n) - 1] * (1 << r)  # the edges on no ray of each face, filled as ``moduli._mover`` fills its masks
        for face in range(1, 1 << r):
            low = face & -face
            off[face] = off[face ^ low] & ~rays[low.bit_length() - 1]
        faces = enumerate(off)
    table, groups = {}, {}
    for face, lower in faces:
        group = groups.get(lower)
        if group is None:
            gaps, least = list(bits(lower))[::-1], {}
            for t, row in enumerate(rays):
                for b in gaps:  # close the gap at each contracted edge, highest first
                    row = row >> b + 1 << b | row & (1 << b) - 1
                least[1 << t] = row
            kept = [a for e, a in enumerate(through) if not lower >> e & 1]
            group = groups[lower] = least, kept, (n - len(gaps) + 7) & -8, table.setdefault(lower, [])
        least, kept, w, targets = group
        target = 0
        for i, a in enumerate(kept):
            a &= face
            target |= least[a & -a] << w * i
        targets.append(target)
    return table


def specializations(eg: EnrichedGraph) -> list:
    """All specializations of ``eg``, the identity included: one per face
    of its closed structure cone (``_faces``).  Groups come by size of the
    contracted lower set, then by its sorted edge indices, each group in
    ``_ordered_rows`` order.
    """
    p = eg.preorder
    out = []
    for mask, targets in sorted(_faces(p.rows).items(), key=lambda item: (item[0].bit_count(), list(bits(item[0])))):
        s = p._labels_of(mask)
        target_graph = _contract(eg.graph, mask)
        for cand in Preorder._family(target_graph.edge_labels, _ordered_rows(targets, target_graph.n_edges)):
            target = object.__new__(EnrichedGraph)  # _trusted, unrolled: this runs once per face
            target.graph, target.preorder = target_graph, cand
            sp = object.__new__(Specialization)
            sp.source, sp.target, sp.contracted = eg, target, s
            out.append(sp)
    return out


def locate(g: MultiGraph, x) -> EnrichedGraph:
    """The unique enriched structure whose open cone contains ``x``.

    ``x`` maps every edge to a strictly positive rational: an ``int`` or
    anything ``Fraction`` accepts.  It is scaled to integers by the lcm of
    its denominators, which keeps every argmin set.  The bottom class of
    each block is its argmin set, and the rest recurses on the contraction.
    """
    if set(x) != set(g.edge_labels):
        raise UnknownLabelError("coordinate keys must be exactly the edge labels")
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in map(x.__getitem__, g.edge_labels)]
    scale = lcm(*(v.denominator for v in values))
    values = [v.numerator * (scale // v.denominator) for v in values]
    for e, v in zip(g.edge_labels, values):
        if v <= 0:
            raise ValueError(f"coordinate of {e!r} must be strictly positive")
    return _trusted(EnrichedGraph, graph=g, preorder=Preorder._family(g.edge_labels, [_located_rows(edge_ends(g), values)])[0])
