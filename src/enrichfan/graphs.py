"""Labeled multigraphs: contraction, blocks, bonds, weights and automorphisms.

Vertex ids and edge labels are opaque immutable ids (strings or ints).
Contraction never relabels an edge, so the edge set of a contracted graph
is literally a subset of the original's.  All values are immutable after
construction and every operation is a pure function.

A graph stores the sorted vertex-index pair of each edge, in label order
(``edge_ends``); the public accessors attach the labels.  Every vertex
merge is decided by one union-find on vertex indices, ``_roots``:
contraction and its weights, connected components, the connectivity of a
bond's two sides (``_bond_masks``, which finds every bond as a pair of
side and cut masks that ``toric`` computes on and ``bonds`` wraps) and the
enumeration core's contractions (``enriched._rows``, each in its parent's
ends) all read the classes it returns.  ``_contract`` contracts an edge
mask and renumbers the kept vertices, filling the slots unchecked as the
constructor does (``_fill``); ``contract`` is its wrapper on labels.

Weighted-graph isomorphism is decided by one search over ordered vertex
partitions, ``_canonical_orderings``, capped at ``SEARCH_NODES`` nodes: it
gives the canonical key that ``moduli`` files its census and frames under,
and the orderings attaining it, from which ``_edge_maps`` reads every
isomorphism as the edge-index map ``moduli`` moves rows with;
``weighted_isomorphisms`` and ``automorphisms`` attach the labels.
"""

from __future__ import annotations

import itertools

from .errors import DisconnectedGraphError, GuardExceededError, NotABondError, UnknownEdgeError, UnknownVertexError

Label = str | int
SEARCH_NODES = 109_601  # the vertex placements of an unsplit 8-vertex search: the sum of 8!/(8 - k)!


def label_key(x: Label):
    """Total order on mixed int/str ids: ints first, then strings."""
    if isinstance(x, bool):
        raise TypeError("booleans are not valid ids")
    if isinstance(x, int):
        return (0, x, "")
    return (1, 0, str(x))


def sort_labels(xs) -> tuple:
    return tuple(sorted(xs, key=label_key))


def _trusted(cls, **fields):
    """An instance of ``cls`` with its slots set to ``fields``, skipping its
    constructor's checks: only for values correct by construction."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        setattr(obj, name, value)
    return obj


class _Value:
    """Equality, hash and repr of an immutable value class, read off its fields.

    A subclass lists its fields in ``__slots__``, in constructor order.
    Instances of one class are equal when their ``_key`` tuples are (every
    field, unless a subclass leaves some out), which also give the hash.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class MultiGraph:
    """A multigraph with loops and globally unique, stable edge labels."""

    __slots__ = ("_vertices", "_vset", "_labels", "_ends", "_index", "_hash")

    def __init__(self, vertices, edges):
        """Build a graph from vertex ids and a ``label -> (u, v)`` mapping; ``u == v`` is a loop."""
        vs = sort_labels(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        pairs = {}
        for label, (u, v) in edges.items():
            if label in pairs:
                raise ValueError(f"duplicate edge label {label!r}")
            if u not in index:
                raise UnknownVertexError(f"unknown vertex {u!r}")
            if v not in index:
                raise UnknownVertexError(f"unknown vertex {v!r}")
            u, v = sorted((u, v), key=label_key)  # a bool id raises, as in ``sort_labels``
            pairs[label] = tuple(sorted((index[u], index[v])))
        labels = sort_labels(pairs)
        _fill(self, vs, labels, tuple(map(pairs.__getitem__, labels)))

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edge_labels(self) -> tuple:
        return self._labels

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return len(self._labels)

    def ends(self, label: Label) -> tuple:
        try:
            u, v = self._ends[self._index[label]]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {label!r}") from None
        return self._vertices[u], self._vertices[v]

    def is_loop(self, label: Label) -> bool:
        u, v = self.ends(label)
        return u == v

    def loops(self) -> tuple:
        return tuple(e for e, (u, v) in zip(self._labels, self._ends) if u == v)

    def incident(self, v) -> tuple:
        """Edges at ``v`` as ``(label, other_end)`` pairs; loops appear once."""
        if v not in self._vset:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        i, vs = self._vertices.index(v), self._vertices
        return tuple((e, vs[b if a == i else a]) for e, (a, b) in zip(self._labels, self._ends) if i in (a, b))

    def valence(self, v) -> int:
        """Number of edge ends at ``v``; a loop contributes 2."""
        return sum(2 if w == v else 1 for _, w in self.incident(v))

    def connected_components(self) -> tuple:
        """Vertex sets of the connected components, in order of their least vertex."""
        root = _roots(self._ends)
        comps = {}
        for i, v in enumerate(self._vertices):
            comps.setdefault(root.get(i, i), set()).add(v)
        return tuple(map(frozenset, comps.values()))

    def is_connected(self) -> bool:
        return len(self._vertices) <= 1 or len(self.connected_components()) == 1

    def cut_edges(self, side) -> frozenset:
        """Edges with exactly one endpoint in ``side``."""
        side = frozenset(side)
        inside = [v in side for v in self._vertices]
        return frozenset(e for e, (u, v) in zip(self._labels, self._ends) if inside[u] != inside[v])

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._labels == other._labels and self._ends == other._ends

    def __hash__(self):
        return self._hash

    def __repr__(self):
        vs = self._vertices
        es = ", ".join(f"{e}:{vs[u]}-{vs[v]}" for e, (u, v) in zip(self._labels, self._ends))
        return f"MultiGraph([{', '.join(map(str, vs))}], {{{es}}})"


def _fill(g: MultiGraph, vertices: tuple, labels: tuple, ends: tuple) -> MultiGraph:
    """Set the slots of ``g`` from its sorted vertices, its sorted labels and
    each edge's sorted vertex-index pair in label order; unchecked."""
    g._vertices = vertices
    g._vset = frozenset(vertices)
    g._labels = labels
    g._ends = ends
    g._index = {e: i for i, e in enumerate(labels)}
    g._hash = hash((vertices, labels, ends))
    return g


def _roots(pairs) -> dict:
    """Merge the vertex indices joined by each pair; the one union-find.  Maps each
    vertex that the pairs join to a smaller one onto the least vertex of its class;
    a vertex left out is the least of its class."""
    parent = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for u, v in pairs:
        u, v = find(u), find(v)
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    for v in parent:
        parent[v] = find(v)
    return parent


def contraction_classes(g: MultiGraph, s) -> dict:
    """Map each vertex of ``g`` to its representative in ``g/s``, the least id of its class."""
    vs = g.vertices
    root = _roots(map(g._ends.__getitem__, bits(_edge_mask(g, s))))
    return {v: vs[root.get(i, i)] for i, v in enumerate(vs)}


def contract(g: MultiGraph, s) -> MultiGraph:
    """The graph ``g/s``: contract every edge in ``s`` (a loop is deleted), keeping all other labels."""
    return _contract(g, _edge_mask(g, s))


def _edge_mask(g: MultiGraph, s) -> int:
    s = frozenset(s)
    list(map(g.ends, s))  # an unknown label raises UnknownEdgeError
    return sum(1 << g._index[e] for e in s)


def _contract(g: MultiGraph, mask: int, reps=None) -> MultiGraph:
    """``g`` with the edges in ``mask`` contracted: built unchecked, each class
    of merged vertices kept as its least and the kept vertices renumbered.
    ``reps`` is ``_roots`` of the contracted edges, merged here unless given."""
    ends = g._ends
    if reps is None:
        reps = _roots(map(ends.__getitem__, bits(mask)))
    to, vertices = [], []  # each vertex's index in the contraction, and the kept ones
    for i, v in enumerate(g._vertices):
        if i in reps:
            to.append(to[reps[i]])
        else:
            to.append(len(vertices))
            vertices.append(v)
    kept, pairs = list(bits((1 << len(ends)) - 1 & ~mask)), []
    for u, v in map(ends.__getitem__, kept):
        u, v = to[u], to[v]
        pairs.append((u, v) if u <= v else (v, u))
    return _fill(object.__new__(MultiGraph), tuple(vertices), tuple(map(g._labels.__getitem__, kept)), tuple(pairs))


def bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edge_ends(g: MultiGraph) -> tuple:
    """The ends of each edge as sorted vertex indices, in ``edge_labels`` order, as stored.

    Vertices are indexed in ``vertices`` order, so edge ``i`` of the result
    is ``g.edge_labels[i]`` and a bitmask over these indices is a subgraph.
    """
    return g._ends


def block_masks(ends, mask: int) -> list:
    """The blocks of the subgraph formed by the edges in ``mask``, as edge masks.

    ``ends[i]`` is the vertex pair of edge ``i``.  Each loop is its own
    block; parallel edges are distinct, so a pair of them forms a cycle and
    lies in one block.  Blocks are ordered by their least edge index.
    """
    blocks = []
    adj = {}
    for e in bits(mask):
        u, v = ends[e]
        if u == v:
            blocks.append(1 << e)
        else:
            adj.setdefault(u, []).append((e, v))
            adj.setdefault(v, []).append((e, u))
    disc, low = {}, {}
    used = 0
    edge_stack = []
    clock = 0
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, entry, it = stack[-1]
            for e, w in it:
                if used >> e & 1:
                    continue
                used |= 1 << e
                edge_stack.append(e)
                if w not in disc:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, e, iter(adj[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] >= disc[pv]:
                        block = 0
                        while True:
                            e = edge_stack.pop()
                            block |= 1 << e
                            if e == entry:
                                break
                        blocks.append(block)
        assert not edge_stack
    blocks.sort(key=lambda b: b & -b)
    return blocks


def biconnected_components(g: MultiGraph) -> list:
    """The blocks of ``g`` as subgraphs, as ``block_masks`` finds them: their
    edge sets partition ``E(g)``, and isolated vertices yield no block."""
    labels = g.edge_labels
    out = []
    for block in block_masks(edge_ends(g), (1 << len(labels)) - 1):
        edges = {labels[i]: g.ends(labels[i]) for i in bits(block)}
        out.append(MultiGraph({v for uv in edges.values() for v in uv}, edges))
    return out


def is_biconnected(g: MultiGraph) -> bool:
    """Connected, at least one edge, loop-free, and a single block; a lone loop is
    *not* biconnected here, as a loop belongs to no bond."""
    return g.is_connected() and _one_block(g)


def _one_block(g: MultiGraph) -> bool:
    """At least one edge, loop-free, and the edges form a single block; isolated vertices are allowed."""
    return g.n_edges > 0 and not g.loops() and len(block_masks(edge_ends(g), (1 << g.n_edges) - 1)) == 1


def good_contraction_sequence(g: MultiGraph) -> list:
    """All contractions of ``g`` whose target's edges form one loop-free
    block, ordered by non-increasing target edge count.

    A target may keep isolated vertices, as on a graph with several
    components; a connected graph's targets are its biconnected ones.
    Returns ``(contracted_set, target_graph)`` pairs, ties in the canonical
    order of the contracted sets.  Each subset is decided on vertex indices
    by ``_roots`` and ``block_masks``; only a kept one is contracted, on
    that same merge.
    """
    labels, ends = g.edge_labels, edge_ends(g)
    entries = []
    for k in range(len(ends)):
        for sub in itertools.combinations(range(len(ends)), k):
            reps = _roots(map(ends.__getitem__, sub))
            kept = [(reps.get(u, u), reps.get(v, v)) for i, (u, v) in enumerate(ends) if i not in sub]
            if all(u != v for u, v in kept) and len(block_masks(kept, (1 << len(kept)) - 1)) == 1:
                entries.append((frozenset(map(labels.__getitem__, sub)), _contract(g, sum(1 << i for i in sub), reps)))
    return entries


class Bond(_Value):
    """A minimal cut ``E(V, V^c)`` with a distinguished side ``V``; both sides are connected.

    Bonds are equal when they share the graph, the side and the edge set; use
    :meth:`canonical` to identify complementary sides.
    """

    __slots__ = ("graph", "side", "edges")

    def __init__(self, graph: MultiGraph, side: frozenset, edges: frozenset):
        self.graph = graph
        self.side = side
        self.edges = edges
        if not side <= graph._vset:
            raise NotABondError("side contains unknown vertices")
        if not side or side == graph._vset:
            raise NotABondError("a bond needs a nontrivial vertex bipartition")
        cut = graph.cut_edges(side)
        # the edges off the cut leave two classes exactly when both sides are connected
        if len(_roots(uv for e, uv in zip(graph.edge_labels, edge_ends(graph)) if e not in cut)) != graph.n_vertices - 2:
            raise NotABondError("both sides of a bond must induce connected subgraphs")
        if edges != cut:
            raise NotABondError("edge set does not match the cut of the given side")

    @staticmethod
    def from_side(g: MultiGraph, side) -> "Bond":
        side = frozenset(side)
        return Bond(g, side, g.cut_edges(side))

    @property
    def complement_side(self) -> frozenset:
        return frozenset(self.graph.vertices) - self.side

    def complement(self) -> "Bond":
        return Bond(self.graph, self.complement_side, self.edges)

    def canonical(self) -> "Bond":
        """The representative whose side contains the smallest vertex id."""
        v0 = self.graph.vertices[0]
        return self if v0 in self.side else self.complement()

    def sorted_edges(self) -> tuple:
        return sort_labels(self.edges)

    def __repr__(self):
        return f"Bond(side={{{', '.join(map(str, sort_labels(self.side)))}}}, edges={{{', '.join(map(str, self.sorted_edges()))}}})"


def _bond_masks(g: MultiGraph) -> list:
    """The bonds of a connected graph as ``(side, cut)`` vertex and edge masks, by
    ascending cut edge indices (sorted-label order): each side holding vertex 0
    whose edges off the cut leave two classes under ``_roots``, as in :class:`Bond`."""
    if not g.is_connected():
        raise DisconnectedGraphError("bonds are defined for connected graphs")
    ends, n = edge_ends(g), len(g._vertices)
    found = []
    for side in range(1, (1 << n) - 1, 2):
        crossing = [(side >> u ^ side >> v) & 1 for u, v in ends]
        if len(_roots(uv for uv, c in zip(ends, crossing) if not c)) == n - 2:
            found.append((side, sum(c << i for i, c in enumerate(crossing))))
    found.sort(key=lambda b: tuple(bits(b[1])))
    return found


def bonds(g: MultiGraph) -> list:
    """All bonds of a connected graph, one canonical representative each, as
    ``_bond_masks`` finds them."""
    vs, labels = g._vertices, g._labels
    return [
        _trusted(Bond, graph=g, side=frozenset(map(vs.__getitem__, bits(side))), edges=frozenset(map(labels.__getitem__, bits(cut))))
        for side, cut in _bond_masks(g)
    ]


class WeightedGraph:
    """A multigraph with a nonnegative integer weight on every vertex."""

    __slots__ = ("graph", "_weights")

    def __init__(self, graph: MultiGraph, weights):
        w = dict(weights)
        if set(w) != set(graph.vertices):
            raise UnknownVertexError("weight function must be defined on exactly the vertex set")
        for v, x in w.items():
            if not isinstance(x, int) or x < 0:
                raise ValueError(f"weight of {v!r} must be a nonnegative integer")
        self.graph = graph
        self._weights = w

    def weight(self, v) -> int:
        try:
            return self._weights[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    @property
    def weights(self) -> dict:
        return dict(self._weights)

    def total_weight(self) -> int:
        return sum(self._weights.values())

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.graph == other.graph and self._weights == other._weights

    def __hash__(self):
        return hash((self.graph, tuple(sorted(self._weights.items(), key=lambda t: label_key(t[0])))))

    def __repr__(self):
        ws = ", ".join(f"{v}:{w}" for v, w in sorted(self._weights.items(), key=lambda t: label_key(t[0])))
        return f"WeightedGraph({self.graph!r}, {{{ws}}})"


def genus(wg: WeightedGraph) -> int:
    """Total weight plus the first Betti number of a connected graph."""
    if not wg.graph.is_connected():
        raise DisconnectedGraphError("genus is defined for connected graphs")
    return wg.total_weight() + wg.graph.n_edges - wg.graph.n_vertices + 1


def is_stable(wg: WeightedGraph) -> bool:
    """Every weight-0 vertex has valence at least 3 (loops count twice)."""
    return all(wg.weight(v) > 0 or wg.graph.valence(v) >= 3 for v in wg.graph.vertices)


def contracted_weights(wg: WeightedGraph, s) -> dict:
    """The genus-preserving weights on the vertices of ``contract(wg.graph, s)``.

    The merged vertex of a class C gets ``sum of weights + |s_C| - |C| + 1``
    where ``s_C`` is the contracted edges inside C; this adds 1 for every
    independent cycle collapsed (in particular +1 per contracted loop).
    """
    return _contract_weighted(wg, _edge_mask(wg.graph, s))._weights


def _contract_weighted(wg: WeightedGraph, mask: int) -> WeightedGraph:
    """``contract`` and ``contracted_weights`` on edge indices, off one union-find; built unchecked."""
    ends = wg.graph._ends
    reps = _roots(map(ends.__getitem__, bits(mask)))
    vs, weights = wg.graph._vertices, {}
    for i, v in enumerate(vs):
        r = vs[reps.get(i, i)]
        weights[r] = weights.get(r, 1) + wg._weights[v] - 1
    for e in bits(mask):
        weights[vs[reps.get(ends[e][0], ends[e][0])]] += 1
    return _trusted(WeightedGraph, graph=_contract(wg.graph, mask, reps), _weights=weights)


class EdgePermutation(_Value):
    """A permutation of edge labels induced by a weighted-graph automorphism; its vertex map is left out of equality and hash."""

    __slots__ = ("edge_map", "vertex_map")

    def __init__(self, edge_map: tuple, vertex_map: tuple):
        self.edge_map = edge_map
        self.vertex_map = vertex_map

    def _key(self) -> tuple:
        return (self.edge_map,)

    def as_dict(self) -> dict:
        return dict(self.edge_map)

    def compose(self, other: "EdgePermutation") -> "EdgePermutation":
        """``self`` after ``other``."""
        om, sm = other.as_dict(), self.as_dict()
        ov, sv = dict(other.vertex_map), dict(self.vertex_map)
        return EdgePermutation(
            tuple(sorted(((a, sm[b]) for a, b in om.items()), key=lambda t: label_key(t[0]))),
            tuple(sorted(((a, sv[b]) for a, b in ov.items()), key=lambda t: label_key(t[0]))),
        )

    def is_identity(self) -> bool:
        return all(a == b for a, b in self.edge_map)


def _canonical_orderings(weights: tuple, ends) -> tuple:
    """The canonical key of a weighted graph on vertex indices, and every ordering giving it.

    ``weights[i]`` is the weight of vertex ``i`` and ``ends`` holds the
    vertex-index ends of every edge.  Under an ordering ``pos`` (vertex
    ``i`` goes to ``pos[i]``) the encoding is the reordered weights and the
    sorted tuple of renumbered, sorted ends; the key is the least encoding.
    Returns ``(key, orderings)``, the orderings in ``itertools.permutations``
    order.  The pair tuple is least where the row-major sequence of the
    upper-triangular multiplicity matrix is greatest, so the search fills
    positions in turn from ordered cells, the weight classes first: placing
    a vertex splits each later cell by multiplicity to it, larger first,
    fixing its row, and a branch whose rows fall below the best is cut
    (McKay and Piperno, "Practical graph isomorphism II", 2014).  Past
    ``SEARCH_NODES`` vertex placements it raises ``GuardExceededError``.
    """
    if not weights:
        return ((), ()), [()]
    n = len(weights)
    mult = [[0] * n for _ in weights]
    for u, v in ends:
        mult[u][v] += 1
        mult[v][u] += 1  # so a loop counts twice, as in the valence
    best, found, nodes = [], [], 1  # best[d]: the greatest row at position d so far

    def place(placed, first, later):  # each vertex of the cell ``first`` next, then the cells ``later``
        nonlocal nodes
        depth = len(placed)
        nodes += len(first)
        if nodes > SEARCH_NODES:
            raise GuardExceededError(f"isomorphism search passed {SEARCH_NODES} nodes")
        for v in first:
            counts, rest = mult[v], first.copy()
            rest.remove(v)
            row, cells = [counts[v]], []  # v's row, in the order the split cells give
            for cell in (rest, *later):
                if len(cell) == 1:
                    row.append(counts[cell[0]])
                    cells.append(cell)
                elif cell:
                    cells.append([])
                    for x in sorted(cell, key=counts.__getitem__, reverse=True):
                        if cells[-1] and counts[x] != row[-1]:
                            cells.append([])
                        cells[-1].append(x)
                        row.append(counts[x])
            if depth == len(best):
                best.append(row)
            elif row != best[depth]:
                if row < best[depth]:
                    continue
                best[depth:] = [row]
                found.clear()
            if cells:
                place(placed + [v], cells[0], cells[1:])
            else:
                found.append(tuple(sorted(range(n), key=(placed + [v]).__getitem__)))

    classes = {}
    for v, w in enumerate(weights):
        classes.setdefault(w, []).append(v)
    first, *later = map(classes.get, sorted(classes))
    place([], first, later)
    found.sort()
    pos = found[0]
    key = tuple(sorted([(pos[u], pos[v]) if pos[u] <= pos[v] else (pos[v], pos[u]) for u, v in ends]))
    return (tuple(sorted(weights)), key), found


def _edge_maps(wg1: WeightedGraph, wg2: WeightedGraph) -> list:
    """Every edge bijection induced by an isomorphism ``wg1 -> wg2``, on indices.

    Returns ``(edges, images)`` pairs sorted by ``edges``: edge ``i`` of
    ``wg1`` goes to edge ``edges[i]`` of ``wg2`` and vertex ``i`` to vertex
    ``images[i]``.  An isomorphism takes ``wg1`` to ``wg2``'s canonical key
    along one of ``wg1``'s key orderings and back along the first of
    ``wg2``'s, carrying each parallel class onto its image in every order;
    an edge map over several vertex bijections keeps the least images.
    """
    ends1, ends2 = wg1.graph._ends, wg2.graph._ends
    key1, found = _canonical_orderings(tuple(map(wg1._weights.__getitem__, wg1.graph._vertices)), ends1)
    key2, found2 = (key1, found) if wg2 is wg1 else _canonical_orderings(tuple(map(wg2._weights.__getitem__, wg2.graph._vertices)), ends2)
    if key1 != key2:
        return []
    classes1, classes2 = {}, {}
    for i, pair in enumerate(ends1):
        classes1.setdefault(pair, []).append(i)
    for i, (u, v) in enumerate(ends2):
        classes2[v, u] = classes2.setdefault((u, v), [])  # either way round
        classes2[u, v].append(i)
    order = [i for src in classes1.values() for i in src]  # the classes' edges in turn
    slot = sorted(range(len(order)), key=order.__getitem__)  # edge i is order[slot[i]]
    back = sorted(range(len(found2[0])), key=found2[0].__getitem__)  # the vertex at each position
    seen = {}
    for pos in found:
        images = tuple(map(back.__getitem__, pos))
        for combo in itertools.product(*[itertools.permutations(classes2[images[u], images[v]]) for u, v in classes1]):
            edges = tuple(map(sum(combo, ()).__getitem__, slot))
            seen[edges] = min(seen.get(edges, images), images)
    return sorted(seen.items())


def _labelled(g1: MultiGraph, g2: MultiGraph, edges: tuple, images: tuple) -> EdgePermutation:
    """The ``EdgePermutation`` of an edge map from ``g1`` to ``g2`` with its vertex images, as ``_edge_maps`` gives them."""
    labels2, vs2 = g2._labels, g2._vertices
    return EdgePermutation(tuple(zip(g1._labels, map(labels2.__getitem__, edges))), tuple(zip(g1._vertices, map(vs2.__getitem__, images))))


def weighted_isomorphisms(wg1: WeightedGraph, wg2: WeightedGraph) -> list:
    """All edge bijections induced by isomorphisms ``wg1 -> wg2``, deduplicated,
    in the order of their edge images (``_edge_maps``)."""
    return [_labelled(wg1.graph, wg2.graph, *m) for m in _edge_maps(wg1, wg2)]


def automorphisms(wg: WeightedGraph) -> list:
    """Aut of a weighted graph as its image in the symmetric group on edges: every
    vertex bijection keeping the canonical key, extended over all permutations of
    parallel edges and of loops at a vertex (loop flips fix every label)."""
    return weighted_isomorphisms(wg, wg)
