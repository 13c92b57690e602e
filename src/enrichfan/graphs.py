"""Labeled multigraphs: contraction, blocks, bonds, weights and automorphisms.

Vertex ids and edge labels are opaque immutable ids (strings or ints).
Contraction never relabels an edge, so the edge set of a contracted graph
is literally a subset of the original's.  All values are immutable after
construction and every operation is a pure function.

Weighted-graph isomorphism is decided by one search,
``_canonical_orderings``: it gives the canonical key that ``moduli`` files
its census and frames under, and the orderings attaining it, from which
``weighted_isomorphisms`` and ``automorphisms`` read every isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    DisconnectedGraphError,
    GuardExceededError,
    NonDisjointSidesError,
    NotABondError,
    UnknownEdgeError,
    UnknownVertexError,
)

Label = str | int
AUTOMORPHISM_VERTICES = 8  # the most vertices the isomorphism search orders


def label_key(x: Label):
    """Total order on mixed int/str ids: ints first, then strings."""
    if isinstance(x, bool):
        raise TypeError("booleans are not valid ids")
    if isinstance(x, int):
        return (0, x, "")
    return (1, 0, str(x))


def sort_labels(xs) -> tuple:
    return tuple(sorted(xs, key=label_key))


class MultiGraph:
    """A multigraph with loops and globally unique, stable edge labels."""

    __slots__ = ("_vertices", "_vset", "_labels", "_ends", "_adj", "_hash")

    def __init__(self, vertices, edges):
        """Build a graph from vertex ids and a ``label -> (u, v)`` mapping.

        ``edges`` may also be an iterable of ``(label, u, v)`` triples.
        ``u == v`` declares a loop.
        """
        vs = sort_labels(set(vertices))
        vset = frozenset(vs)
        items = edges.items() if isinstance(edges, dict) else [(e[0], (e[1], e[2])) for e in edges]
        ends = {}
        for label, (u, v) in items:
            if label in ends:
                raise ValueError(f"duplicate edge label {label!r}")
            if u not in vset:
                raise UnknownVertexError(f"unknown vertex {u!r}")
            if v not in vset:
                raise UnknownVertexError(f"unknown vertex {v!r}")
            ends[label] = tuple(sorted((u, v), key=label_key))
        adj = {v: [] for v in vs}
        for label, (u, v) in ends.items():
            adj[u].append((label, v))
            if u != v:
                adj[v].append((label, u))
        self._vertices = vs
        self._vset = vset
        self._labels = sort_labels(ends)
        self._ends = ends
        self._adj = {v: tuple(sorted(nb, key=lambda t: label_key(t[0]))) for v, nb in adj.items()}
        self._hash = hash((vs, tuple((e, ends[e]) for e in self._labels)))

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
            return self._ends[label]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {label!r}") from None

    def has_vertex(self, v) -> bool:
        return v in self._vset

    def is_loop(self, label: Label) -> bool:
        u, v = self.ends(label)
        return u == v

    def loops(self) -> tuple:
        return tuple(e for e in self._labels if self.is_loop(e))

    def incident(self, v) -> tuple:
        """Edges at ``v`` as ``(label, other_end)`` pairs; loops appear once."""
        if v not in self._vset:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return self._adj[v]

    def valence(self, v) -> int:
        """Number of edge ends at ``v``; a loop contributes 2."""
        return sum(2 if w == v else 1 for _, w in self.incident(v))

    def parallel_count(self, u, v) -> int:
        """Number of non-loop edges joining ``u`` and ``v`` (or loops if u == v)."""
        pair = tuple(sorted((u, v), key=label_key))
        return sum(1 for e in self._labels if self._ends[e] == pair)

    def induced(self, vertex_subset) -> "MultiGraph":
        vs = frozenset(vertex_subset)
        unknown = vs - self._vset
        if unknown:
            raise UnknownVertexError(f"unknown vertex {sorted(unknown, key=label_key)[0]!r}")
        edges = {e: uv for e, uv in self._ends.items() if uv[0] in vs and uv[1] in vs}
        return MultiGraph(vs, edges)

    def delete_edges(self, labels) -> "MultiGraph":
        labels = frozenset(labels)
        for e in labels:
            self.ends(e)
        return MultiGraph(self._vertices, {e: uv for e, uv in self._ends.items() if e not in labels})

    def connected_components(self) -> tuple:
        """Vertex sets of the connected components, canonically ordered."""
        seen = set()
        comps = []
        for root in self._vertices:
            if root in seen:
                continue
            comp = {root}
            stack = [root]
            while stack:
                v = stack.pop()
                for _, w in self._adj[v]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self._vertices) <= 1 or len(self.connected_components()) == 1

    def cut_edges(self, side) -> frozenset:
        """Edges with exactly one endpoint in ``side``."""
        side = frozenset(side)
        return frozenset(e for e, (u, v) in self._ends.items() if (u in side) != (v in side))

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._ends == other._ends

    def __hash__(self):
        return self._hash

    def __repr__(self):
        es = ", ".join(f"{e}:{u}-{v}" for e, (u, v) in sorted(self._ends.items(), key=lambda t: label_key(t[0])))
        return f"MultiGraph([{', '.join(map(str, self._vertices))}], {{{es}}})"


def contraction_classes(g: MultiGraph, s) -> dict:
    """Map each vertex of ``g`` to its representative in ``g/s``.

    The representative of a merged class is its smallest member id.
    """
    s = frozenset(s)
    for e in s:
        g.ends(e)
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in s:
        u, v = g.ends(e)
        ru, rv = find(u), find(v)
        if ru != rv:
            keep, drop = sorted((ru, rv), key=label_key)
            parent[drop] = keep
    return {v: find(v) for v in g.vertices}


def contract(g: MultiGraph, s) -> MultiGraph:
    """The graph ``g/s``: contract every edge in ``s``, keeping all other labels.

    Loops in ``s`` are deleted.
    """
    s = frozenset(s)
    reps = contraction_classes(g, s)
    vertices = set(reps.values())
    edges = {e: (reps[u], reps[v]) for e, (u, v) in ((e, g.ends(e)) for e in g.edge_labels) if e not in s}
    return MultiGraph(vertices, edges)


def bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edge_ends(g: MultiGraph) -> tuple:
    """The ends of each edge as vertex indices, in ``edge_labels`` order.

    Vertices are indexed in ``vertices`` order, so edge ``i`` of the result
    is ``g.edge_labels[i]`` and a bitmask over these indices is a subgraph.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    return tuple((index[u], index[v]) for u, v in map(g.ends, g.edge_labels))


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
            descended = False
            for e, w in it:
                if used >> e & 1:
                    continue
                used |= 1 << e
                edge_stack.append(e)
                if w not in disc:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, e, iter(adj[w])))
                    descended = True
                    break
                low[v] = min(low[v], disc[w])
            if descended:
                continue
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
    """The blocks of ``g`` as subgraphs; their edge sets partition ``E(g)``.

    Each loop together with its vertex is its own block.  Parallel edges
    are distinct, so a pair of them forms a cycle and lies in one block.
    Isolated vertices yield no block.
    """
    labels = g.edge_labels
    out = []
    for block in block_masks(edge_ends(g), (1 << len(labels)) - 1):
        edges = {labels[i]: g.ends(labels[i]) for i in bits(block)}
        out.append(MultiGraph({v for uv in edges.values() for v in uv}, edges))
    return out


def is_biconnected(g: MultiGraph) -> bool:
    """Connected, at least one edge, loop-free, and a single block.

    A lone loop is *not* biconnected here: a loop belongs to no bond, so
    graphs with loops never qualify (a loop vertex with further edges is
    separating anyway).
    """
    if g.n_edges == 0 or not g.is_connected() or g.loops():
        return False
    return len(block_masks(edge_ends(g), (1 << g.n_edges) - 1)) == 1


@dataclass(frozen=True)
class Bond:
    """A minimal cut ``E(V, V^c)`` with a distinguished side ``V``.

    Both sides must induce connected subgraphs.  Two bonds are equal when
    they share the graph, the side and the edge set; use :meth:`canonical`
    to identify complementary sides.
    """

    graph: MultiGraph
    side: frozenset
    edges: frozenset

    def __post_init__(self):
        g = self.graph
        side = self.side
        if not side <= frozenset(g.vertices):
            raise NotABondError("side contains unknown vertices")
        comp = frozenset(g.vertices) - side
        if not side or not comp:
            raise NotABondError("a bond needs a nontrivial vertex bipartition")
        if not g.induced(side).is_connected() or not g.induced(comp).is_connected():
            raise NotABondError("both sides of a bond must induce connected subgraphs")
        if self.edges != g.cut_edges(side):
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


def bonds(g: MultiGraph) -> list:
    """All bonds of a connected graph, one canonical representative each.

    Enumerates vertex subsets containing the smallest vertex and keeps
    those whose two sides both induce connected subgraphs.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("bonds are defined for connected graphs")
    vs = g.vertices
    if len(vs) < 2:
        return []
    v0, rest = vs[0], vs[1:]
    found = []
    for k in range(len(rest)):
        for extra in itertools.combinations(rest, k):
            side = frozenset((v0,) + extra)
            comp = frozenset(vs) - side
            if not g.induced(side).is_connected():
                continue
            if not g.induced(comp).is_connected():
                continue
            found.append(Bond(g, side, g.cut_edges(side)))
    found.sort(key=lambda b: (tuple(map(label_key, b.sorted_edges())), tuple(map(label_key, sort_labels(b.side)))))
    return found


def bond_sum(b1: Bond, b2: Bond) -> Bond:
    """The cut ``E(V1 ∪ V2, V1^c ∩ V2^c)`` of two bonds with disjoint sides.

    Raises :class:`NonDisjointSidesError` when the sides overlap and
    :class:`NotABondError` when the resulting cut is not a bond.
    """
    if b1.graph != b2.graph:
        raise ValueError("bond sum needs bonds of the same graph")
    if b1.side & b2.side:
        raise NonDisjointSidesError("sides must be disjoint")
    return Bond.from_side(b1.graph, b1.side | b2.side)


def connected_partition(g: MultiGraph, vs) -> list:
    """Partition ``V(g)`` into connected blocks, one containing each given vertex.

    Every component of the complement joins the block of its smallest
    adjacent seed vertex, which makes the choice deterministic.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("connected_partition needs a connected graph")
    seeds = list(vs)
    if len(set(seeds)) != len(seeds):
        raise ValueError("seed vertices must be distinct")
    for v in seeds:
        if not g.has_vertex(v):
            raise UnknownVertexError(f"unknown vertex {v!r}")
    seed_set = frozenset(seeds)
    blocks = {v: {v} for v in seeds}
    rest = frozenset(g.vertices) - seed_set
    if rest:
        for comp in g.induced(rest).connected_components():
            touching = set()
            for e in g.edge_labels:
                u, w = g.ends(e)
                if u in comp and w in seed_set:
                    touching.add(w)
                if w in comp and u in seed_set:
                    touching.add(u)
            if not touching:
                raise DisconnectedGraphError("complement component sees no seed vertex")
            blocks[min(touching, key=label_key)] |= comp
    return [frozenset(blocks[v]) for v in seeds]


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
    s = frozenset(s)
    reps = contraction_classes(wg.graph, s)
    weights = dict.fromkeys(reps.values(), 1)
    for v, r in reps.items():
        weights[r] += wg.weight(v) - 1
    for e in s:
        weights[reps[wg.graph.ends(e)[0]]] += 1
    return weights


def contract_weighted(wg: WeightedGraph, s) -> WeightedGraph:
    """Contract edges of a weighted graph, with the weights of ``contracted_weights``."""
    return WeightedGraph(contract(wg.graph, s), contracted_weights(wg, s))


@dataclass(frozen=True)
class EdgePermutation:
    """A permutation of edge labels induced by a weighted-graph automorphism."""

    edge_map: tuple
    vertex_map: tuple = field(compare=False)

    def apply(self, label: Label) -> Label:
        for a, b in self.edge_map:
            if a == label:
                return b
        raise UnknownEdgeError(f"unknown edge {label!r}")

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

    def inverse(self) -> "EdgePermutation":
        return EdgePermutation(
            tuple(sorted(((b, a) for a, b in self.edge_map), key=lambda t: label_key(t[0]))),
            tuple(sorted(((b, a) for a, b in self.vertex_map), key=lambda t: label_key(t[0]))),
        )

    def is_identity(self) -> bool:
        return all(a == b for a, b in self.edge_map)


def _edge_extensions(g1: MultiGraph, g2: MultiGraph, vmap: dict):
    """All edge bijections over a vertex bijection, permuting parallel classes."""
    classes = {}
    for e in g1.edge_labels:
        u, v = g1.ends(e)
        classes.setdefault((u, v), []).append(e)
    keyed = sorted(classes.items(), key=lambda t: (label_key(t[0][0]), label_key(t[0][1])))
    target = {}
    for e in g2.edge_labels:
        target.setdefault(g2.ends(e), []).append(e)
    per_class = []
    for (u, v), src in keyed:
        img_pair = tuple(sorted((vmap[u], vmap[v]), key=label_key))
        dst = target.get(img_pair, [])
        if len(dst) != len(src):
            return
        src = sort_labels(src)
        per_class.append([tuple(zip(src, perm)) for perm in itertools.permutations(sort_labels(dst))])
    for combo in itertools.product(*per_class):
        pairs = tuple(sorted((p for group in combo for p in group), key=lambda t: label_key(t[0])))
        yield pairs


def _canonical_orderings(weights: tuple, ends) -> tuple:
    """The canonical key of a weighted graph on vertex indices, and every ordering giving it.

    ``weights[i]`` is the weight of vertex ``i`` and ``ends`` holds the
    vertex-index ends of every edge.  The encoding under an ordering
    ``pos`` (vertex ``i`` becomes ``pos[i]``) is the weight tuple in the
    new order together with the sorted tuple of renumbered, sorted edge
    ends; the key is the least encoding.  Weights compare first, so only
    orderings that sort the weights can give it and the others are
    skipped.  Returns ``(key, orderings)``, the orderings in
    ``itertools.permutations`` order.  Every weight-sorting ordering is
    tried, so the vertex count is capped at ``AUTOMORPHISM_VERTICES``.
    """
    if len(weights) > AUTOMORPHISM_VERTICES:
        raise GuardExceededError(f"isomorphism search capped at {AUTOMORPHISM_VERTICES} vertices")
    least = tuple(sorted(weights))
    best, found = None, []
    for pos in itertools.permutations(range(len(weights))):
        if any(least[p] != w for p, w in zip(pos, weights)):
            continue
        key = tuple(sorted((pos[u], pos[v]) if pos[u] <= pos[v] else (pos[v], pos[u]) for u, v in ends))
        if best is None or key < best:
            best, found = key, [pos]
        elif key == best:
            found.append(pos)
    return (least, best), found


def weighted_isomorphisms(wg1: WeightedGraph, wg2: WeightedGraph) -> list:
    """All edge bijections induced by isomorphisms ``wg1 -> wg2``, deduplicated.

    An isomorphism takes ``wg1`` to ``wg2``'s canonical key along one of
    ``wg1``'s key orderings and back along the first of ``wg2``'s, and every
    isomorphism arises so exactly once.  An edge bijection over several
    vertex bijections keeps the one whose images, in vertex order, are least.
    """
    def search(wg):
        return _canonical_orderings(tuple(map(wg.weight, wg.graph.vertices)), edge_ends(wg.graph))

    key1, found = search(wg1)
    key2, found2 = (key1, found) if wg2 is wg1 else search(wg2)
    if key1 != key2:
        return []
    vs1, vs2 = wg1.graph.vertices, wg2.graph.vertices
    back = {p: j for j, p in enumerate(found2[0])}
    seen = {}
    for pos in found:
        images = tuple(back[p] for p in pos)
        for pairs in _edge_extensions(wg1.graph, wg2.graph, {v: vs2[j] for v, j in zip(vs1, images)}):
            seen[pairs] = min(seen.get(pairs, images), images)
    ordered = sorted(seen.items(), key=lambda kv: tuple((label_key(a), label_key(b)) for a, b in kv[0]))
    return [EdgePermutation(pairs, tuple(zip(vs1, (vs2[j] for j in images)))) for pairs, images in ordered]


def automorphisms(wg: WeightedGraph) -> list:
    """Aut of a weighted graph as its image in the symmetric group on edges.

    Every vertex bijection that keeps the canonical key, extended over all
    permutations of parallel edges and loops at a vertex; loop half-edge
    flips act trivially on labels and are not represented.
    """
    return weighted_isomorphisms(wg, wg)
