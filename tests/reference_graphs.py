"""Weighted-graph isomorphisms as the backtracking search found them.

``graphs.weighted_isomorphisms`` now reads every isomorphism off the
orderings that give the canonical key.  The two functions below are the
code it replaced, copied verbatim: ``_vertex_bijections`` extends a partial
vertex map one vertex at a time over candidates with the same weight,
valence and loop count, and keeps it while every parallel count agrees.
``_edge_extensions`` follows, copied verbatim from before it took the
parallel classes prebuilt: it rebuilds them for every vertex map.  The
``MultiGraph`` methods they and ``check_bond`` below call and the library
no longer has, ``parallel_count`` and ``induced``, are copied verbatim
with ``self`` as an argument.

``sorted_label_isomorphisms`` is the canonical-key search as it ran before
it matched edges on indices, copied verbatim under a new name with its
helpers ``_parallel_classes`` and ``_class_extensions`` (the latter
``_edge_extensions`` renamed, the name above being taken): it keys the
parallel classes by vertex labels and sorts every edge map by
``label_key``.  It reads the key and the orderings off ``_canonical_orderings``
below, the scan ``graphs._canonical_orderings`` ran before it became a
search over ordered vertex partitions, copied verbatim with its vertex cap
``AUTOMORPHISM_VERTICES``: it tries every weight-sorting vertex ordering.

The rest is every vertex merge as it was decided before one union-find
(``graphs._roots``) took them all over.  ``contraction_classes`` is copied
verbatim, with its own union-find on vertex ids.  ``MultiGraph`` kept an
adjacency table, ``_adj``, that ``_adjacency`` rebuilds as its constructor
did; ``incident``, ``valence``, ``connected_components`` (a DFS over the
table) and ``is_connected`` are the methods that read it, copied verbatim
with ``self`` as an argument.  ``check_bond`` is ``Bond``'s constructor
check from when it asked the two induced subgraphs whether they are
connected, and ``bonds`` is ``graphs.bonds`` with that check in place of
``Bond``'s; both call the DFS above, so no new merge code runs in them.

``label_contract`` is ``graphs.contract`` as it ran on labels before it
became a wrapper over the edge-index contraction ``graphs._contract``:
copied verbatim but for its name (``contract`` still names the library's
here), it calls the ``contraction_classes`` copy above.

Then ``good_contraction_sequence`` as it was before it decided each subset
on edge masks: copied verbatim, it contracts every subset of edges and asks
the contracted graph whether its edges form one loop-free block.

Then ``from_side_bonds`` is ``graphs.bonds`` as it ran before it wrapped
the side-mask enumeration ``graphs._bond_masks``: copied verbatim but for
its name, it builds a checked ``Bond`` for every side holding the least
vertex and skips those the constructor refuses.

Last, the graph as it was stored before it kept vertex-index ends:
``LabelMultiGraph`` is ``graphs.MultiGraph`` with its dict from each label
to the pair of its end labels, ``label_edge_ends`` is ``graphs.edge_ends``
computing the index form from that dict, and ``label_dict_contract`` is
``graphs._contract`` taking that form as ``ends`` beside the graph; all
three copied verbatim but for their names (the class's own name
included), with ``_contract`` hashing by its own formula.
``parallel_count`` and ``induced`` above read the ends through
``MultiGraph.ends``, which serves either storage.
"""

from __future__ import annotations

import itertools

from enrichfan.errors import DisconnectedGraphError, GuardExceededError, NotABondError, UnknownVertexError
from enrichfan.errors import UnknownEdgeError
from enrichfan.graphs import Bond, EdgePermutation, MultiGraph, WeightedGraph, _one_block, _roots, _trusted, bits, contract, edge_ends, label_key, sort_labels

AUTOMORPHISM_VERTICES = 8  # the most vertices the isomorphism search orders


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


def parallel_count(self: MultiGraph, u, v) -> int:
    """Number of non-loop edges joining ``u`` and ``v`` (or loops if u == v)."""
    pair = tuple(sorted((u, v), key=label_key))
    return sum(1 for e in self._labels if self.ends(e) == pair)


def induced(self: MultiGraph, vertex_subset) -> MultiGraph:
    vs = frozenset(vertex_subset)
    unknown = vs - self._vset
    if unknown:
        raise UnknownVertexError(f"unknown vertex {sorted(unknown, key=label_key)[0]!r}")
    edges = {e: uv for e, uv in ((e, self.ends(e)) for e in self._labels) if uv[0] in vs and uv[1] in vs}
    return MultiGraph(vs, edges)


def _vertex_bijections(wg1: WeightedGraph, wg2: WeightedGraph):
    """Weight- and incidence-preserving bijections V(wg1) -> V(wg2)."""
    g1, g2 = wg1.graph, wg2.graph
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return

    def signature(wg, v):
        g = wg.graph
        return (wg.weight(v), g.valence(v), parallel_count(g, v, v))

    vs1 = list(g1.vertices)
    cand = {v: [w for w in g2.vertices if signature(wg2, w) == signature(wg1, v)] for v in vs1}

    def extend(i, image):
        if i == len(vs1):
            yield dict(image)
            return
        v = vs1[i]
        for w in cand[v]:
            if w in image.values():
                continue
            ok = all(
                parallel_count(g1, v, u) == parallel_count(g2, w, x)
                for u, x in image.items()
            )
            if ok:
                image[v] = w
                yield from extend(i + 1, image)
                del image[v]

    yield from extend(0, {})


def weighted_isomorphisms(wg1: WeightedGraph, wg2: WeightedGraph) -> list:
    """All edge bijections induced by isomorphisms ``wg1 -> wg2``, deduplicated."""
    seen = {}
    for vmap in _vertex_bijections(wg1, wg2):
        for pairs in _edge_extensions(wg1.graph, wg2.graph, vmap):
            if pairs not in seen:
                seen[pairs] = tuple(sorted(vmap.items(), key=lambda t: label_key(t[0])))
    ordered = sorted(seen.items(), key=lambda kv: tuple((label_key(a), label_key(b)) for a, b in kv[0]))
    return [EdgePermutation(pairs, vmap) for pairs, vmap in ordered]


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


def sorted_label_isomorphisms(wg1: WeightedGraph, wg2: WeightedGraph) -> list:
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
    classes1 = _parallel_classes(wg1.graph)
    classes2 = classes1 if wg2 is wg1 else _parallel_classes(wg2.graph)
    back = {p: j for j, p in enumerate(found2[0])}
    seen = {}
    for pos in found:
        images = tuple(back[p] for p in pos)
        for pairs in _class_extensions(classes1, classes2, {v: vs2[j] for v, j in zip(vs1, images)}):
            seen[pairs] = min(seen.get(pairs, images), images)
    ordered = sorted(seen.items(), key=lambda kv: tuple((label_key(a), label_key(b)) for a, b in kv[0]))
    return [EdgePermutation(pairs, tuple(zip(vs1, (vs2[j] for j in images)))) for pairs, images in ordered]


def _parallel_classes(g: MultiGraph) -> dict:
    """The label-sorted edges between each pair of ends, in order of the ends."""
    classes = {}
    for e in g.edge_labels:
        classes.setdefault(g.ends(e), []).append(e)
    keyed = sorted(classes.items(), key=lambda t: (label_key(t[0][0]), label_key(t[0][1])))
    return {ends: sort_labels(es) for ends, es in keyed}


def _class_extensions(classes1: dict, classes2: dict, vmap: dict):
    """All edge bijections over a vertex bijection, permuting parallel classes
    (both graphs' classes as :func:`_parallel_classes` gives them)."""
    per_class = []
    for (u, v), src in classes1.items():
        dst = classes2.get(tuple(sorted((vmap[u], vmap[v]), key=label_key)), ())
        if len(dst) != len(src):
            return
        per_class.append([tuple(zip(src, perm)) for perm in itertools.permutations(dst)])
    for combo in itertools.product(*per_class):
        pairs = tuple(sorted((p for group in combo for p in group), key=lambda t: label_key(t[0])))
        yield pairs


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


# ``graphs.contract`` before it wrapped ``graphs._contract``.
def label_contract(g: MultiGraph, s) -> MultiGraph:
    """The graph ``g/s``: contract every edge in ``s`` (a loop is deleted), keeping all other labels."""
    s = frozenset(s)
    reps = contraction_classes(g, s)
    vertices = set(reps.values())
    edges = {e: (reps[u], reps[v]) for e, (u, v) in ((e, g.ends(e)) for e in g.edge_labels) if e not in s}
    return MultiGraph(vertices, edges)


def _adjacency(g: MultiGraph) -> dict:
    """``MultiGraph._adj``: each vertex's ``(label, other_end)`` pairs in label order."""
    vs = g.vertices
    ends = {e: g.ends(e) for e in g.edge_labels}
    adj = {v: [] for v in vs}
    for label, (u, v) in ends.items():
        adj[u].append((label, v))
        if u != v:
            adj[v].append((label, u))
    return {v: tuple(sorted(nb, key=lambda t: label_key(t[0]))) for v, nb in adj.items()}


def incident(self: MultiGraph, v) -> tuple:
    """Edges at ``v`` as ``(label, other_end)`` pairs; loops appear once."""
    if v not in self._vset:
        raise UnknownVertexError(f"unknown vertex {v!r}")
    return _adjacency(self)[v]


def valence(self: MultiGraph, v) -> int:
    """Number of edge ends at ``v``; a loop contributes 2."""
    return sum(2 if w == v else 1 for _, w in incident(self, v))


def connected_components(self: MultiGraph) -> tuple:
    """Vertex sets of the connected components, canonically ordered."""
    adj = _adjacency(self)
    seen = set()
    comps = []
    for root in self._vertices:
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for _, w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return tuple(comps)


def is_connected(self: MultiGraph) -> bool:
    return len(self._vertices) <= 1 or len(connected_components(self)) == 1


def check_bond(g: MultiGraph, side: frozenset, edges: frozenset) -> None:
    """``Bond``'s constructor check: raise ``NotABondError`` unless ``side`` and ``edges`` form a bond of ``g``."""
    if not side <= frozenset(g.vertices):
        raise NotABondError("side contains unknown vertices")
    comp = frozenset(g.vertices) - side
    if not side or not comp:
        raise NotABondError("a bond needs a nontrivial vertex bipartition")
    if not is_connected(induced(g, side)) or not is_connected(induced(g, comp)):
        raise NotABondError("both sides of a bond must induce connected subgraphs")
    if edges != g.cut_edges(side):
        raise NotABondError("edge set does not match the cut of the given side")


def bonds(g: MultiGraph) -> list:
    """``graphs.bonds`` on ``check_bond``, as ``(side, edges)`` pairs."""
    if not is_connected(g):
        raise DisconnectedGraphError("bonds are defined for connected graphs")
    vs = g.vertices
    if len(vs) < 2:
        return []
    v0, rest = vs[0], vs[1:]
    found = []
    for k in range(len(rest)):
        for extra in itertools.combinations(rest, k):
            side = frozenset((v0,) + extra)
            try:
                check_bond(g, side, g.cut_edges(side))
            except NotABondError:
                continue
            found.append((side, g.cut_edges(side)))
    found.sort(key=lambda b: (tuple(map(label_key, sort_labels(b[1]))), tuple(map(label_key, sort_labels(b[0])))))
    return found


def good_contraction_sequence(g: MultiGraph) -> list:
    """All contractions of ``g`` whose target's edges form one loop-free
    block, ordered by non-increasing target edge count.

    A target may keep isolated vertices, as on a graph with several
    components; a connected graph's targets are its biconnected ones.
    Returns ``(contracted_set, target_graph)`` pairs; ties are broken by the
    canonical order of the contracted sets.
    """
    labels = g.edge_labels
    entries = []
    for k in range(g.n_edges):
        for sub in itertools.combinations(labels, k):
            s = frozenset(sub)
            gc = contract(g, s)
            if _one_block(gc):
                entries.append((s, gc))
    return entries


def from_side_bonds(g: MultiGraph) -> list:
    """All bonds of a connected graph, one canonical representative each.

    Tries every vertex subset containing the smallest vertex as a side;
    :class:`Bond` refuses those that leave a side disconnected.
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
            try:
                bond = Bond.from_side(g, (v0,) + extra)
            except NotABondError:
                continue
            found.append(bond)
    found.sort(key=lambda b: (tuple(map(label_key, b.sorted_edges())), tuple(map(label_key, sort_labels(b.side)))))
    return found


class LabelMultiGraph:
    """A multigraph with loops and globally unique, stable edge labels."""

    __slots__ = ("_vertices", "_vset", "_labels", "_ends", "_hash")

    def __init__(self, vertices, edges):
        """Build a graph from vertex ids and a ``label -> (u, v)`` mapping; ``u == v`` is a loop."""
        vs = sort_labels(set(vertices))
        vset = frozenset(vs)
        ends = {}
        for label, (u, v) in edges.items():
            if label in ends:
                raise ValueError(f"duplicate edge label {label!r}")
            if u not in vset:
                raise UnknownVertexError(f"unknown vertex {u!r}")
            if v not in vset:
                raise UnknownVertexError(f"unknown vertex {v!r}")
            ends[label] = tuple(sorted((u, v), key=label_key))
        self._vertices = vs
        self._vset = vset
        self._labels = sort_labels(ends)
        self._ends = ends
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

    def ends(self, label) -> tuple:
        try:
            return self._ends[label]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge {label!r}") from None

    def is_loop(self, label) -> bool:
        u, v = self.ends(label)
        return u == v

    def loops(self) -> tuple:
        return tuple(e for e in self._labels if self.is_loop(e))

    def incident(self, v) -> tuple:
        """Edges at ``v`` as ``(label, other_end)`` pairs; loops appear once."""
        if v not in self._vset:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        pairs = ((e, self._ends[e]) for e in self._labels)
        return tuple((e, b if a == v else a) for e, (a, b) in pairs if v in (a, b))

    def valence(self, v) -> int:
        """Number of edge ends at ``v``; a loop contributes 2."""
        return sum(2 if w == v else 1 for _, w in self.incident(v))

    def connected_components(self) -> tuple:
        """Vertex sets of the connected components, in order of their least vertex."""
        root = _roots(label_edge_ends(self))
        comps = {}
        for i, v in enumerate(self._vertices):
            comps.setdefault(root.get(i, i), set()).add(v)
        return tuple(map(frozenset, comps.values()))

    def is_connected(self) -> bool:
        return len(self._vertices) <= 1 or len(self.connected_components()) == 1

    def cut_edges(self, side) -> frozenset:
        """Edges with exactly one endpoint in ``side``."""
        side = frozenset(side)
        return frozenset(e for e, (u, v) in self._ends.items() if (u in side) != (v in side))

    def __eq__(self, other):
        if not isinstance(other, LabelMultiGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._ends == other._ends

    def __hash__(self):
        return self._hash

    def __repr__(self):
        es = ", ".join(f"{e}:{u}-{v}" for e, (u, v) in sorted(self._ends.items(), key=lambda t: label_key(t[0])))
        return f"MultiGraph([{', '.join(map(str, self._vertices))}], {{{es}}})"


def label_dict_contract(g: LabelMultiGraph, ends, mask: int, reps=None) -> LabelMultiGraph:
    """``g`` with the edges in ``mask`` contracted, ``ends`` being ``edge_ends(g)``:
    built unchecked, each class of merged vertices kept as its least.  ``reps``
    is ``_roots`` of the contracted edges, merged here unless given."""
    if reps is None:
        reps = _roots(map(ends.__getitem__, bits(mask)))
    vs, labels = g._vertices, g._labels
    edges = {}
    for e in bits((1 << len(labels)) - 1 & ~mask):
        u, v = ends[e]
        u, v = reps.get(u, u), reps.get(v, v)
        edges[labels[e]] = (vs[u], vs[v]) if u <= v else (vs[v], vs[u])
    vertices = tuple([v for i, v in enumerate(vs) if i not in reps])
    fields = {"_vertices": vertices, "_vset": frozenset(vertices), "_labels": tuple(edges), "_ends": edges}
    return _trusted(LabelMultiGraph, **fields, _hash=hash((vertices, tuple(edges.items()))))


def label_edge_ends(g: LabelMultiGraph) -> tuple:
    """The ends of each edge as vertex indices, in ``edge_labels`` order.

    Vertices are indexed in ``vertices`` order, so edge ``i`` of the result
    is ``g.edge_labels[i]`` and a bitmask over these indices is a subgraph.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    return tuple([(index[u], index[v]) for u, v in map(g._ends.__getitem__, g._labels)])
