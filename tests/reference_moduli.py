"""The moduli census and gluing as first written.

Kept as the slow reference the key-table code in ``enrichfan.moduli`` is
tested against.  The census builds a ``MultiGraph`` for every candidate
tuple before checking it; the gluing tests every ordered pair of cells
through ``cell_specializes_to``, which enumerates the specializations of
the source and compares two n!-ordering canonical keys per
specialization.  ``_canonical_key``, ``_indexed`` and ``_frame_map`` are the
frame map as ``moduli`` computed it before the key search moved to
``graphs``; the frames and edge maps must not change.
"""

from __future__ import annotations

import itertools

from enrichfan.enriched import specializations
from enrichfan.errors import GuardExceededError
from enrichfan.graphs import MultiGraph, WeightedGraph, contract_weighted, genus, is_stable, weighted_isomorphisms
from enrichfan.moduli import (
    GENUS_GUARD,
    CellClassification,
    ModuliCell,
    _compositions,
    _graph_from_key,
    enumerate_cells,
)


def _canonical_key(weights: tuple, pairs) -> tuple:
    """The smallest encoding over all vertex orderings, and an ordering giving it.

    ``weights[i]`` is the weight of vertex ``i`` and ``pairs`` holds the
    vertex-index ends of every edge.  The encoding under an ordering
    ``pos`` (vertex ``i`` becomes ``pos[i]``) is the weight tuple in the
    new order together with the sorted tuple of renumbered, sorted edge
    ends.  Weights compare first, so only orderings that sort the weights
    can give the least key; the others are skipped.  Returns
    ``(key, pos)``.
    """
    least = tuple(sorted(weights))
    best = best_pos = None
    for pos in itertools.permutations(range(len(weights))):
        if any(least[p] != w for p, w in zip(pos, weights)):
            continue
        ends = tuple(sorted((pos[u], pos[v]) if pos[u] <= pos[v] else (pos[v], pos[u]) for u, v in pairs))
        if best is None or ends < best:
            best, best_pos = ends, pos
    return (least, best), best_pos


def _indexed(wg: WeightedGraph) -> tuple:
    """Vertex weights and edge ends of ``wg`` over vertex indices, edges in label order."""
    g = wg.graph
    index = {v: i for i, v in enumerate(g.vertices)}
    return tuple(wg.weight(v) for v in g.vertices), [(index[u], index[v]) for u, v in map(g.ends, g.edge_labels)]


def _frame_map(wg: WeightedGraph) -> tuple:
    """The canonical key of ``wg`` and an edge bijection onto its frame.

    The frame is ``_graph_from_key(key)``; the bijection comes from the
    vertex ordering that gives the key.  Parallel edges (and loops at one
    vertex) may be matched in any order, so they are taken as they come.
    """
    weights, ends = _indexed(wg)
    key, pos = _canonical_key(weights, ends)
    slots = {}
    for k, pair in enumerate(key[1]):
        slots.setdefault(pair, []).append(f"e{k + 1}")
    mapping = {}
    for e, (u, v) in zip(wg.graph.edge_labels, ends):
        a, b = pos[u], pos[v]
        mapping[e] = slots[(a, b) if a <= b else (b, a)].pop()
    return key, mapping


def _canonical_weighted_key(wg: WeightedGraph):
    """Smallest incidence encoding over all vertex orderings."""
    g = wg.graph
    vs = list(g.vertices)
    best = None
    for perm in itertools.permutations(range(len(vs))):
        pos = {vs[i]: perm[i] for i in range(len(vs))}
        weights = tuple(w for _, w in sorted(((pos[v], wg.weight(v)) for v in vs)))
        pairs = tuple(sorted(tuple(sorted((pos[u], pos[v]))) for u, v in (g.ends(e) for e in g.edge_labels)))
        key = (weights, pairs)
        if best is None or key < best:
            best = key
    return best


def enumerate_stable_weighted_graphs(g: int, genus_guard: int = GENUS_GUARD) -> list:
    """All stable weighted graphs of genus ``g`` up to isomorphism.

    Vertices are bounded by 2g-2 (one vertex for genus 1) and edges by
    3g-3; representatives are rebuilt from their canonical encodings, so
    output labeling is deterministic (vertices v1.., edges e1..).
    """
    if g < 1 or g > genus_guard:
        raise GuardExceededError(f"genus must lie in 1..{genus_guard}")
    max_vertices = max(1, 2 * g - 2)
    max_edges = max(0, 3 * g - 3)
    seen = set()
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(0, max_edges + 1):
            b1 = m - n + 1
            if b1 < 0 or b1 > g:
                continue
            for combo in itertools.combinations_with_replacement(slots, m):
                for weights in _compositions(g - b1, n):
                    vertices = [f"v{i + 1}" for i in range(n)]
                    edges = {f"e{k + 1}": (vertices[i], vertices[j]) for k, (i, j) in enumerate(combo)}
                    graph = MultiGraph(vertices, edges)
                    if not graph.is_connected():
                        continue
                    wg = WeightedGraph(graph, dict(zip(vertices, weights)))
                    if genus(wg) != g or not is_stable(wg):
                        continue
                    seen.add(_canonical_weighted_key(wg))
    return [_graph_from_key(k) for k in sorted(seen)]


def cell_specializes_to(a: ModuliCell, b: ModuliCell) -> bool:
    """Whether some specialization of a's representative is isomorphic to b's."""
    if a.index == b.index:
        return False
    src = a.enriched()
    for sp in specializations(src):
        target_w = contract_weighted(a.weighted, sp.contracted)
        if _canonical_weighted_key(target_w) != _canonical_weighted_key(b.weighted):
            continue
        for iso in weighted_isomorphisms(target_w, b.weighted):
            if sp.target.preorder.relabel(iso.as_dict()) == b.preorder:
                return True
    return False


def cell_adjacency(cells) -> dict:
    """Map each cell index to the indices of its proper specializations."""
    return {
        a.index: sorted(b.index for b in cells if cell_specializes_to(a, b))
        for a in cells
    }


def classify_cells(g: int, genus_guard: int = GENUS_GUARD) -> CellClassification:
    """Maximal and codimension-one cells, with closure multiplicities."""
    cells = enumerate_cells(g)
    top = 3 * g - 3
    maximal = []
    for c in cells:
        if c.dim == top:
            graph = c.weighted.graph
            assert all(graph.valence(v) == 3 for v in graph.vertices)
            assert c.preorder.is_partial_order()
            maximal.append(c.index)
    t_a, t_b, t_c = [], [], []
    for c in cells:
        if c.dim != top - 1:
            continue
        graph = c.weighted.graph
        valences = sorted(graph.valence(v) for v in graph.vertices)
        weights = sorted(c.weighted.weights.values())
        generic = c.preorder.is_partial_order()
        regular3 = all(graph.valence(v) == 3 for v in graph.vertices)
        if generic and set(weights) == {0} and valences.count(4) == 1 and valences.count(3) == len(valences) - 1:
            t_a.append(c.index)
        elif generic and weights.count(1) == 1 and valences.count(1) == 1:
            t_b.append(c.index)
        elif regular3 and set(weights) == {0} and not generic:
            t_c.append(c.index)
        else:
            raise AssertionError(f"codimension-one cell {c.index} fits no expected type")
    by_index = {c.index: c for c in cells}
    above = {i: set() for i in t_a + t_b + t_c}
    for i in above:
        for m in maximal:
            if cell_specializes_to(by_index[m], by_index[i]):
                above[i].add(m)
    closure_counts = {i: len(ms) for i, ms in above.items()}
    # maximal cells are adjacent when a common codimension-one cell sits in
    # both closures; the adjacency graph must be connected
    reached = set(maximal[:1])
    changed = True
    while changed:
        changed = False
        for ms in above.values():
            if ms & reached and not ms <= reached:
                reached |= ms
                changed = True
    connected = reached == set(maximal)
    return CellClassification(
        tuple(maximal), tuple(t_a), tuple(t_b), tuple(t_c), closure_counts, connected
    )
