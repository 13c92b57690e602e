"""Cell-level model of the moduli of enriched tropical curves at small genus.

The space itself is never built: a cell is an isomorphism class of stable
weighted graphs with an enriched structure, carrying its dimension (the
rank), its automorphism group, and specialization arrows to other cells.

A weighted graph is identified by its canonical key: the smallest
``(weights, sorted vertex-index pairs)`` encoding over all vertex
orderings.  The key, the frames below and every isomorphism and
automorphism come from one search in ``graphs``
(``_canonical_orderings``), which returns the key and each ordering
giving it.  The census works on those index tuples and builds a graph
only for each distinct key, its *frame* (``_graph_from_key``).  The
gluing goes through one table scoped to a call (``_cell_table``): each
cell's preorder is carried into its frame along the first ordering that
gives the key, then moved by every automorphism of the frame, and the
table maps each resulting ``(key, preorder)`` to the cell.  ``_reached``
then enumerates a cell's specializations once, carries each target into
its frame the same way and looks it up, so ``cell_adjacency``,
``classify_cells`` and ``cell_specializes_to`` do work linear in the
number of cells instead of testing every pair.
``check_unique_lifts`` builds each graph's open structure cones and
automorphisms once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .cones import structure_cone
from .enriched import EnrichedGraph, enriched_structures, locate, specializations
from .errors import GuardExceededError
from .graphs import MultiGraph, WeightedGraph, _canonical_orderings, automorphisms, contracted_weights, edge_ends
from .preorders import Preorder

GENUS_GUARD = 3


def _canonical_weighted_key(wg: WeightedGraph):
    """Smallest incidence encoding over all vertex orderings."""
    return _frame_map(wg)[0]


def _frame_map(wg: WeightedGraph) -> tuple:
    """The canonical key of ``wg`` and an edge bijection onto its frame.

    The frame is ``_graph_from_key(key)``; the bijection comes from the
    vertex ordering that gives the key.  Parallel edges (and loops at one
    vertex) may be matched in any order, so they are taken as they come.
    """
    ends = edge_ends(wg.graph)
    key, (pos, *_) = _canonical_orderings(tuple(map(wg.weight, wg.graph.vertices)), ends)
    slots = {}
    for k, pair in enumerate(key[1]):
        slots.setdefault(pair, []).append(f"e{k + 1}")
    mapping = {}
    for e, (u, v) in zip(wg.graph.edge_labels, ends):
        a, b = pos[u], pos[v]
        mapping[e] = slots[(a, b) if a <= b else (b, a)].pop()
    return key, mapping


def _graph_from_key(key) -> WeightedGraph:
    weights, pairs = key
    vertices = [f"v{i + 1}" for i in range(len(weights))]
    edges = {}
    for idx, (i, j) in enumerate(pairs):
        edges[f"e{idx + 1}"] = (vertices[i], vertices[j])
    g = MultiGraph(vertices, edges)
    return WeightedGraph(g, {vertices[i]: weights[i] for i in range(len(weights))})


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _connected(n: int, pairs) -> bool:
    """Whether the edges ``pairs`` connect the vertices ``0..n-1`` (a union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    parts = n
    for u, v in pairs:
        a, b = find(u), find(v)
        if a != b:
            parent[b] = a
            parts -= 1
    return parts == 1


def enumerate_stable_weighted_graphs(g: int) -> list:
    """All stable weighted graphs of genus ``g`` up to isomorphism.

    Vertices are bounded by 2g-2 (one vertex for genus 1) and edges by
    3g-3; representatives are rebuilt from their canonical encodings, so
    output labeling is deterministic (vertices v1.., edges e1..).
    Candidates are tuples of vertex-index pairs: connectivity, valence and
    stability are checked on them, and the weights make up the genus the
    cycles leave, so a graph is built only once per isomorphism class.
    """
    if g < 1:
        raise ValueError(f"genus must be at least 1, got {g}")
    if g > GENUS_GUARD:
        raise GuardExceededError(f"genus must lie in 1..{GENUS_GUARD}")
    seen = set()
    for n in range(1, max(1, 2 * g - 2) + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(0, max(0, 3 * g - 3) + 1):
            b1 = m - n + 1
            if b1 < 0 or b1 > g:
                continue
            weightings = list(_compositions(g - b1, n))
            for combo in itertools.combinations_with_replacement(slots, m):
                valence = [0] * n
                for i, j in combo:  # a loop counts twice
                    valence[i] += 1
                    valence[j] += 1
                # every vertex of valence below 3 needs a positive weight
                if sum(d < 3 for d in valence) > g - b1 or not _connected(n, combo):
                    continue
                for weights in weightings:
                    if all(w > 0 or d >= 3 for w, d in zip(weights, valence)):
                        seen.add(_canonical_orderings(weights, combo)[0])
    return [_graph_from_key(k) for k in sorted(seen)]


def aut_enriched(wg: WeightedGraph, p: Preorder) -> list:
    """The subgroup of Aut(graph, weights) whose edge action preserves ``p``."""
    mapping_auts = automorphisms(wg)
    return [a for a in mapping_auts if p.relabel(a.as_dict()) == p]


@dataclass(frozen=True)
class ModuliCell:
    """An isomorphism class of stable weighted enriched graphs."""

    index: int
    weighted: WeightedGraph
    preorder: Preorder
    genus: int
    aut: tuple  # edge permutations preserving weights and the preorder

    def __post_init__(self):
        EnrichedGraph(self.weighted.graph, self.preorder)  # validates

    @property
    def dim(self) -> int:
        return self.preorder.rank

    @property
    def aut_order(self) -> int:
        return len(self.aut)

    def enriched(self) -> EnrichedGraph:
        return EnrichedGraph(self.weighted.graph, self.preorder)


def _structure_orbits(wg: WeightedGraph):
    """Orbits of enriched structures under Aut(graph, weights).

    Each orbit comes as its least structure together with that structure's
    stabilizer, which is what ``aut_enriched`` returns for it.
    """
    auts = automorphisms(wg)
    structs = [eg.preorder for eg in enriched_structures(wg.graph)]
    remaining = set(structs)
    orbits = []
    for p in structs:  # canonical order: the first uncovered structure is its orbit's least
        if p not in remaining:
            continue
        images = [p.relabel(a.as_dict()) for a in auts]
        assert remaining.issuperset(images)
        remaining.difference_update(images)
        orbits.append((p, tuple(a for a, q in zip(auts, images) if q == p)))
    return orbits


def enumerate_cells(g: int) -> list:
    """One cell per isomorphism class of stable weighted enriched graph."""
    cells = []
    for wg in enumerate_stable_weighted_graphs(g):
        for rep, stabilizer in _structure_orbits(wg):
            cells.append(ModuliCell(len(cells), wg, rep, g, stabilizer))
    return cells


def gluing_matrix(sp) -> tuple:
    """Integer matrix taking source increment coordinates to target ones.

    Rows are the target classes, columns the source classes; the single 1
    per row sits at the source class given by the class inclusion.  For a
    boundary point, increments computed downstairs and upstairs agree
    through this matrix.
    """
    from .enriched import class_inclusion

    inc = class_inclusion(sp)
    src_classes = sp.source.preorder.quotient().classes
    tgt_classes = sp.target.preorder.quotient().classes
    col = {frozenset(c): i for i, c in enumerate(src_classes)}
    rows = []
    for c in tgt_classes:
        row = [0] * len(src_classes)
        row[col[inc[frozenset(c)]]] = 1
        rows.append(tuple(row))
    return tuple(rows)


def _cell_table(cells) -> dict:
    """Map each frame key to a dict from preorders on the frame to cell indices.

    Each cell's preorder is carried into the frame of its weighted graph
    and then moved by every automorphism of the frame, so the preorders
    listed under a key are exactly those isomorphic to one of the cells.
    """
    table = {}
    frame_auts = {}
    for c in cells:
        key, to_frame = _frame_map(c.weighted)
        if key not in frame_auts:
            frame_auts[key] = [a.as_dict() for a in automorphisms(_graph_from_key(key))]
        q = c.preorder.relabel(to_frame)
        orbit = table.setdefault(key, {})
        for a in frame_auts[key]:
            orbit.setdefault(q.relabel(a), set()).add(c.index)
    return table


def _reached(a: ModuliCell, table: dict) -> set:
    """Indices of the cells in ``table`` isomorphic to a specialization of ``a``, ``a`` excluded.

    All specializations contracting one lower set share a target graph, so
    that graph is weighted and carried into its frame once.
    """
    hits = set()
    frames = {}
    for sp in specializations(a.enriched()):
        s = sp.contracted
        if s not in frames:
            key, to_frame = _frame_map(WeightedGraph(sp.target.graph, contracted_weights(a.weighted, s)))
            frames[s] = (table.get(key), to_frame)
        orbit, to_frame = frames[s]
        if orbit is not None:
            hits.update(orbit.get(sp.target.preorder.relabel(to_frame), ()))
    hits.discard(a.index)
    return hits


def cell_specializes_to(a: ModuliCell, b: ModuliCell) -> bool:
    """Whether some specialization of a's representative is isomorphic to b's."""
    return b.index in _reached(a, _cell_table([b]))


def cell_adjacency(cells) -> dict:
    """Map each cell index to the indices of its proper specializations."""
    table = _cell_table(cells)
    return {a.index: sorted(_reached(a, table)) for a in cells}


@dataclass(frozen=True)
class CellClassification:
    maximal: tuple
    codim1_valence_four: tuple  # one 4-valent vertex, weights 0, generic
    codim1_weight_one_leaf: tuple  # one valence-1 weight-1 vertex, generic
    codim1_merged_classes: tuple  # 3-regular, one simple merge below generic
    closure_counts: dict  # codim-1 cell index -> number of maximal cells above
    connected_through_codim1: bool


def classify_cells(g: int) -> CellClassification:
    """Maximal and codimension-one cells, with closure multiplicities."""
    cells = enumerate_cells(g)
    table = _cell_table([c for c in cells if c.dim == 3 * g - 4])
    return classify_census(cells, {c.index: _reached(c, table) for c in cells if c.dim == 3 * g - 3})


def classify_census(cells, adjacency) -> CellClassification:
    """``classify_cells`` on a census in hand; ``adjacency`` maps each maximal
    cell index to the cells it specializes to, as ``cell_adjacency`` does."""
    g = cells[0].genus
    top = 3 * g - 3
    maximal = []
    for c in cells:
        if c.dim == top:
            # from genus 2 on maximal cells are trivalent and generic; genus
            # 1 has one cell, a bare weight-1 vertex
            if g >= 2:
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
    above = {i: {m for m in maximal if i in adjacency[m]} for i in t_a + t_b + t_c}
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


def _permute_point(perm_dict, point):
    """Push a point forward along an edge permutation: (s.x)_{s(e)} = x_e."""
    return {perm_dict[e]: v for e, v in point.items()}


def _canonical_cell_point(cell: ModuliCell, point: dict) -> tuple:
    labels = cell.weighted.graph.edge_labels
    best = None
    for a in cell.aut:
        moved = _permute_point(a.as_dict(), point)
        key = tuple(moved[e] for e in labels)
        if best is None or key < best:
            best = key
    return best


@dataclass(frozen=True)
class LiftReport:
    genus: int
    points_checked: int
    failures: tuple


def check_unique_lifts(g: int, seed: int = 2024, n_points: int = 500) -> LiftReport:
    """Every sampled length vector lifts to exactly one enriched cell point.

    For each stable weighted graph, sample positive rational points x and
    push them around Aut(graph, weights); each translate locates an
    enriched structure, which is matched back to its cell representative.
    All translates must produce one and the same (cell, orbit point) pair.
    """
    cells_of = {}  # every census graph with edges has a cell; dicts keep the census order
    for c in enumerate_cells(g):
        if c.weighted.graph.n_edges:
            cells_of.setdefault(c.weighted, []).append(c)
    graphs = list(cells_of)
    rng = random.Random(seed)
    per_graph = [n_points // len(graphs) + (1 if i < n_points % len(graphs) else 0) for i in range(len(graphs))]
    failures = []
    checked = 0
    for wg, budget in zip(graphs, per_graph):
        graph = wg.graph
        labels = graph.edge_labels
        auts = [(a.as_dict(), a.inverse().as_dict()) for a in automorphisms(wg)]
        cones = [(eg.preorder, structure_cone(eg)) for eg in enriched_structures(graph)]
        # each structure in a cell's orbit, with the automorphisms t carrying
        # the cell's representative onto it (kept as their inverses)
        cell_of, carriers = {}, {}
        for c in cells_of[wg]:
            for t, t_inv in auts:
                q = c.preorder.relabel(t)
                cell_of.setdefault(q, c)
                carriers.setdefault((c.index, q), []).append(t_inv)
        for _ in range(budget):
            x = {e: Fraction(rng.randint(1, 256), rng.randint(1, 64)) for e in labels}
            vec = tuple(x[e] for e in labels)
            lifts = set()
            for s, _ in auts:
                y = _permute_point(s, x)
                p = locate(graph, y).preorder
                point = tuple(y[e] for e in labels)
                hits = [q for q, cone in cones if cone.contains(point)]
                if hits != [p]:
                    failures.append((repr(wg), vec, "open cones not disjoint"))
                    continue
                cell = cell_of[p]
                cands = {_canonical_cell_point(cell, _permute_point(t_inv, y)) for t_inv in carriers[(cell.index, p)]}
                if len(cands) != 1:
                    failures.append((repr(wg), vec, "orbit point not well defined"))
                    continue
                lifts.add((cell.index, cands.pop()))
            if len(lifts) != 1:
                failures.append((repr(wg), vec, f"{len(lifts)} lifts"))
            checked += 1
    return LiftReport(g, checked, tuple(failures))
