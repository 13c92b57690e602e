"""Cell-level model of the moduli of enriched tropical curves at small genus.

The space itself is never built: a cell is an isomorphism class of stable
weighted graphs with an enriched structure, carrying its dimension (the
rank), its automorphism group, and specialization arrows to other cells.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .cones import structure_cone
from .enriched import EnrichedGraph, enriched_structures, locate, specializations
from .errors import GuardExceededError
from .graphs import (
    MultiGraph,
    WeightedGraph,
    automorphisms,
    contract_weighted,
    genus,
    is_stable,
    weighted_isomorphisms,
)
from .preorders import Preorder

GENUS_GUARD = 3


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
    """Orbits of enriched structures under Aut(graph, weights)."""
    auts = automorphisms(wg)
    structs = [eg.preorder for eg in enriched_structures(wg.graph)]
    remaining = set(structs)
    orbits = []
    for p in structs:  # canonical order: the first uncovered structure is its orbit's least
        if p not in remaining:
            continue
        orbit = {p.relabel(a.as_dict()) for a in auts}
        assert orbit <= remaining
        remaining -= orbit
        orbits.append((p, orbit))
    return orbits


def enumerate_cells(g: int, genus_guard: int = GENUS_GUARD) -> list:
    """One cell per isomorphism class of stable weighted enriched graph."""
    cells = []
    idx = 0
    for wg in enumerate_stable_weighted_graphs(g, genus_guard):
        for rep, _ in _structure_orbits(wg):
            cells.append(ModuliCell(idx, wg, rep, g, tuple(aut_enriched(wg, rep))))
            idx += 1
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


@dataclass(frozen=True)
class CellClassification:
    maximal: tuple
    codim1_valence_four: tuple  # one 4-valent vertex, weights 0, generic
    codim1_weight_one_leaf: tuple  # one valence-1 weight-1 vertex, generic
    codim1_merged_classes: tuple  # 3-regular, one simple merge below generic
    closure_counts: dict  # codim-1 cell index -> number of maximal cells above
    connected_through_codim1: bool


def classify_cells(g: int, genus_guard: int = GENUS_GUARD) -> CellClassification:
    """Maximal and codimension-one cells, with closure multiplicities."""
    cells = enumerate_cells(g, genus_guard)
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


def check_unique_lifts(g: int, seed: int = 2024, n_points: int = 500, genus_guard: int = GENUS_GUARD) -> LiftReport:
    """Every sampled length vector lifts to exactly one enriched cell point.

    For each stable weighted graph, sample positive rational points x and
    push them around Aut(graph, weights); each translate locates an
    enriched structure, which is matched back to its cell representative.
    All translates must produce one and the same (cell, orbit point) pair.
    """
    graphs = [wg for wg in enumerate_stable_weighted_graphs(g, genus_guard) if wg.graph.n_edges]
    cells = enumerate_cells(g, genus_guard)
    rng = random.Random(seed)
    per_graph = [n_points // len(graphs) + (1 if i < n_points % len(graphs) else 0) for i in range(len(graphs))]
    failures = []
    checked = 0
    for wg, budget in zip(graphs, per_graph):
        graph = wg.graph
        labels = graph.edge_labels
        key = _canonical_weighted_key(wg)
        own_cells = [c for c in cells if _canonical_weighted_key(c.weighted) == key]
        orbits = {c.index: {c.preorder.relabel(a.as_dict()) for a in automorphisms(wg)} for c in own_cells}
        auts = automorphisms(wg)
        structs = [eg.preorder for eg in enriched_structures(graph)]
        for _ in range(budget):
            x = {e: Fraction(rng.randint(1, 256), rng.randint(1, 64)) for e in labels}
            vec = tuple(x[e] for e in labels)
            lifts = set()
            for s in auts:
                y = _permute_point(s.as_dict(), x)
                p = locate(graph, y).preorder
                hits = [q for q in structs if structure_cone(EnrichedGraph(graph, q)).contains(tuple(y[e] for e in labels))]
                if hits != [p]:
                    failures.append((repr(wg), vec, "open cones not disjoint"))
                    continue
                cell = next(c for c in own_cells if p in orbits[c.index])
                cands = set()
                for t in auts:
                    if cell.preorder.relabel(t.as_dict()) == p:
                        z = _permute_point(t.inverse().as_dict(), y)
                        cands.add(_canonical_cell_point(cell, z))
                if len(cands) != 1:
                    failures.append((repr(wg), vec, "orbit point not well defined"))
                    continue
                lifts.add((cell.index, cands.pop()))
            if len(lifts) != 1:
                failures.append((repr(wg), vec, f"{len(lifts)} lifts"))
            checked += 1
    return LiftReport(g, checked, tuple(failures))
