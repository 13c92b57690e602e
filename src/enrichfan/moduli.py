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
its frame the same way and looks it up, so ``cell_adjacency`` and
``classify_cells`` do work linear in the number of cells instead of
testing every pair.

The census itself is one walk (``_census``): for each stable graph it
takes the automorphisms and the enriched structures once and maps every
structure to the least structure of its orbit together with the
automorphisms carrying that one onto it.  It is the one place census
structures are moved by automorphisms; ``enumerate_cells`` reads each
orbit's least structure and its stabilizer off the map, and
``check_unique_lifts`` reads its cell lookup and carriers off the same
map.  Census cells, like the structures the recursion core builds, are
correct by construction and skip the checks of the public ``ModuliCell``
and ``EnrichedGraph`` constructors.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .cones import containing, structure_cone
from .enriched import EnrichedGraph, _trusted, enriched_structures, locate, specializations
from .errors import GuardExceededError
from .graphs import EdgePermutation, MultiGraph, WeightedGraph, _canonical_orderings, _Value, _roots, automorphisms, contracted_weights, edge_ends
from .preorders import Preorder

GENUS_GUARD = 3


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
                if sum(d < 3 for d in valence) > g - b1 or len(_roots(combo)) != n - 1:
                    continue
                for weights in weightings:
                    if all(w > 0 or d >= 3 for w, d in zip(weights, valence)):
                        seen.add(_canonical_orderings(weights, combo)[0])
    return [_graph_from_key(k) for k in sorted(seen)]


class ModuliCell(_Value):
    """An isomorphism class of stable weighted enriched graphs."""

    __slots__ = ("index", "weighted", "preorder", "genus", "aut")

    def __init__(self, index: int, weighted: WeightedGraph, preorder: Preorder, genus: int, aut: tuple):
        self.index = index
        self.weighted = weighted
        self.preorder = preorder
        self.genus = genus
        self.aut = aut  # edge permutations preserving weights and the preorder
        EnrichedGraph(weighted.graph, preorder)  # validates

    @property
    def dim(self) -> int:
        return self.preorder.rank

    @property
    def aut_order(self) -> int:
        return len(self.aut)

    def enriched(self) -> EnrichedGraph:
        return _trusted(EnrichedGraph, graph=self.weighted.graph, preorder=self.preorder)


def _census(g: int):
    """Walk the stable weighted graphs of genus ``g`` and their structure orbits.

    Yields ``(wg, auts, structs, orbit)`` per graph: its automorphisms, its
    enriched structures in canonical order, and a dict taking each
    structure's preorder to ``(rep, carriers)``, the least structure of its
    orbit under Aut(graph, weights) and the automorphisms carrying ``rep``
    onto it.  The carriers of ``rep`` onto itself are its stabilizer: the
    automorphisms whose edge action preserves its preorder.
    """
    for wg in enumerate_stable_weighted_graphs(g):
        auts = automorphisms(wg)
        structs = enriched_structures(wg.graph)
        orbit = {}
        for eg in structs:  # canonical order: the first structure not yet reached is its orbit's least
            if eg.preorder not in orbit:
                for a in auts:
                    orbit.setdefault(eg.preorder.relabel(a.as_dict()), (eg.preorder, []))[1].append(a)
        assert len(orbit) == len(structs)  # automorphisms carry structures onto structures
        yield wg, auts, structs, orbit


def enumerate_cells(g: int) -> list:
    """One cell per isomorphism class of stable weighted enriched graph."""
    cells = []
    for wg, _, _, orbit in _census(g):
        for p, (rep, carriers) in orbit.items():
            if p == rep:
                cells.append(_trusted(ModuliCell, index=len(cells), weighted=wg, preorder=rep, genus=g, aut=tuple(carriers)))
    return cells


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


def cell_adjacency(cells) -> dict:
    """Map each cell index to the indices of its proper specializations."""
    table = _cell_table(cells)
    return {a.index: sorted(_reached(a, table)) for a in cells}


class CellClassification(_Value):
    __slots__ = (
        "maximal",
        "codim1_valence_four",
        "codim1_weight_one_leaf",
        "codim1_merged_classes",
        "closure_counts",
        "connected_through_codim1",
    )

    def __init__(
        self,
        maximal: tuple,
        codim1_valence_four: tuple,
        codim1_weight_one_leaf: tuple,
        codim1_merged_classes: tuple,
        closure_counts: dict,
        connected_through_codim1: bool,
    ):
        self.maximal = maximal
        self.codim1_valence_four = codim1_valence_four  # one 4-valent vertex, weights 0, generic
        self.codim1_weight_one_leaf = codim1_weight_one_leaf  # one valence-1 weight-1 vertex, generic
        self.codim1_merged_classes = codim1_merged_classes  # 3-regular, one simple merge below generic
        self.closure_counts = closure_counts  # codim-1 cell index -> number of maximal cells above
        self.connected_through_codim1 = connected_through_codim1


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
    root = _roots((min(ms), m) for ms in above.values() for m in ms)
    connected = len({root.get(m, m) for m in maximal}) <= 1
    return CellClassification(
        tuple(maximal), tuple(t_a), tuple(t_b), tuple(t_c), closure_counts, connected
    )


def _permute_point(perm_dict, point):
    """Push a point forward along an edge permutation: (s.x)_{s(e)} = x_e."""
    return {perm_dict[e]: v for e, v in point.items()}


def _canonical_cell_point(labels, stabilizer, point: dict) -> tuple:
    """The least coordinate vector of ``point`` over its images under ``stabilizer``.

    The stabilizer is a group, so pulling ``point`` back along each of its
    elements gives the same images as pushing it forward.
    """
    return min(tuple(point[a[e]] for e in labels) for a in map(EdgePermutation.as_dict, stabilizer))


class LiftReport(_Value):
    __slots__ = ("genus", "points_checked", "failures")

    def __init__(self, genus: int, points_checked: int, failures: tuple):
        self.genus = genus
        self.points_checked = points_checked
        self.failures = failures


def check_unique_lifts(g: int, seed: int = 2024, n_points: int = 500) -> LiftReport:
    """Every sampled length vector lifts to exactly one enriched cell point.

    For each stable weighted graph, sample positive rational points x and
    push them around Aut(graph, weights); each translate locates an
    enriched structure, which is matched back to its cell representative.
    All translates must produce one and the same (cell, orbit point) pair.
    """
    census = [walked for walked in _census(g) if walked[0].graph.n_edges]
    rng = random.Random(seed)
    per_graph = [n_points // len(census) + (1 if i < n_points % len(census) else 0) for i in range(len(census))]
    failures = []
    checked = 0
    for (wg, auts, structs, orbit), budget in zip(census, per_graph):
        graph = wg.graph
        labels = graph.edge_labels
        moves = {a: a.as_dict() for a in auts}
        cones = [structure_cone(eg) for eg in structs]
        for _ in range(budget):
            x = {e: Fraction(rng.randint(1, 256), rng.randint(1, 64)) for e in labels}
            vec = tuple(x[e] for e in labels)
            lifts = set()
            for s in moves.values():
                y = _permute_point(s, x)
                p = locate(graph, y).preorder
                point = tuple(y[e] for e in labels)
                hits = [structs[i].preorder for i in containing(cones, point)]
                if hits != [p]:
                    failures.append((repr(wg), vec, "open cones not disjoint"))
                    continue
                rep, carriers = orbit[p]
                # y pulled back along each automorphism carrying the representative onto p
                pulled = ({e: y[moves[t][e]] for e in labels} for t in carriers)
                cands = {_canonical_cell_point(labels, orbit[rep][1], z) for z in pulled}
                if len(cands) != 1:
                    failures.append((repr(wg), vec, "orbit point not well defined"))
                    continue
                lifts.add((rep, cands.pop()))
            if len(lifts) != 1:
                failures.append((repr(wg), vec, f"{len(lifts)} lifts"))
            checked += 1
    return LiftReport(g, checked, tuple(failures))
