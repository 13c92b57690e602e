"""The moduli census and gluing as first written.

Kept as the slow reference the key-table code in ``enrichfan.moduli`` is
tested against.  The census builds a ``MultiGraph`` for every candidate
tuple before checking it; the gluing tests every ordered pair of cells
through ``cell_specializes_to``, which enumerates the specializations of
the source and compares two n!-ordering canonical keys per
specialization.  ``_canonical_key``, ``_indexed`` and ``_frame_map`` are the
frame map as ``moduli`` computed it before the key search moved to
``graphs``; the frames and edge maps must not change.  ``_structure_orbits``,
``enumerate_cells`` and ``check_unique_lifts`` are the census cells and the
lift check from before the census became one walk: the lift check builds
the cells, automorphisms, structures and orbits again for itself, and
every cell goes through the checking ``ModuliCell`` constructor.

``_connected`` and ``enumerate_stable_weighted_graphs_on_tuples`` are the
census on vertex-index tuples as it ran before its connectivity test went
through ``graphs._roots``, copied verbatim (the second under a new name):
``_connected`` is its own union-find.  With ``_compositions``, the split
of the weights among the vertices, copied verbatim too, it is the
candidate loop the library ran before it generated stable graphs by
contracting trivalent ones.

``aut_enriched`` (the stabilizer of a preorder, filtered from every
automorphism) and ``contract_weighted`` are the library functions these
read, copied verbatim.

``_ranks`` and ``_refined_form`` are the colour-refinement form the
census deduplicated by before it deduplicated by the canonical key,
copied verbatim; ``_refined_form`` renumbers with ``moduli._renumbered``.

``_reached``, ``key_table_cell_adjacency`` and ``key_table_classify_cells``
are the key-table gluing as it ran before it read the face table
(``enriched._faces``): copied verbatim but for the last two names, with
``_reached`` enumerating each cell's specializations through
``reference_enriched.face_specializations`` and framing each lower set
once per cell.  They still share ``_cell_table`` with the library; since
that table holds no frame labels, ``_reached`` takes them off the frame
(``_graph_from_key``) and moves rows with ``label_mover``.

``label_frame_map``, ``label_mover`` and ``_images`` are ``moduli``'s frame
map and row mover as they ran on labels before ``moduli`` took its edge
bijections as edge-index maps: copied verbatim but for the first two
names.  ``label_frame_map`` gives each edge's frame label ``e1``, ``e2``,
..., which from ten edges on sort as strings, not by key position.

``all_faces_classify_cells`` is ``classify_cells`` as it ran before it read
only the facets of the maximal cells, copied verbatim but for its name and
the module prefixes: ``moduli._reached`` reads every face of each maximal
cell off ``enriched._faces``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from enrichfan import moduli
from enrichfan.cones import containing, structure_cone
from enrichfan.enriched import enriched_structures, locate, specializations
from enrichfan.errors import GuardExceededError
from enrichfan.graphs import (
    MultiGraph,
    WeightedGraph,
    _canonical_orderings,
    automorphisms,
    contract,
    contracted_weights,
    edge_ends,
    genus,
    is_stable,
    weighted_isomorphisms,
)
from enrichfan.moduli import (
    GENUS_GUARD,
    CellClassification,
    LiftReport,
    ModuliCell,
    _cell_table,
    _graph_from_key,
    _renumbered,
    classify_census,
)
from reference_enriched import face_specializations
from reference_preorders import relabel


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _ranks(colours: list) -> list:
    index = {c: k for k, c in enumerate(sorted(set(colours)))}
    return [index[c] for c in colours]


def _refined_form(weights: tuple, pairs: tuple) -> tuple:
    """A canonical form of a weighted graph on vertex indices.

    Colour refinement starts from each vertex's weight and loop count and
    splits colour classes by the multiset of neighbour colours until none
    splits.  A class left with several vertices is split by
    individualizing each of them in turn, the least such class first.
    Each discrete colouring orders the vertices; the form is the least
    ``(weights, sorted pairs)`` encoding over these orderings.
    """
    n = len(weights)
    loops = [0] * n
    near = [[] for _ in range(n)]
    for u, v in pairs:
        if u == v:
            loops[u] += 1
        else:
            near[u].append(v)
            near[v].append(u)
    best = None
    todo = [_ranks(list(zip(weights, loops)))]
    while todo:
        colours = todo.pop()
        while True:
            refined = _ranks([(c, tuple(sorted([colours[u] for u in near[v]]))) for v, c in enumerate(colours)])
            if max(refined) == max(colours):
                break
            colours = refined
        if max(colours) < n - 1:
            tied = min(c for c in colours if colours.count(c) > 1)
            todo.extend(_ranks([2 * c + (c == tied and u != v) for u, c in enumerate(colours)]) for v in range(n) if colours[v] == tied)
            continue
        order = [0] * n
        for v, c in enumerate(colours):
            order[c] = weights[v]
        leaf = (tuple(order), _renumbered(pairs, colours))
        if best is None or leaf < best:
            best = leaf
    return best


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


def contract_weighted(wg: WeightedGraph, s) -> WeightedGraph:
    """Contract edges of a weighted graph, with the weights of ``contracted_weights``."""
    return WeightedGraph(contract(wg.graph, s), contracted_weights(wg, s))


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
            if relabel(sp.target.preorder, iso.as_dict()) == b.preorder:
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


def _reached(a: ModuliCell, table: dict) -> set:
    """Indices of the cells in ``table`` isomorphic to a specialization of ``a``, ``a`` excluded.

    All specializations contracting one lower set share a target graph, so
    that graph is weighted and given its table into the frame once.
    """
    hits = set()
    frames = {}
    for sp in face_specializations(a.enriched()):
        s = sp.contracted
        if s not in frames:
            target = sp.target.graph
            key, to_frame = _frame_map(WeightedGraph(target, contracted_weights(a.weighted, s)))
            orbit = table.get(key)
            frames[s] = None if orbit is None else (orbit, label_mover(target.edge_labels, to_frame, _graph_from_key(key).graph.edge_labels))
        if frames[s] is not None:
            orbit, move = frames[s]
            hits.update(orbit.get(move(sp.target.preorder.rows), ()))
    hits.discard(a.index)
    return hits


def key_table_cell_adjacency(cells) -> dict:
    """Map each cell index to the indices of its proper specializations."""
    table = _cell_table(cells)
    return {a.index: sorted(_reached(a, table)) for a in cells}


def key_table_classify_cells(g: int) -> CellClassification:
    """Maximal and codimension-one cells, with closure multiplicities."""
    cells = enumerate_cells(g)
    table = _cell_table([c for c in cells if c.dim == 3 * g - 4])
    return classify_census(cells, {c.index: _reached(c, table) for c in cells if c.dim == 3 * g - 3})


def aut_enriched(wg: WeightedGraph, p) -> list:
    """The subgroup of Aut(graph, weights) whose edge action preserves ``p``."""
    mapping_auts = automorphisms(wg)
    return [a for a in mapping_auts if relabel(p, a.as_dict()) == p]


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
        images = [relabel(p, a.as_dict()) for a in auts]
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
        auts = [(t, {b: e for e, b in t.items()}) for t in (a.as_dict() for a in automorphisms(wg))]
        structs = enriched_structures(graph)
        cones = [structure_cone(eg) for eg in structs]
        # each structure in a cell's orbit, with the automorphisms t carrying
        # the cell's representative onto it (kept as their inverses)
        cell_of, carriers = {}, {}
        for c in cells_of[wg]:
            for t, t_inv in auts:
                q = relabel(c.preorder, t)
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
                hits = [structs[i].preorder for i in containing(cones, point)]
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


def enumerate_stable_weighted_graphs_on_tuples(g: int) -> list:
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


def all_faces_classify_cells(g: int) -> CellClassification:
    """Maximal and codimension-one cells, with closure multiplicities."""
    cells = moduli.enumerate_cells(g)
    table = _cell_table([c for c in cells if c.dim == 3 * g - 4])
    return classify_census(cells, moduli._reached([c for c in cells if c.dim == 3 * g - 3], table))


def label_frame_map(wg: WeightedGraph) -> tuple:
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


def label_mover(source: tuple, mapping, target: tuple):
    """Move closed rows over the labels ``source`` along the label bijection
    ``mapping`` onto rows over the labels ``target``: the rows of the
    preorder transported along ``mapping``.

    Bit ``i`` goes to the index of ``mapping[source[i]]``: ``table[m]`` is
    the image of the mask ``m``, filled from ``m`` less its lowest bit, and
    target row ``j`` is the image of source row ``back[j]``.
    """
    images = _images(source, mapping, target)
    table = [0] * (1 << len(images))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] | 1 << images[low.bit_length() - 1]
    back = sorted(range(len(images)), key=images.__getitem__)
    return lambda rows: tuple([table[rows[i]] for i in back])


def _images(source: tuple, mapping, target: tuple) -> list:
    """The index in ``target`` of the image of each label of ``source``."""
    index = {e: j for j, e in enumerate(target)}
    return [index[mapping[e]] for e in source]
