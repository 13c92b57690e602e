"""Cell-level model of the moduli of enriched tropical curves at small genus.

The space itself is never built: a cell is an isomorphism class of stable
weighted graphs with an enriched structure, carrying its dimension (the
rank), its automorphism group, and specialization arrows to other cells.

A weighted graph is identified by its canonical key: the smallest
``(weights, sorted vertex-index pairs)`` encoding over all vertex
orderings.  The key, the frames below and every isomorphism and
automorphism come from one search over ordered vertex partitions in
``graphs`` (``_canonical_orderings``), which returns the key and each
ordering giving it.  The stable graphs are generated on those index
tuples: the trivalent weight-0 graphs of the genus, closed under
single-edge contraction, one kept per key, and a graph is built only for
each key, its *frame* (``_graph_from_key``).

Structures are moved as preorder rows along edge-index maps (from
``graphs._edge_maps``), never as labelled preorders or permutations: a map
becomes a table (``_mover``) holding the image of every edge mask, so
moving closed rows is one lookup per row.

The census itself is one walk (``_census``): for each stable graph it
takes the automorphisms and the enriched structures once, builds one
table per automorphism, and maps the rows of every structure to the least
structure of its orbit together with the automorphisms carrying that one
onto it.  ``enumerate_cells`` reads each orbit's least structure and its
stabilizer off the map, labelling each automorphism once, and
``check_unique_lifts`` reads its cell lookup and carriers off the same
map, moving points scaled to integers by edge index permutations and
locating them in the recursion core on edge indices
(``enriched._located_rows``).  Census cells, like the core's
structures, are correct by construction and skip the checks of the
public ``ModuliCell`` and ``EnrichedGraph`` constructors.

The gluing goes through one table scoped to a call (``_cell_table``):
each weighted graph is framed once (``_frame_map``: the frame's labels
``e1``, ``e2``, ... sort as strings, so past nine edges a frame edge's
index is not its key position), each cell's rows are carried into its
frame along the first ordering that gives the key, then moved by every
automorphism of the frame, and the table maps each resulting
``(key, rows)`` to the cell.  ``_reached``, one walk for
``cell_adjacency`` and ``classify_cells``, reads each cell's face table
(``enriched._faces``), frames each (weighted graph, lower set) once per
call, carries the target rows into the frame and looks them up: work
linear in the number of cells, and no specialization object.
``classify_cells`` reads only the facets of the maximal cells, which drop
one ray (the row forest in ``enriched``): no other face has codimension one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .cones import containing, structure_cone
from .enriched import EnrichedGraph, _faces, _located_rows, _trusted, enriched_structures
from .errors import GuardExceededError
from .graphs import MultiGraph, WeightedGraph, _canonical_orderings, _contract_weighted, _edge_maps, _labelled, _Value, _roots, edge_ends
from .preorders import Preorder

GENUS_GUARD = 3


def _frame_map(wg: WeightedGraph) -> tuple:
    """The canonical key of ``wg`` and an edge bijection onto its frame:
    the index in the frame of the image of each edge of ``wg``.

    The frame is ``_graph_from_key(key)``; the bijection comes from the
    vertex ordering that gives the key.  Parallel edges (and loops at one
    vertex) may be matched in any order, so they are taken as they come.
    """
    ends = edge_ends(wg.graph)
    key, (pos, *_) = _canonical_orderings(tuple(map(wg.weight, wg.graph.vertices)), ends)
    labels = [f"e{k + 1}" for k in range(len(ends))]  # the frame's, at each key position
    index = {e: j for j, e in enumerate(sorted(labels))}
    slots = {}
    for pair, e in zip(key[1], labels):
        slots.setdefault(pair, []).append(index[e])
    images = []
    for u, v in ends:
        a, b = pos[u], pos[v]
        images.append(slots[(a, b) if a <= b else (b, a)].pop())
    return key, images


def _graph_from_key(key) -> WeightedGraph:
    weights, pairs = key
    vertices = [f"v{i + 1}" for i in range(len(weights))]
    edges = {}
    for idx, (i, j) in enumerate(pairs):
        edges[f"e{idx + 1}"] = (vertices[i], vertices[j])
    g = MultiGraph(vertices, edges)
    return WeightedGraph(g, {vertices[i]: weights[i] for i in range(len(weights))})


def _trivalent(g: int) -> list:
    """The trivalent weight-0 graphs of genus ``g`` on vertex indices, up to labelling.

    Each vertex's three half-edges are filled in turn (a loop takes two),
    the least vertex with one left joining it to a vertex no smaller, in
    nondecreasing order, so a multiset of pairs comes once.  A vertex is
    first joined only from a smaller one, as one past the largest so far:
    numbering by breadth-first search puts every connected graph in that
    form, and a graph that reaches a vertex no earlier half-edge joined is
    disconnected, so it is dropped there.
    """
    n = 2 * g - 2
    free = [3] * n
    found = []

    def fill(pairs, top):
        i = next((v for v in range(n) if free[v]), None)
        if i is None:
            found.append(tuple(pairs))
        elif i <= top:
            for j in range(pairs[-1][1] if pairs and pairs[-1][0] == i else i, min(n, top + 2)):
                if free[j] > (i == j):
                    free[i] -= 1
                    free[j] -= 1
                    fill(pairs + [(i, j)], max(top, j))
                    free[i] += 1
                    free[j] += 1

    fill([], 0)
    return found


def _contractions(weights: tuple, pairs: tuple):
    """Each single-edge contraction of a weighted graph on vertex indices.

    A loop adds 1 to its vertex's weight; any other edge merges its ends
    into the smaller, which takes both weights, and its parallel copies
    become loops there.  Parallel copies contract alike, so each pair is
    contracted once.
    """
    for i, j in set(pairs):
        rest = list(pairs)
        rest.remove((i, j))
        w = list(weights)
        if i == j:
            w[i] += 1
        else:
            w[i] += w.pop(j)
            rest = _renumbered(rest, [i if x == j else x - (x > j) for x in range(len(weights))])
        yield tuple(w), tuple(rest)


def _renumbered(pairs, to) -> tuple:
    """The sorted pairs with each vertex ``u`` renamed ``to[u]``, each pair sorted."""
    return tuple(sorted((to[u], to[v]) if to[u] <= to[v] else (to[v], to[u]) for u, v in pairs))


def enumerate_stable_weighted_graphs(g: int) -> list:
    """All stable weighted graphs of genus ``g`` up to isomorphism.

    Every stable graph of genus g >= 2 is a contraction of a trivalent
    graph of genus g with all weights 0 (Maggiolo and Pagani, 2011): the
    weights record the genus the contracted edges lose.  So the
    trivalent graphs (``_trivalent``) are closed under single-edge
    contraction (``_contractions``) on vertex-index tuples, one graph kept
    per canonical key; genus 1 is the one weight-1 vertex.  Representatives
    are rebuilt from the sorted keys, so output labeling is deterministic
    (vertices v1.., edges e1..).
    """
    if g < 1:
        raise ValueError(f"genus must be at least 1, got {g}")
    if g > GENUS_GUARD:
        raise GuardExceededError(f"genus must lie in 1..{GENUS_GUARD}")
    todo = [((0,) * (2 * g - 2), pairs) for pairs in _trivalent(g)] if g > 1 else [((1,), ())]
    seen, keys = set(), set()
    while todo:
        graph = todo.pop()
        if graph not in seen:  # half the contractions repeat a labelled graph
            seen.add(graph)
            key = _canonical_orderings(*graph)[0]
            if key not in keys:
                keys.add(key)
                todo.extend(_contractions(*graph))
    return [_graph_from_key(k) for k in sorted(keys)]


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


def _mover(images):
    """Move closed rows along the edge bijection taking edge ``i`` to edge
    ``images[i]``: the rows of the preorder transported along it.

    ``table[m]`` is the image of the mask ``m``, filled from ``m`` less its
    lowest bit, and target row ``j`` is the image of source row ``back[j]``.
    """
    table = [0] * (1 << len(images))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] | 1 << images[low.bit_length() - 1]
    back = sorted(range(len(images)), key=images.__getitem__)
    return lambda rows: tuple([table[rows[i]] for i in back])


def _census(g: int):
    """Walk the stable weighted graphs of genus ``g`` and their structure orbits.

    Yields ``(wg, auts, structs, orbit)`` per graph: its automorphisms
    (``_edge_maps``), its enriched structures in canonical order, and a dict
    taking each structure's rows to ``(rep, carriers)``, the preorder of the
    least structure of its orbit under Aut(graph, weights) and the positions
    in ``auts`` of the automorphisms carrying ``rep`` onto it.  The carriers
    of ``rep`` onto itself are its stabilizer: the automorphisms whose edge
    action preserves its preorder.  Each automorphism moves rows by one
    edge-index table (``_mover``), built once per graph.
    """
    for wg in enumerate_stable_weighted_graphs(g):
        auts = _edge_maps(wg, wg)
        structs = enriched_structures(wg.graph)
        moves = [_mover(edges) for edges, _ in auts]
        orbit = {}
        for eg in structs:  # canonical order: the first structure not yet reached is its orbit's least
            rows = eg.preorder.rows
            if rows not in orbit:
                for k, move in enumerate(moves):
                    orbit.setdefault(move(rows), (eg.preorder, []))[1].append(k)
        if len(orbit) != len(structs):
            raise RuntimeError(f"automorphisms of {wg!r} carry its {len(structs)} enriched structures onto {len(orbit)} preorders")
        yield wg, auts, structs, orbit


def enumerate_cells(g: int) -> list:
    """One cell per isomorphism class of stable weighted enriched graph."""
    cells = []
    for wg, auts, _, orbit in _census(g):
        labelled = [_labelled(wg.graph, wg.graph, *a) for a in auts]  # each lies in some stabilizer
        for rows, (rep, carriers) in orbit.items():
            if rows == rep.rows:
                aut = tuple([labelled[k] for k in carriers])
                cells.append(_trusted(ModuliCell, index=len(cells), weighted=wg, preorder=rep, genus=g, aut=aut))
    return cells


def _cell_table(cells) -> dict:
    """Map each frame key to a dict from rows over the frame's edges to cell
    indices.

    Each cell's rows are carried into the frame of its weighted graph and
    then moved by every automorphism of the frame, each by its edge-index
    table, so the rows listed under a key are exactly those of preorders
    isomorphic to one of the cells.  Each weighted graph is framed, and
    given its table into the frame, once per call.
    """
    table, frame_moves, framed = {}, {}, {}
    for c in cells:
        wg = c.weighted
        if wg not in framed:
            key, images = _frame_map(wg)
            if key not in table:
                frame = _graph_from_key(key)
                frame_moves[key] = [_mover(edges) for edges, _ in _edge_maps(frame, frame)]
                table[key] = {}
            framed[wg] = table[key], frame_moves[key], _mover(images)
        orbit, moves, into_frame = framed[wg]
        rows = into_frame(c.preorder.rows)
        for move in moves:
            orbit.setdefault(move(rows), set()).add(c.index)
    return table


def _reached(sources, table: dict, facets: bool = False) -> dict:
    """Map each cell of ``sources`` to the indices of the cells in ``table``
    isomorphic to one of its proper specializations, read off its face table
    (or only its facets).

    All faces contracting one lower set of one weighted graph share a target
    graph, so each ``(weighted graph, lower-set mask)`` is contracted,
    weighted, framed and given its table into the frame once per call.
    """
    frames = {}
    out = {}
    for a in sources:
        wg = a.weighted
        by_mask = frames.setdefault(wg, {})
        hits = set()
        for mask, targets in _faces(a.preorder.rows, facets).items():
            if mask not in by_mask:
                key, images = _frame_map(_contract_weighted(wg, mask))
                orbit = table.get(key)
                by_mask[mask] = None if orbit is None else (orbit, _mover(images))
            if by_mask[mask] is not None:
                orbit, move = by_mask[mask]
                n = len(a.preorder.rows) - mask.bit_count()
                w, full = (n + 7) & -8, (1 << n) - 1
                for q in targets:  # target row i sits at bit w*i
                    hits.update(orbit.get(move([q >> w * i & full for i in range(n)]), ()))
        out[a.index] = hits - {a.index}
    return out


def cell_adjacency(cells) -> dict:
    """Map each cell index to the indices of its proper specializations."""
    return {i: sorted(hits) for i, hits in _reached(cells, _cell_table(cells)).items()}


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
    return classify_census(cells, _reached([c for c in cells if c.dim == 3 * g - 3], table, facets=True))


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
                if any(graph.valence(v) != 3 for v in graph.vertices):
                    raise RuntimeError(f"maximal cell {c.index} is not trivalent")
                if not c.preorder.is_partial_order():
                    raise RuntimeError(f"maximal cell {c.index} is not generic")
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
            raise RuntimeError(f"codimension-one cell {c.index} fits no expected type")
    above = {i: set() for i in t_a + t_b + t_c}
    for m in maximal:
        for i in adjacency[m]:
            if i in above:
                above[i].add(m)
    closure_counts = {i: len(ms) for i, ms in above.items()}
    # maximal cells are adjacent when a common codimension-one cell sits in
    # both closures; the adjacency graph must be connected
    root = _roots((min(ms), m) for ms in above.values() for m in ms)
    connected = len({root.get(m, m) for m in maximal}) <= 1
    return CellClassification(
        tuple(maximal), tuple(t_a), tuple(t_b), tuple(t_c), closure_counts, connected
    )


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

    Points are drawn as reduced fractions and scaled to integers, which
    keeps every located structure, cone and orbit point; failures record
    the ``Fraction`` vector.
    """
    if n_points < 0:
        raise ValueError(f"n_points must be nonnegative, got {n_points}")
    census = [walked for walked in _census(g) if walked[0].graph.n_edges]
    rng = random.Random(seed)
    per_graph = [n_points // len(census) + (1 if i < n_points % len(census) else 0) for i in range(len(census))]
    failures = []
    for (wg, auts, structs, orbit), budget in zip(census, per_graph):
        labels = wg.graph.edge_labels
        ends = edge_ends(wg.graph)
        perms = [edges for edges, _ in auts]  # auts[k] takes edge i to perms[k][i]
        pushes = [sorted(range(len(labels)), key=perm.__getitem__) for perm in perms]  # their inverses
        cones = [structure_cone(eg) for eg in structs]
        splits = {}  # each mask's contraction and blocks, shared by the points on this graph
        for _ in range(budget):
            draws = [(rng.randint(1, 256), rng.randint(1, 64)) for _ in labels]
            draws = [(num // d, den // d) for num, den in draws for d in [gcd(num, den)]]
            scale = lcm(*(den for _, den in draws))
            x = [num * (scale // den) for num, den in draws]
            lifts = set()
            bad = []
            for back in pushes:
                y = tuple([x[i] for i in back])  # x pushed forward: y[perms[k][i]] = x[i]
                p = _located_rows(ends, y, splits)
                hits = [structs[i].preorder.rows for i in containing(cones, y)]
                if hits != [p]:
                    bad.append("open cones not disjoint")
                    continue
                rep, carriers = orbit[p]
                # y pulled back along each automorphism carrying the representative onto p
                pulled = (tuple([y[j] for j in perms[t]]) for t in carriers)
                stabilizer = [perms[k] for k in orbit[rep.rows][1]]
                cands = {min(tuple([z[j] for j in a]) for a in stabilizer) for z in pulled}
                if len(cands) != 1:
                    bad.append("orbit point not well defined")
                    continue
                lifts.add((rep, cands.pop()))
            if len(lifts) != 1:
                bad.append(f"{len(lifts)} lifts")
            if bad:
                vec = tuple([Fraction(num, den) for num, den in draws])
                failures += [(repr(wg), vec, why) for why in bad]
    return LiftReport(g, sum(per_graph), tuple(failures))
