"""The enumeration, validation and location recursions as first written,
and specialization as it ran before it used the recursion core.

Kept as the slow reference the bitmask core in ``enrichfan.enriched`` is
tested against.  Each recursion rebuilds ``MultiGraph`` values and
``Preorder`` closures at every level; the block finder is the original
label-keyed Tarjan, so these recursions share no code with the core
beyond ``MultiGraph``, ``contract`` and ``Preorder``.

``specializations`` and ``specialization_poset_dot`` are copied verbatim.
The first enumerated every structure of each contraction, then kept those
containing the surviving relations; the enumeration it read,
``_structure_rows``, comes from ``enriched_structures``, whose order is
tested against ``_structures`` below.  The second read its arrows from
``specializations``.

``_state`` is copied verbatim from before it merged vertices with
``graphs._roots``: it keeps its own union-find, which joins the second
end's class under the first's.  ``_rows`` is the core as it ran before
its memo was keyed on the mask alone: it is copied verbatim, and keys each
subproblem on the mask together with the contracted ends ``_state``
renumbers.

``_tuple_rows`` and ``_canonical`` are the core and the enumeration order
from before the core packed each structure into one int: ``_tuple_rows``
is the mask-keyed core as it ran on tuples of rows, copied verbatim but
for its name, which its recursive calls follow; ``_canonical`` is copied
verbatim and sorts by a byte key built from each structure's pairs.

``face_specializations`` is ``specializations`` as it ran before its face
loop became the row-level table ``enriched._faces``: it is copied verbatim
but for its name, and makes the same objects in the same order.

``relation_summary`` is copied verbatim from ``formats``, where it ran
``Preorder.quotient()`` on every structure before the DOT's node labels
came off the row forest; ``specialization_poset_dot`` calls this copy.

``_rebuilt_rows`` is ``enriched._rows`` as it ran before each subproblem
took its contraction from its parent, copied verbatim but for its name,
which its recursive calls follow: on every miss of two or more edges it
merges the ends of all the edges outside the mask and splits the result
into blocks, all-loop masks included.  ``pairwise_faces`` is
``enriched._faces`` as it ran before it read each kept edge's target row
off the least face ray through it, copied verbatim but for its name: it
tests every pair of kept edges.

``_summed_rows`` is ``enriched._rows`` as it ran before each bottoms
function handed it the bottom's spread: copied verbatim but for its name,
which its recursive calls follow, it sums each bottom's packed rows one
shifted mask at a time.  ``_nonempty_submasks``, ``_bottoms_of`` and
``_argmin`` are copied verbatim from the same commit: they take a mask and
give bottoms alone, the protocol of every reference core here, which the
library's bottoms, taking a row width and giving ``(bottom, spread)``
pairs, no longer serve.  ``facewise_faces`` is ``enriched._faces`` as it
ran before it squeezed each ray once per lower set, copied verbatim but for
its name: it squeezes the least rays of each face anew.
``trusted_specializations`` is ``enriched.specializations`` from the same
commit, copied verbatim but for its name and the face table it reads
(``facewise_faces``), and builds its objects through ``_trusted``.

``check_specialization`` is ``Specialization``'s constructor check as it ran on
labels, before the check moved to rows.  ``Preorder`` no longer has the
``is_lower_set``, ``restrict``, ``contains`` and ``lower_sets`` it called,
so it, the recursions and both specialization functions call their copies
in ``reference_preorders``.
"""

from __future__ import annotations

import functools
import itertools
from operator import or_

from enrichfan.enriched import EnrichedGraph, Specialization, _ordered_rows, _trusted, enriched_structures
from enrichfan.graphs import MultiGraph, _contract, _roots, bits, block_masks, contract, label_key
from enrichfan.preorders import Preorder
from reference_preorders import contains, is_lower_set, lower_sets, restrict


def biconnected_components(g: MultiGraph) -> list:
    """The blocks of ``g`` as subgraphs; their edge sets partition ``E(g)``.

    Each loop together with its vertex is its own block.  Parallel edges
    are distinct, so a pair of them forms a cycle and lies in one block.
    Isolated vertices yield no block.
    """
    blocks = [[e] for e in g.loops()]
    adj = {v: [] for v in g.vertices}
    for e in g.edge_labels:
        u, v = g.ends(e)
        if u != v:
            adj[u].append((e, v))
            adj[v].append((e, u))
    disc, low = {}, {}
    used = set()
    edge_stack = []
    clock = 0
    for root in g.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, entry, it = stack[-1]
            descended = False
            for e, w in it:
                if e in used:
                    continue
                used.add(e)
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
                    block = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == entry:
                            break
                    blocks.append(block)
        assert not edge_stack
    out = []
    for block in blocks:
        vs = set()
        for e in block:
            vs.update(g.ends(e))
        out.append(MultiGraph(vs, {e: g.ends(e) for e in block}))
    out.sort(key=lambda b: label_key(b.edge_labels[0]))
    return out


def global_minima(p: Preorder) -> frozenset:
    """Labels below every label; one equivalence class when nonempty."""
    full = (1 << len(p.ground)) - 1
    return frozenset(a for a, row in zip(p.ground, p.rows) if row == full)


def is_biconnected(g: MultiGraph) -> bool:
    if g.n_edges == 0 or not g.is_connected() or g.loops():
        return False
    return len(biconnected_components(g)) == 1


def _is_enriched(g: MultiGraph, p: Preorder) -> bool:
    if g.n_edges <= 1:
        return True  # the only preorder on <= 1 label is the trivial one
    if is_biconnected(g):
        bottom = global_minima(p)
        if not bottom:
            return False
        rest = set(g.edge_labels) - bottom
        return _is_enriched(contract(g, bottom), restrict(p, rest))
    comps = biconnected_components(g)
    comp_of = {}
    for i, c in enumerate(comps):
        for e in c.edge_labels:
            comp_of[e] = i
    for a in g.edge_labels:
        for b in g.edge_labels:
            if comp_of[a] != comp_of[b] and a != b and (p.leq(a, b) or p.leq(b, a)):
                return False
    return all(_is_enriched(c, restrict(p, c.edge_labels)) for c in comps)


@functools.lru_cache(maxsize=None)
def _structures(g: MultiGraph) -> tuple:
    """All enriched structures on ``g``, canonically ordered."""
    labels = g.edge_labels
    if len(labels) <= 1:
        return (Preorder.discrete(labels),)
    if is_biconnected(g):
        found = []
        for k in range(1, len(labels) + 1):
            for bottom in itertools.combinations(labels, k):
                bottom_set = frozenset(bottom)
                rest = [e for e in labels if e not in bottom_set]
                base = [(a, b) for a in bottom for b in labels if a != b]
                for q in _structures(contract(g, bottom_set)):
                    found.append(Preorder.from_relations(labels, base + q.pairs()))
        return tuple(sorted(found, key=lambda p: sorted(map(lambda t: (label_key(t[0]), label_key(t[1])), p.pairs()))))
    comps = biconnected_components(g)
    per_comp = [_structures(c) for c in comps]
    found = []
    for combo in itertools.product(*per_comp):
        pairs = [pair for q in combo for pair in q.pairs()]
        found.append(Preorder.from_relations(labels, pairs))
    return tuple(sorted(found, key=lambda p: sorted(map(lambda t: (label_key(t[0]), label_key(t[1])), p.pairs()))))


def _locate(g: MultiGraph, values: dict) -> Preorder:
    labels = g.edge_labels
    if len(labels) <= 1:
        return Preorder.discrete(labels)
    if is_biconnected(g):
        lo = min(values[e] for e in labels)
        bottom = [e for e in labels if values[e] == lo]
        rest = [e for e in labels if values[e] > lo]
        q = _locate(contract(g, bottom), {e: values[e] for e in rest})
        base = [(a, b) for a in bottom for b in labels if a != b]
        return Preorder.from_relations(labels, base + q.pairs())
    pairs = []
    for c in biconnected_components(g):
        pairs.extend(_locate(c, {e: values[e] for e in c.edge_labels}).pairs())
    return Preorder.from_relations(labels, pairs)


@functools.lru_cache(maxsize=None)
def _structure_rows(g: MultiGraph) -> tuple:
    """Rows of all enriched structures on ``g``, canonically ordered."""
    return tuple(eg.preorder.rows for eg in enriched_structures(g))


def specializations(eg: EnrichedGraph) -> list:
    """All specializations of ``eg``, the identity included.

    A specialization is determined by the contracted lower set together
    with the coarsened structure on the contraction.
    """
    out = []
    for s in lower_sets(eg.preorder):
        target_graph = contract(eg.graph, s)
        surviving = restrict(eg.preorder, set(eg.graph.edge_labels) - s).rows
        kept = [rows for rows in _structure_rows(target_graph) if all(o & ~r == 0 for r, o in zip(rows, surviving))]
        for cand in Preorder._family(target_graph.edge_labels, kept):
            target = _trusted(EnrichedGraph, graph=target_graph, preorder=cand)
            out.append(_trusted(Specialization, source=eg, target=target, contracted=s))
    return out


def face_specializations(eg: EnrichedGraph) -> list:
    """All specializations of ``eg``, the identity included: one per face
    of its closed structure cone, whose rays are the distinct rows.

    A face's set of rays contracts the edges on none of them, a lower set,
    and orders the rest: ``e ≼ f`` exactly when every ray of the face
    through ``e`` passes through ``f``.  Groups come in ``lower_sets``
    order, each in ``_ordered_rows`` order.
    """
    p = eg.preorder
    rays = list(set(p.rows))
    through = [sum(1 << t for t, ray in enumerate(rays) if ray >> e & 1) for e in range(len(p.rows))]
    groups = {}
    for face in range(1 << len(rays)):
        on = [r & face for r in through]  # the face's rays through each edge
        kept = [a for a in on if a]
        w = (len(kept) + 7) & -8
        target = sum(1 << w * i + j for i, a in enumerate(kept) for j, b in enumerate(kept) if a & ~b == 0)
        groups.setdefault(sum(1 << e for e, a in enumerate(on) if not a), []).append(target)
    out = []
    for s in lower_sets(p):
        target_graph = contract(eg.graph, s)
        for cand in Preorder._family(target_graph.edge_labels, _ordered_rows(groups[p._mask(s)], target_graph.n_edges)):
            target = _trusted(EnrichedGraph, graph=target_graph, preorder=cand)
            out.append(_trusted(Specialization, source=eg, target=target, contracted=s))
    return out


def check_specialization(self) -> None:
    """Raise ``ValueError`` unless the specialization ``self`` is one."""
    src, tgt = self.source, self.target
    if not is_lower_set(src.preorder, self.contracted):
        raise ValueError("contracted set must be a lower set of the source")
    if tgt.graph != contract(src.graph, self.contracted):
        raise ValueError("target graph must be the stated contraction")
    rest = set(src.graph.edge_labels) - self.contracted
    if not contains(tgt.preorder, restrict(src.preorder, rest)):
        raise ValueError("target preorder must refine every surviving relation")


def specialization_poset_dot(g: MultiGraph, name: str = "S") -> str:
    """Same-graph specialization arrows among all enriched structures of g."""
    structs = enriched_structures(g)
    ids = {eg.preorder: i for i, eg in enumerate(structs)}
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for eg in structs:
        i = ids[eg.preorder]
        lines.append(f'  p{i} [label="{relation_summary(eg.preorder)}"];')
    for eg in structs:
        for sp in specializations(eg):
            if sp.contracted or sp.is_identity():
                continue
            if sp.target.rank == eg.rank - 1:
                lines.append(f"  p{ids[sp.target.preorder]} -> p{ids[eg.preorder]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _state(ends: tuple, keep: int, merge: int = 0) -> tuple:
    """Ends of the edges in ``keep`` once the edges in ``merge`` are contracted.

    Vertices are renumbered in order of first appearance and edges outside
    ``keep`` get ``None``, so equal subproblems reached along different
    paths get equal states.
    """
    parent = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for e in bits(merge):
        u, v = map(find, ends[e])
        if u != v:
            parent[v] = u
    out = [None] * len(ends)
    number = {}
    for e in bits(keep):
        a, b = (number.setdefault(find(x), len(number)) for x in ends[e])
        out[e] = (a, b) if a <= b else (b, a)
    return tuple(out)


def _rows(ends: tuple, mask: int, bottoms, memo: dict) -> list:
    """Rows of the enriched structures on the edges in ``mask`` whose bottom
    classes are drawn from ``bottoms(block_mask)``.

    Each result has one row per edge index of the whole graph, zero outside
    ``mask``.
    """
    key = (mask, ends)
    found = memo.get(key)
    if found is not None:
        return found
    n = len(ends)
    if mask & (mask - 1) == 0:  # at most one edge: only the discrete structure
        found = [tuple(mask if mask >> i & 1 else 0 for i in range(n))]
    else:
        blocks = block_masks(ends, mask)
        if len(blocks) == 1:
            found = []
            for bottom in bottoms(mask):
                base = tuple(mask if bottom >> i & 1 else 0 for i in range(n))
                rest = mask & ~bottom
                for rows in _rows(_state(ends, rest, bottom), rest, bottoms, memo):
                    found.append(tuple(map(or_, base, rows)))
        else:
            found = None
            for block in blocks:
                part = _rows(_state(ends, block), block, bottoms, memo)
                found = part if found is None else [tuple(map(or_, a, b)) for a in found for b in part]
    memo[key] = found
    return found


# ``enriched._rows`` before it packed each structure into one int, renamed.
def _tuple_rows(ends: tuple, mask: int, bottoms, memo: dict) -> list:
    """Rows of the enriched structures on the edges in ``mask`` whose bottom
    classes are drawn from ``bottoms(block_mask)``.

    ``ends`` are the whole graph's.  The subproblem is G/(E∖mask)
    restricted to ``mask`` however it was reached (a bottom's contraction
    composes with the earlier ones, and contracting the other blocks
    merges no two vertices of a block), so ``memo`` is keyed on ``mask``
    alone and the contraction runs only on a miss.  Blocks come ordered by
    their least edge, so the vertex numbering of the contraction does not
    matter.  Each result has one row per edge index of the whole graph,
    zero outside ``mask``.
    """
    found = memo.get(mask)
    if found is not None:
        return found
    n = len(ends)
    if mask & (mask - 1) == 0:  # at most one edge: only the discrete structure
        found = [tuple(mask if mask >> i & 1 else 0 for i in range(n))]
    else:
        root = _roots(map(ends.__getitem__, bits(((1 << n) - 1) & ~mask))).get
        blocks = block_masks([(root(u, u), root(v, v)) for u, v in ends], mask)
        if len(blocks) == 1:
            found = []
            for bottom in bottoms(mask):
                base = tuple(mask if bottom >> i & 1 else 0 for i in range(n))
                for rows in _tuple_rows(ends, mask & ~bottom, bottoms, memo):
                    found.append(tuple(map(or_, base, rows)))
        else:
            found = None
            for block in blocks:
                part = _tuple_rows(ends, block, bottoms, memo)
                found = part if found is None else [tuple(map(or_, a, b)) for a in found for b in part]
    memo[mask] = found
    return found


# ``enriched._canonical``, the enumeration order before the packed rank.
def _canonical(found: list) -> list:
    """Structure rows in the order of their sorted lists of related pairs.

    Edges are indexed in ``label_key`` order, so the index pairs ``(i, j)``,
    ``i != j``, sort as the label pairs do; they are compared as bytes,
    built once per distinct row."""
    pair_bytes = [
        {row: bytes([x for j in bits(row & ~(1 << i)) for x in (i, j)]) for row in set(column)}
        for i, column in enumerate(zip(*found))
    ]
    return sorted(found, key=lambda rows: b"".join([t[r] for t, r in zip(pair_bytes, rows)]))


def relation_summary(p: Preorder) -> str:
    """Compact description: classes joined by ~, Hasse covers as <."""
    q = p.quotient()
    cls = ["~".join(map(str, c)) for c in q.classes]
    covers = [f"{cls[i]}<{cls[j]}" for i, j in q.hasse]
    covered = {i for pair in q.hasse for i in pair}
    isolated = [cls[i] for i in range(len(cls)) if i not in covered]
    return "; ".join(covers + isolated) or "empty"


# ``enriched._rows`` before its subproblems took their contraction from their parent.
def _rebuilt_rows(ends: tuple, mask: int, bottoms, memo: dict) -> list:
    """The packed enriched structures on the edges in ``mask`` (rows outside
    it zero) whose bottom classes come from ``bottoms(block_mask)``.

    ``ends`` are the whole graph's and ``memo`` is keyed on ``mask`` alone;
    blocks come by least edge, so the contraction's vertex numbering does
    not matter."""
    found = memo.get(mask)
    if found is not None:
        return found
    n = len(ends)
    w = (n + 7) & -8
    if mask & (mask - 1) == 0:  # at most one edge: only the discrete structure
        found = [mask << w * (mask.bit_length() - 1) if mask else 0]
    else:
        root = _roots(map(ends.__getitem__, bits(((1 << n) - 1) & ~mask))).get
        blocks = block_masks([(root(u, u), root(v, v)) for u, v in ends], mask)
        if len(blocks) == 1:
            found = []
            for bottom in bottoms(mask):
                base = sum(mask << w * i for i in bits(bottom))
                found += [base | q for q in _rebuilt_rows(ends, mask & ~bottom, bottoms, memo)]
        else:
            found = None
            for block in blocks:
                part = _rebuilt_rows(ends, block, bottoms, memo)
                found = part if found is None else [a | b for a in found for b in part]
    memo[mask] = found
    return found


# ``enriched._faces`` before it read each target row off the least face ray.
def pairwise_faces(rows: tuple, facets: bool = False) -> dict:
    """The face table of the closed structure cone of the preorder with
    ``rows``, whose rays are the distinct rows: each lower-set mask mapped
    to the packed target rows of its faces, one per face, or only of its
    facets, the faces that drop one ray.

    A face's set of rays contracts the edges on none of them, a lower set,
    and orders the rest: ``e ≼ f`` exactly when every ray of the face
    through ``e`` passes through ``f``.
    """
    rays = list(set(rows))
    through = [sum(1 << t for t, ray in enumerate(rays) if ray >> e & 1) for e in range(len(rows))]
    table = {}
    for face in [(1 << len(rays)) - 1 - (1 << t) for t in range(len(rays))] if facets else range(1 << len(rays)):
        on = [r & face for r in through]  # the face's rays through each edge
        kept = [a for a in on if a]
        w = (len(kept) + 7) & -8
        target = sum(1 << w * i + j for i, a in enumerate(kept) for j, b in enumerate(kept) if a & ~b == 0)
        table.setdefault(sum(1 << e for e, a in enumerate(on) if not a), []).append(target)
    return table


# ``enriched._rows`` before each bottom's rows came from one multiply by its spread.
def _summed_rows(ends, mask: int, bottoms, memo: dict, splits: dict, merge: int = 0) -> list:
    """The packed enriched structures on the edges in ``mask`` (rows outside
    it zero) whose bottom classes come from ``bottoms(block_mask)``.

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
        for bottom in bottoms(mask):
            base = sum(mask << w * i for i in bits(bottom))
            found += [base | q for q in _summed_rows(ends, mask & ~bottom, bottoms, memo, splits, bottom)]
    else:
        found = None
        for block in blocks:
            part = _summed_rows(ends, block, bottoms, memo, splits)
            found = part if found is None else [a | b for a in found for b in part]
    memo[mask] = found
    return found


# The bottoms ``_summed_rows`` and the cores above it take: one mask in, bottoms out.
def _nonempty_submasks(mask: int):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _bottoms_of(rows: tuple):
    """The one bottom class a given preorder allows: its rows that cover the mask."""

    def bottoms(mask):
        bottom = sum(1 << i for i in bits(mask) if rows[i] & mask == mask)
        return (bottom,) if bottom else ()

    return bottoms


def _argmin(values: list):
    """The one bottom class a point allows: its least coordinates on the mask."""

    def bottoms(mask):
        lo = min(values[i] for i in bits(mask))
        return (sum(1 << i for i in bits(mask) if values[i] == lo),)

    return bottoms


# ``enriched._faces`` before it squeezed each ray once per lower set.
def facewise_faces(rows: tuple, facets: bool = False) -> dict:
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
    through = [sum(1 << t for t, ray in enumerate(rays) if ray >> e & 1) for e in range(len(rows))]
    table = {}
    for face in [(1 << len(rays)) - 1 - (1 << t) for t in range(len(rays))] if facets else range(1 << len(rays)):
        on = [a & face for a in through]  # the face's rays through each edge
        lower = sum(1 << e for e, a in enumerate(on) if not a)
        gaps = list(bits(lower))[::-1]
        w = (len(rows) - len(gaps) + 7) & -8
        target, least = 0, {}
        for i, low in enumerate([a & -a for a in on if a]):
            if low not in least:
                row = rays[low.bit_length() - 1]
                for b in gaps:  # close the gap at each contracted edge, highest first
                    row = row >> b + 1 << b | row & (1 << b) - 1
                least[low] = row
            target |= least[low] << w * i
        table.setdefault(lower, []).append(target)
    return table


# ``enriched.specializations`` as it read ``facewise_faces``, its objects built through ``_trusted``.
def trusted_specializations(eg: EnrichedGraph) -> list:
    """All specializations of ``eg``, the identity included: one per face
    of its closed structure cone (``_faces``).  Groups come by size of the
    contracted lower set, then by its sorted edge indices, each group in
    ``_ordered_rows`` order.
    """
    p = eg.preorder
    out = []
    for mask, targets in sorted(facewise_faces(p.rows).items(), key=lambda item: (item[0].bit_count(), list(bits(item[0])))):
        s = p._labels_of(mask)
        target_graph = _contract(eg.graph, mask)
        for cand in Preorder._family(target_graph.edge_labels, _ordered_rows(targets, target_graph.n_edges)):
            target = _trusted(EnrichedGraph, graph=target_graph, preorder=cand)
            out.append(_trusted(Specialization, source=eg, target=target, contracted=s))
    return out
