"""Weighted-graph isomorphisms as the backtracking search found them.

``graphs.weighted_isomorphisms`` now reads every isomorphism off the
orderings that give the canonical key.  The two functions below are the
code it replaced, copied verbatim: ``_vertex_bijections`` extends a partial
vertex map one vertex at a time over candidates with the same weight,
valence and loop count, and keeps it while every parallel count agrees.
``_edge_extensions`` follows, copied verbatim from before it took the
parallel classes prebuilt: it rebuilds them for every vertex map.
"""

from __future__ import annotations

import itertools

from enrichfan.graphs import EdgePermutation, MultiGraph, WeightedGraph, label_key, sort_labels


def _vertex_bijections(wg1: WeightedGraph, wg2: WeightedGraph):
    """Weight- and incidence-preserving bijections V(wg1) -> V(wg2)."""
    g1, g2 = wg1.graph, wg2.graph
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return

    def signature(wg, v):
        g = wg.graph
        return (wg.weight(v), g.valence(v), g.parallel_count(v, v))

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
                g1.parallel_count(v, u) == g2.parallel_count(w, x)
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
