"""Closed forms and cross-computations that every answer is checked against.

Each ``*_oracle`` builds a function ``answer -> None | reason``.  Closed
forms come from the source paper (Fubini numbers on cycles, 2^n - 1 on
theta graphs, 42 stable graphs and 262 cells at genus 3).  Everything else
is recomputed here by a different route than the library takes, mostly on
plain data.  Only ``structure_counts`` and ``stable_graphs_oracle`` use
library helpers, imported where they run: the CLI workload's worker never
imports the library.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

from inputs import is_two_connected

FUBINI = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683, 7: 47293}
STABLE_GRAPHS = {2: 7, 3: 42}
CELLS = {2: 9, 3: 262}


def plain(g):
    """A library MultiGraph as plain (vertices, label -> ends) data."""
    return tuple(g.vertices), {e: g.ends(e) for e in g.edge_labels}


def structure_counts(g) -> tuple:
    """(structures, generic structures) by counting, never building preorders.

    A biconnected graph takes any nonempty bottom class and recurses on the
    contraction (generic: the bottom class is one edge); otherwise the count
    is the product over blocks.
    """
    from enrichfan import graphs as ef_graphs

    memo = {}

    def count(h):
        if h in memo:
            return memo[h]
        labels = h.edge_labels
        if len(labels) <= 1:
            out = (1, 1)
        elif ef_graphs.is_biconnected(h):
            total = generic = 0
            for k in range(1, len(labels) + 1):
                for bottom in itertools.combinations(labels, k):
                    t, gen = count(ef_graphs.contract(h, bottom))
                    total += t
                    generic += gen if k == 1 else 0
            out = (total, generic)
        else:
            total = generic = 1
            for block in ef_graphs.biconnected_components(h):
                t, gen = count(block)
                total, generic = total * t, generic * gen
            out = (total, generic)
        memo[h] = out
        return out

    return count(g)


def expected_counts(kind: str, g) -> tuple:
    n = g.n_edges
    if kind == "cycle":
        return FUBINI[n], factorial(n)
    if kind == "theta":
        return 2**n - 1, n
    return structure_counts(g)


def structures_oracle(g, total: int, generic: int):
    def check(structs):
        if len(structs) != total:
            return f"{len(structs)} structures, expected {total}"
        got = sum(1 for eg in structs if eg.is_generic())
        if got != generic:
            return f"{got} generic structures, expected {generic}"
        if len({eg.preorder for eg in structs}) != len(structs):
            return "duplicate structures"
        if any(eg.graph != g for eg in structs):
            return "a structure on another graph"
        return None

    return check


def specializations_oracle(eg):
    """A specialization is a face of the closed cone: 2^rank of them, one the identity."""
    def check(sps):
        if len(sps) != 2**eg.rank:
            return f"{len(sps)} specializations, expected 2^{eg.rank}"
        if sum(1 for sp in sps if sp.is_identity()) != 1:
            return "not exactly one identity specialization"
        if any(sp.source != eg for sp in sps):
            return "specialization of another structure"
        return None

    return check


def rays_oracle(closed, rank: int, labels):
    """Irreducible upper sets are the rays of the closed cone, one per class."""
    def check(uppers):
        rays = {tuple(1 if lab in t else 0 for lab in labels) for t in uppers}
        if rays != set(closed.rays):
            return "rays differ from the indicator vectors of the irreducible upper sets"
        if len(uppers) != rank:
            return f"{len(uppers)} irreducible upper sets, expected rank {rank}"
        return None

    return check


def faces_oracle(closed):
    def check(faces):
        if len(faces) != 2**closed.dim:
            return f"{len(faces)} faces, expected 2^{closed.dim}"
        if len({f.rays for f in faces}) != len(faces) or not all(f.is_face_of(closed) for f in faces):
            return "faces are not the distinct ray subsets of the cone"
        return None

    return check


def fan_size_oracle(generic: int):
    def check(fan):
        return None if len(fan.maximal) == generic else f"{len(fan.maximal)} maximal cones, expected {generic}"

    return check


def unimodular_oracle(dim: int):
    def check(factors):
        return None if list(factors) == [1] * dim else f"invariant factors {factors}, expected {dim} ones"

    return check


def quotient_rank_oracle(rank: int):
    def check(lq):
        return None if lq.quotient_rank == rank else f"quotient rank {lq.quotient_rank}, expected {rank}"

    return check


def quotient_fan_oracle(n_maximal: int, rank: int):
    """The quotient of the fan is complete and simplicial of full dimension:
    every facet of a maximal cone lies in exactly two maximal cones."""
    def check(qf):
        if len(qf.maximal) != n_maximal:
            return f"{len(qf.maximal)} maximal cones in the quotient, expected {n_maximal}"
        if any(c.dim != rank for c in qf.maximal):
            return f"a quotient cone is not of dimension {rank}"
        if rank:
            facets = {}
            for c in qf.maximal:
                for facet in itertools.combinations(c.rays, rank - 1):
                    key = frozenset(facet)
                    facets[key] = facets.get(key, 0) + 1
            if any(v != 2 for v in facets.values()):
                return "quotient fan is not complete"
        return None

    return check


def _components(vertices, edges) -> list:
    """Connected parts of the vertex set under the given edges."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    groups = {}
    for v in vertices:
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def bond_sets(vertices, edges) -> set:
    """Edge sets of the minimal cuts: bipartitions with both sides connected."""
    vertices = list(vertices)
    first, rest = vertices[0], vertices[1:]
    out = set()
    for k in range(len(rest)):
        for extra in itertools.combinations(rest, k):
            side = {first, *extra}
            other = set(vertices) - side
            inside = [(u, v) for u, v in edges.values() if (u in side) == (v in side)]
            if len(_components(side, [p for p in inside if p[0] in side])) == 1 and len(
                _components(other, [p for p in inside if p[0] in other])
            ) == 1:
                out.add(frozenset(e for e, (u, v) in edges.items() if (u in side) != (v in side)))
    return out


def bonds_oracle(expected: set):
    def check(bonds):
        got = {b.edges for b in bonds}
        return None if got == expected and len(bonds) == len(expected) else "bonds differ from the minimal cuts"

    return check


def equations_oracle(bonds: set, n_edges: int):
    """Every relation is balanced per bond and per edge (so it holds on the
    bond-product image), uses only bonds, and relations exist exactly when
    the kernel rank sum(|B| - 1) - (|E| - 1) is positive."""
    kernel_rank = sum(len(b) - 1 for b in bonds) - (n_edges - 1)

    def check(rels):
        if len(set(rels)) != len(rels):
            return "duplicate relations"
        if bool(rels) != (kernel_rank > 0):
            return f"{len(rels)} relations for kernel rank {kernel_rank}"
        for rel in rels:
            per_edge, per_bond = {}, {}
            for be, e, x in rel.terms:
                if frozenset(be) not in bonds:
                    return "a relation uses a non-bond"
                per_edge[e] = per_edge.get(e, 0) + x
                per_bond[be] = per_bond.get(be, 0) + x
            if any(per_edge.values()) or any(per_bond.values()):
                return "an unbalanced relation"
        return None

    return check


def schedule_centers(vertices, edges) -> set:
    """Nonempty edge sets whose contraction is biconnected."""
    labels = list(edges)
    out = set()
    for k in range(1, len(labels)):
        for s in itertools.combinations(labels, k):
            parts = _components(vertices, [edges[e] for e in s])
            rep = {v: min(p) for p in parts for v in p}
            rest = {e: (rep[u], rep[v]) for e, (u, v) in edges.items() if e not in s}
            if is_two_connected(set(rep.values()), rest):
                out.add(frozenset(s))
    return out


def schedule_oracle(centers: set):
    def check(stages):
        cards = [st.cardinality for st in stages]
        if cards != sorted(set(cards)):
            return "stage cardinalities do not increase"
        got = [frozenset(s) for st in stages for s, _ in st.centers]
        if any(len(s) != st.cardinality for st in stages for s, _ in st.centers):
            return "a center of the wrong cardinality"
        return None if set(got) == centers and len(got) == len(centers) else "centers differ from the biconnected contractions"

    return check


def automorphisms_oracle(wg):
    """A group of edge permutations that contains the identity, is closed
    under composition and maps every edge to an edge with matching ends."""
    g = wg.graph

    def check(auts):
        maps = {a.edge_map for a in auts}
        if len(maps) != len(auts) or not any(a.is_identity() for a in auts):
            return "not a set of permutations containing the identity"
        for a in auts:
            vmap, emap = dict(a.vertex_map), a.as_dict()
            for e in g.edge_labels:
                u, v = g.ends(e)
                if sorted((vmap[u], vmap[v])) != sorted(g.ends(emap[e])):
                    return "an edge map that does not follow the vertex map"
            if any(wg.weight(x) != wg.weight(vmap[x]) for x in g.vertices):
                return "a vertex map that changes a weight"
        if any(a.compose(b).edge_map not in maps for a in auts for b in auts):
            return "not closed under composition"
        return None

    return check


def stable_graphs_oracle(genus: int):
    from enrichfan import graphs as ef_graphs

    expected = STABLE_GRAPHS[genus]

    def check(wgs):
        if len(wgs) != expected:
            return f"{len(wgs)} stable graphs, expected {expected}"
        if any(ef_graphs.genus(wg) != genus or not ef_graphs.is_stable(wg) for wg in wgs):
            return "an unstable graph or one of another genus"
        return None

    return check


def cells_oracle(genus: int):
    expected = CELLS[genus]

    def check(cells):
        if len(cells) != expected:
            return f"{len(cells)} cells, expected {expected}"
        if [c.index for c in cells] != list(range(len(cells))) or any(c.genus != genus for c in cells):
            return "cells are not indexed 0..n-1 at this genus"
        return None

    return check


def adjacency_oracle(sample):
    """One row per cell, arrows only inside the sample, each lowering the dimension."""
    dim = {c.index: c.dim for c in sample}

    def check(adj):
        if set(adj) != set(dim):
            return "adjacency rows differ from the cells passed"
        for a, targets in adj.items():
            for b in targets:
                if b not in dim or dim[b] >= dim[a]:
                    return f"arrow {a} -> {b} does not lower the dimension"
        return None

    return check


def classify_oracle(cells2):
    """Genus 2: two maximal cells of dimension 3, automorphism orders 2 and 2,
    connected through codimension one."""
    by_index = {c.index: c for c in cells2}

    def check(report):
        maximal = [by_index[i] for i in report.maximal]
        if len(maximal) != 2 or any(c.dim != 3 for c in maximal):
            return "maximal cells are not two of dimension 3"
        if sorted(c.aut_order for c in maximal) != [2, 2]:
            return "maximal automorphism orders are not [2, 2]"
        return None if report.connected_through_codim1 else "maximal cells not connected through codimension one"

    return check


def lifts_oracle(n_points: int):
    def check(report):
        if report.points_checked != n_points:
            return f"{report.points_checked} points checked, expected {n_points}"
        return f"{len(report.failures)} lift failures" if report.failures else None

    return check


# ---- CLI outputs -----------------------------------------------------------

def cycle_schedule_lines(n: int) -> list:
    """Contracting k edges of an n-cycle leaves an (n-k)-cycle, biconnected for k <= n - 2."""
    return [f"stage {k}: {comb(n, k)} centers" for k in range(1, n - 1)]
