"""The in-process workloads: ``enumerate``, ``geometry`` and ``moduli``.

Each has a ``setup_*`` that turns the seeded plain inputs into library
objects (timed as part of ``setup_s``) and a ``run_*`` that makes every
library call through ``Rep.op`` and checks each answer against ``oracles``.
"""

from __future__ import annotations

from fractions import Fraction

from enrichfan import cones, corpus, enriched, fans, graphs, lattices, moduli, toric
from enrichfan.preorders import Preorder

import inputs
import oracles
from harness import FAILED, Rep, clear_library_caches, expect_true


def to_graph(g: inputs.Graph) -> graphs.MultiGraph:
    return graphs.MultiGraph(g.vertices, g.edges)


# ---- enumerate -------------------------------------------------------------

def _by_rank(structs) -> list:
    """Structures ordered by rank, the property their check costs grow with."""
    return sorted(structs, key=lambda eg: eg.rank)


def setup_enumerate(seed: int, size: inputs.Size) -> dict:
    data = inputs.enumerate_inputs(seed, size)
    return {"graphs": [(g.name, g.kind, to_graph(g)) for g in data["graphs"]], "samples": data["samples"]}


def run_enumerate(rep: Rep, data: dict):
    """One query per graph, with cold caches: enumerate the structures, then
    validate and specialize a seeded sample of them."""
    for name, kind, g in data["graphs"]:
        total, generic = oracles.expected_counts(kind, g)
        validate_draws, specialize_draws = data["samples"][name]
        clear_library_caches()
        with rep.query():
            structs = rep.op(
                "enriched.enriched_structures", name, enriched.enriched_structures, g,
                oracle=oracles.structures_oracle(g, total, generic),
            )
            if structs is FAILED:
                continue
            rep.items += len(structs)
            rep.tracer.count("enriched.structures", len(structs))
            by_rank = _by_rank(structs)
            for i in inputs.pick(validate_draws, len(structs)):
                rep.op("enriched.is_enriched", name, enriched.is_enriched, g, by_rank[i].preorder, oracle=expect_true)
            # every graph here is one block with several edges: no global minimum
            rep.op(
                "enriched.is_enriched", name, enriched.is_enriched, g, Preorder.discrete(g.edge_labels),
                oracle=lambda ok: None if ok is False else "accepts the discrete preorder",
            )
            for i in inputs.pick(specialize_draws, len(structs)):
                eg = by_rank[i]
                sps = rep.op(
                    "enriched.specializations", name, enriched.specializations, eg,
                    oracle=oracles.specializations_oracle(eg),
                )
                if sps is not FAILED:
                    rep.tracer.count("enriched.specializations", len(sps))


# ---- geometry --------------------------------------------------------------

EXTRA_GRAPHS = {
    "c5": lambda: inputs.cycle(5),
    "k4": inputs.k4,
    "w4": inputs.wheel4,
    "prism": inputs.prism,
}


def _geometry_graph(name: str) -> graphs.MultiGraph:
    return corpus.CORPUS[name]() if name in corpus.CORPUS else to_graph(EXTRA_GRAPHS[name]())


def setup_geometry(seed: int, size: inputs.Size) -> dict:
    data = inputs.geometry_inputs(seed, size)
    entries = []
    for name in size.geometry_graphs:
        g = _geometry_graph(name)
        labels = g.edge_labels
        points = [
            {e: Fraction(n, d) for e, (n, d) in zip(labels, pt)}
            for pt in inputs.points_for(data["point_seed"], name, g.n_edges, size.points_per_graph)
        ]
        entries.append((name, g, data["ray_samples"][name], points))
    toric_graphs = [(name, g) for name, g, _, _ in entries if inputs.is_two_connected(*oracles.plain(g))]
    toric_graphs += [(name, _geometry_graph(name)) for name in size.toric_extra]
    return {"graphs": entries, "toric": toric_graphs}


def _structure_step(rep: Rep, name: str, g, ray_draws):
    """Enumerate, build both cones of every structure, and run the ray,
    smoothness and face checks on all structures or a seeded sample."""
    total, generic = oracles.structure_counts(g)
    structs = rep.op(
        "enriched.enriched_structures", name, enriched.enriched_structures, g,
        oracle=oracles.structures_oracle(g, total, generic),
    )
    if structs is FAILED:
        return None, generic
    rep.tracer.count("enriched.structures", len(structs))
    built = []
    for eg in structs:
        open_cone = rep.op(
            "cones.structure_cone", name, cones.structure_cone, eg,
            oracle=lambda c, r=eg.rank: None if c.dim == r and not c.closed else "open cone of the wrong dimension",
        )
        closed = rep.op(
            "cones.closed_structure_cone", name, cones.closed_structure_cone, eg,
            oracle=lambda c, o=open_cone: None if c.closed and o is not FAILED and c.rays == o.rays else "closure has other rays",
        )
        built.append((eg, open_cone, closed))
    rep.tracer.count("cones.built", 2 * len(built))
    by_rank = sorted(built, key=lambda b: b[0].rank)
    for i in inputs.pick(ray_draws, len(built)):
        eg, _, closed = by_rank[i]
        if closed is FAILED:
            continue
        rep.op(
            "preorders.Preorder.irreducible_upper_sets", name, eg.preorder.irreducible_upper_sets,
            brute_force=g.n_edges <= 4, oracle=oracles.rays_oracle(closed, eg.rank, g.edge_labels),
        )
        rep.op("cones.RationalCone.is_smooth", name, closed.is_smooth, oracle=expect_true)
        rep.op("cones.RationalCone.faces", name, closed.faces, oracle=oracles.faces_oracle(closed))
    return built, generic


def _fan_step(rep: Rep, name: str, g, generic: int):
    direct = rep.op("fans.fan_of_graph", name, fans.fan_of_graph, g, oracle=oracles.fan_size_oracle(generic))
    star = rep.op(
        "fans.fan_by_star_subdivision", name, fans.fan_by_star_subdivision, g,
        oracle=oracles.fan_size_oracle(generic),
    )
    if direct is FAILED:
        return
    if star is not FAILED:
        rep.op("fans.fan_equal", name, fans.fan_equal, direct, star, oracle=expect_true)
    for cone in direct.maximal:
        rep.op(
            "lattices.invariant_factors", name, lattices.invariant_factors, cone.rays, g.n_edges,
            oracle=oracles.unimodular_oracle(cone.dim),
        )
    rank = g.n_edges - len(graphs.biconnected_components(g))
    lq = rep.op(
        "fans.graph_lattice_quotient", name, fans.graph_lattice_quotient, g,
        oracle=oracles.quotient_rank_oracle(rank),
    )
    if lq is not FAILED:
        rep.op(
            "fans.quotient_fan", name, fans.quotient_fan, direct, lq,
            oracle=oracles.quotient_fan_oracle(len(direct.maximal), rank),
        )


def _scan(tracer, open_cones, vec):
    return [tracer.call("cones.RationalCone.contains", c.contains, vec) for c in open_cones]


def _point_queries(rep: Rep, entries):
    """One query per point: locate it, then test it against every open cone.

    Points go round-robin over the graphs, so each graph's queries spread
    over the whole phase instead of one short stretch of it."""
    cases = []
    for name, g, built, points in entries:
        if all(c is not FAILED for _, c, _ in built):
            cases.append((name, g, [eg.preorder for eg, _, _ in built], [c for _, c, _ in built], points))
    for j in range(max((len(case[4]) for case in cases), default=0)):
        for name, g, preorders, open_cones, points in cases:
            x = points[j]
            with rep.query():
                located = rep.op("enriched.locate", name, enriched.locate, g, x)
                if located is FAILED:
                    continue
                rep.items += 1

                def one_cone(inside, located=located, preorders=preorders):
                    hits = [p for p, hit in zip(preorders, inside) if hit]
                    if len(hits) != 1:
                        return f"point lies in {len(hits)} open cones"
                    return None if hits[0] == located.preorder else "locate disagrees with cone membership"

                vec = tuple(x[e] for e in g.edge_labels)
                rep.op("bench.contains_scan", name, _scan, rep.tracer, open_cones, vec, oracle=one_cone)


def _toric_step(rep: Rep, name: str, g):
    vertices, edges = oracles.plain(g)
    guard = max(8, g.n_edges)
    bonds = oracles.bond_sets(vertices, edges)
    rep.op("graphs.bonds", name, graphs.bonds, g, oracle=oracles.bonds_oracle(bonds))
    rels = rep.op(
        "toric.equations", name, toric.equations, g, guard,
        oracle=oracles.equations_oracle(bonds, g.n_edges),
    )
    if rels is not FAILED:
        rep.tracer.count("toric.relations", len(rels))
    rep.op("toric.relations_generate_kernel", name, toric.relations_generate_kernel, g, guard, oracle=expect_true)
    rep.op("toric.torus_point_check", name, toric.torus_point_check, g, oracle=expect_true)
    rep.op(
        "toric.blowup_schedule", name, toric.blowup_schedule, g, guard,
        oracle=oracles.schedule_oracle(oracles.schedule_centers(vertices, edges)),
    )


def run_geometry(rep: Rep, data: dict):
    located = []
    for name, g, ray_draws, points in data["graphs"]:
        clear_library_caches()
        built, generic = _structure_step(rep, name, g, ray_draws)
        _fan_step(rep, name, g, generic)
        if built is not None:
            located.append((name, g, built, points))
    _point_queries(rep, located)
    for name, g in data["toric"]:
        clear_library_caches()
        _toric_step(rep, name, g)


# ---- moduli ----------------------------------------------------------------

def setup_moduli(seed: int, size: inputs.Size) -> dict:
    return {**inputs.moduli_inputs(seed, size), "genus": size.stable_genus, "lift_points": size.lift_points}


def _cell_sample(cells, draws) -> list:
    """Cells ordered by (dimension, edge count), the properties that set
    what cell_adjacency costs per pair, then binned by ``inputs.pick``."""
    order = sorted(cells, key=lambda c: (c.dim, c.weighted.graph.n_edges, c.index))
    return [order[i] for i in inputs.pick(draws, len(order))]


def _automorphism_queries(rep: Rep, stable):
    for i, wg in enumerate(stable):
        with rep.query():
            rep.op("graphs.automorphisms", f"stable{i}", graphs.automorphisms, wg, oracle=oracles.automorphisms_oracle(wg))


def run_moduli(rep: Rep, data: dict):
    """The census, then cell_adjacency on the cell sample, then genus 2.

    The automorphism queries take about a millisecond each pass, so they
    run in four passes spread over the repetition: one slow spell of the
    shared machine then cannot cover all of them."""
    genus = data["genus"]
    stable = rep.op(
        "moduli.enumerate_stable_weighted_graphs", f"genus{genus}", moduli.enumerate_stable_weighted_graphs, genus,
        oracle=oracles.stable_graphs_oracle(genus),
    )
    stable = [] if stable is FAILED else stable
    _automorphism_queries(rep, stable)
    cells = rep.op("moduli.enumerate_cells", f"genus{genus}", moduli.enumerate_cells, genus, oracle=oracles.cells_oracle(genus))
    _automorphism_queries(rep, stable)
    if cells is not FAILED:
        rep.tracer.count("moduli.cells", len(cells))
        sample = _cell_sample(cells, data["cell_draws"])
        adj = rep.op(
            "moduli.cell_adjacency", f"genus{genus}", moduli.cell_adjacency, sample,
            oracle=oracles.adjacency_oracle(sample),
        )
        pairs = len(sample) * (len(sample) - 1)
        rep.items += pairs
        rep.tracer.count("moduli.pairs", pairs)
        if adj is not FAILED:
            rep.tracer.count("moduli.arrows", sum(len(v) for v in adj.values()))
    _automorphism_queries(rep, stable)
    cells2 = cells
    if genus != 2:
        rep.op("moduli.enumerate_stable_weighted_graphs", "genus2", moduli.enumerate_stable_weighted_graphs, 2,
               oracle=oracles.stable_graphs_oracle(2))
        cells2 = rep.op("moduli.enumerate_cells", "genus2", moduli.enumerate_cells, 2, oracle=oracles.cells_oracle(2))
    if cells2 is not FAILED:
        rep.op("moduli.classify_cells", "genus2", moduli.classify_cells, 2, oracle=oracles.classify_oracle(cells2))
    rep.op(
        "moduli.check_unique_lifts", "genus2", moduli.check_unique_lifts, 2,
        seed=data["lift_seed"], n_points=data["lift_points"], oracle=oracles.lifts_oracle(data["lift_points"]),
    )
    _automorphism_queries(rep, stable)


SETUP = {"enumerate": setup_enumerate, "geometry": setup_geometry, "moduli": setup_moduli}
RUN = {"enumerate": run_enumerate, "geometry": run_geometry, "moduli": run_moduli}
