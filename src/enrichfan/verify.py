"""Invariant suites over the built-in corpus, shared by the CLI and the tests.

Each check returns a list of failure strings (empty = pass) and the
runners log one PASS/FAIL line per check; a check that raises fails with a
line naming the exception, and the others still run.  Where the library
computes a quantity two ways (direct fan vs star subdivisions, located cone vs
membership scan, emitted relations vs normal-form kernel, bonds from side
masks vs edge sets that cut a graph in two), both routes run here.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache, partial, reduce
from operator import or_

from . import corpus
from .cones import closed_structure_cone, containing, ray_generators, structure_cone
from .enriched import EnrichedGraph, _specialization_failure, bond_minima, enriched_structures, from_bond_collection, locate, specializations
from .fans import fan_by_star_subdivision, fan_equal, fan_of_graph, graph_lattice_quotient, quotient_fan
from .errors import UnknownLabelError
from .graphs import MultiGraph, _bond_masks, biconnected_components, bits, bonds, contract
from .moduli import check_unique_lifts, classify_cells, enumerate_cells, enumerate_stable_weighted_graphs
from .preorders import Preorder
from .toric import (
    _dual_kernel,
    _equations,
    _generates_kernel,
    _holds_at_torus_points,
    _kernel_rank,
    blowup_schedule,
    mutated_evaluate,
)


COVER_POINTS = 1000  # seeded points per corpus graph in the orthant-cover check
TORUS_TRIALS = 100  # seeded torus points per relation check
LIFT_POINTS = 500  # sampled length vectors in the genus-2 lift check


def _positive_points(labels, count, rng):
    return [tuple(Fraction(rng.randint(1, 256), rng.randint(1, 64)) for _ in labels) for _ in range(count)]


def check_enriched_counts() -> list:
    failures = []
    for name, g, count, generic in (("triangle", corpus.triangle(), 13, 6), ("theta3", corpus.theta(3), 7, 3)):
        structs = enriched_structures(g)
        if len(structs) != count:
            failures.append(f"{name} structure count {len(structs)} != {count}")
        got = sum(1 for eg in structs if eg.is_generic())
        if got != generic:
            failures.append(f"{name} generic count {got} != {generic}")
    g = corpus.doubled_triangle()
    printed = [
        [("e1", "e2"), ("e1", "e3"), ("e3", "e4")],
        [("e3", "e1"), ("e1", "e2"), ("e1", "e4")],
        [("e1", "e3"), ("e3", "e1"), ("e1", "e2"), ("e1", "e4")],
    ]
    structs = {eg.preorder for eg in enriched_structures(g)}
    for pairs in printed:
        if Preorder.from_relations(g.edge_labels, pairs) not in structs:
            failures.append(f"doubled_triangle misses the structure generated by {pairs}")
    return failures


def _cover_failures(name: str, structs: list, points) -> list:
    """Each point lies in exactly one open cone, the one ``locate`` finds."""
    g = structs[0].graph
    cones = [structure_cone(eg) for eg in structs]
    failures = []
    for vec in points:
        hits = containing(cones, vec)
        if len(hits) != 1:
            failures.append(f"{name}: point {vec} lies in {len(hits)} open cones")
        elif locate(g, dict(zip(g.edge_labels, vec))).preorder != structs[hits[0]].preorder:
            failures.append(f"{name}: locate disagrees with membership at {vec}")
    return failures


def _is_ray_set(rows, rays) -> bool:
    """Whether ``rays`` are the irreducible upper sets of the bitmask ``rows``, checked by definition."""
    masks = {sum(v << j for j, v in enumerate(r)) for r in rays if set(r) <= {0, 1} and len(r) == len(rows)}
    upper = all(rows[i] & ~u == 0 for u in masks for i in bits(u))
    irreducible = all(reduce(or_, (rows[i] for i in bits(u) if rows[i] != u), 0) != u for u in masks)
    return len(masks) == len(set(rays)) and upper and irreducible and set(rows) <= masks


def _rays_and_faces_failures(name: str, structs: list) -> list:
    failures = []
    targets = {}
    contractions = {}  # (graph, contracted mask) -> contracted graph
    for eg in structs:
        labels = eg.graph.edge_labels
        rays = ray_generators(eg)
        agrees = len(labels) > 4 or set(rays) == {
            tuple(int(lab in t) for lab in labels) for t in eg.preorder.irreducible_upper_sets(brute_force=True)
        }
        if not (agrees and _is_ray_set(eg.preorder.rows, rays)):
            failures.append(f"{name}: ray set mismatch for {eg.preorder!r}")
        if len(rays) != eg.rank:
            failures.append(f"{name}: ray count != rank for {eg.preorder!r}")
        cone = closed_structure_cone(eg)
        if not cone.is_smooth():
            failures.append(f"{name}: cone not smooth for {eg.preorder!r}")
        # each specialization has a checked target (each distinct target once)
        # and passes the row check, and the distinct ones number one per face
        sps = specializations(eg)
        for sp in sps:
            key = (sp.target.graph, sp.target.preorder)
            try:
                if key not in targets:
                    targets[key] = EnrichedGraph(*key)
                mask = eg.preorder._mask(sp.contracted)
                if (eg.graph, mask) not in contractions:
                    contractions[eg.graph, mask] = contract(eg.graph, sp.contracted)
                failure = _specialization_failure(eg.preorder.rows, mask, targets[key], contractions[eg.graph, mask])
            except (ValueError, UnknownLabelError) as exc:
                failure = str(exc)
            if failure:
                failures.append(f"{name}: bad specialization of {eg.preorder!r}: {failure}")
        if not len({(sp.contracted, sp.target.preorder) for sp in sps}) == len(sps) == cone.face_count():
            failures.append(f"{name}: specializations are not one per face for {eg.preorder!r}")
    return failures


def _star_failures(name: str, g) -> list:
    same = fan_equal(fan_of_graph(g), fan_by_star_subdivision(g))
    return [] if same else [f"{name}: star pipeline disagrees with direct fan"]


def check_cover(seed: int) -> list:
    failures = []
    rng = random.Random(seed)
    for name, g in corpus.corpus_graphs().items():
        grid = [tuple(map(Fraction, p)) for p in itertools.product([1, 2, 3, 4], repeat=g.n_edges)]
        failures += _cover_failures(name, enriched_structures(g), grid + _positive_points(g.edge_labels, COVER_POINTS, rng))
    return failures


def check_rays_and_faces() -> list:
    return [f for name, g in corpus.corpus_graphs().items() for f in _rays_and_faces_failures(name, enriched_structures(g))]


def check_star_pipeline() -> list:
    failures = [f for name, g in corpus.corpus_graphs().items() for f in _star_failures(name, g)]
    if len(fan_of_graph(corpus.triangle()).maximal) != 6:
        failures.append("triangle fan should have 6 maximal cones")
    if len(fan_of_graph(corpus.theta(3)).maximal) != 3:
        failures.append("theta3 fan should have 3 maximal cones")
    return failures


def check_quotient_identities() -> list:
    failures = []
    for n in (2, 3, 4):
        g = corpus.theta(n)
        qf = quotient_fan(fan_of_graph(g), graph_lattice_quotient(g))
        rays = qf.rays()
        ok = (
            len(rays) == n
            and len(qf.maximal) == n
            and tuple(map(sum, zip(*rays))) == (0,) * (n - 1)
            and qf.is_complete()
        )
        if not ok:
            failures.append(f"theta{n}: quotient is not the projective fan")
    g = corpus.triangle()
    qf = quotient_fan(fan_of_graph(g), graph_lattice_quotient(g))
    if not (len(qf.rays()) == 6 and len(qf.maximal) == 6 and qf.is_complete()):
        failures.append("triangle: quotient is not the 6-ray hexagonal fan")
    stages = blowup_schedule(g)
    if len(stages) != 1 or stages[0].cardinality != 1 or len(stages[0].centers) != 3:
        failures.append("triangle: blowup schedule is not three coordinate points")
    if any(len(coords) != 2 for _, coords in stages[0].centers):
        failures.append("triangle: blowup centers are not points of the plane")
    dq = quotient_fan(fan_of_graph(corpus.dumbbell()), graph_lattice_quotient(corpus.dumbbell()))
    if dq.ambient_rank != 0:
        failures.append("dumbbell: quotient fan should be zero-dimensional")
    return failures


def _edge_subset_bonds(g: MultiGraph) -> int:
    """The number of bonds of ``g``, counted apart from ``_bond_masks``: the edge
    sets whose removal leaves exactly two components, every edge of the set joining them."""
    count = 0
    for k in range(1, g.n_edges + 1):
        for cut in itertools.combinations(g.edge_labels, k):
            comps = MultiGraph(g.vertices, {e: g.ends(e) for e in g.edge_labels if e not in cut}).connected_components()
            count += len(comps) == 2 and all((u in comps[0]) != (v in comps[0]) for u, v in map(g.ends, cut))
    return count


def check_kernel_and_torus(seed: int) -> list:
    failures = []
    rng = random.Random(seed)
    for name in corpus.BICONNECTED_CORPUS:
        g = corpus.CORPUS[name]()
        if g.n_edges > 5:
            continue
        masks = _bond_masks(g)  # one enumeration serves every check below
        counted = _edge_subset_bonds(g)
        if counted != len(masks):
            failures.append(f"{name}: {len(masks)} bonds enumerated, {counted} edge sets cut the graph in two")
        domain, kernel = _dual_kernel(g, masks)  # and one normal form both kernel checks
        if not _generates_kernel(g, masks, domain, kernel):
            failures.append(f"{name}: relations do not generate the kernel lattice")
        computed, formula = len(kernel), _kernel_rank(g, masks)
        if computed != formula:
            failures.append(f"{name}: normal-form kernel rank {computed} != formula {formula}")
        rels = _equations(g, masks)
        if not _holds_at_torus_points(g.edge_labels, rels, rng.randint(0, 10**6), TORUS_TRIALS):
            failures.append(f"{name}: a relation failed at a torus point")
        if rels:
            point = {e: Fraction(3, 2) ** (i + 1) for i, e in enumerate(g.edge_labels)}
            for rel in rels:
                if mutated_evaluate(rel, point) == 1:
                    failures.append(f"{name}: a mutated relation still holds")
    return failures


def check_genus_two_moduli(seed: int) -> list:
    failures = []
    graphs = enumerate_stable_weighted_graphs(2)
    if len(graphs) != 7:
        failures.append(f"{len(graphs)} stable weighted graphs at genus 2, expected 7")
    cells = enumerate_cells(2)
    if len(cells) != 9:
        failures.append(f"{len(cells)} cells at genus 2, expected 9")
    report = classify_cells(2)
    maximal = [c for c in cells if c.index in report.maximal]
    if len(maximal) != 2 or any(c.dim != 3 for c in maximal):
        failures.append("maximal cells are not two of dimension 3")
    if sorted(c.aut_order for c in maximal) != [2, 2]:
        failures.append("maximal cell automorphism orders are not [2, 2]")
    lift = check_unique_lifts(2, seed=seed, n_points=LIFT_POINTS)
    if lift.failures:
        failures.append(f"{len(lift.failures)} lift failures: {lift.failures[:3]}")
    return failures


def check_bond_round_trip() -> list:
    failures = []
    for name in corpus.BICONNECTED_CORPUS:
        g = corpus.CORPUS[name]()
        bs = bonds(g)
        for eg in enriched_structures(g):
            rebuilt = from_bond_collection(g, {b.edges: bond_minima(eg, b) for b in bs})
            if rebuilt.preorder != eg.preorder:
                failures.append(f"{name}: bond round trip broke {eg.preorder!r}")
    for g in (corpus.theta(3), corpus.triangle()):
        bs = bonds(g)
        pools = [
            [frozenset(c) for k in range(1, len(b.edges) + 1) for c in itertools.combinations(b.edges, k)]
            for b in bs
        ]
        for combo in itertools.product(*pools):
            try:
                from_bond_collection(g, dict(zip((b.edges for b in bs), combo)))
            except Exception as exc:
                failures.append(f"collection {combo} did not induce an enriched structure: {exc}")
    return failures


def check_block_partition() -> list:
    failures = []
    for name, g in corpus.corpus_graphs().items():
        blocks = [frozenset(c.edge_labels) for c in biconnected_components(g)]
        all_edges = sorted(e for b in blocks for e in b)
        if all_edges != sorted(g.edge_labels):
            failures.append(f"{name}: block edge sets do not partition the edges")
        for b in bonds(g):
            if sum(1 for blk in blocks if b.edges <= blk) != 1:
                failures.append(f"{name}: bond {sorted(b.edges)} not inside one block")
    return failures


NAMED_CHECKS = (
    ("enriched structure counts", check_enriched_counts, False),
    ("block and bond partition", check_block_partition, False),
    ("orthant cover by open cones", check_cover, True),
    ("rays, smoothness, faces", check_rays_and_faces, False),
    ("star subdivision pipeline", check_star_pipeline, False),
    ("quotient fan identities", check_quotient_identities, False),
    ("kernel lattice and torus points", check_kernel_and_torus, True),
    ("genus-2 moduli and unique lifts", check_genus_two_moduli, True),
    ("bond collection round trip", check_bond_round_trip, False),
)


def _run_checks(checks, log) -> list:
    """Run each ``(name, check)`` pair on its own, an exception failing its check alone."""
    all_failures = []
    for name, check in checks:
        try:
            failures = check()
        except Exception as exc:
            failures = [f"{type(exc).__name__}: {exc}"]
        log(f"{'PASS' if not failures else 'FAIL'}  {name}")
        for f in failures:
            log(f"      {f}")
        all_failures.extend(failures)
    return all_failures


def verify_all(seed: int = 20240, log=lambda *_: None) -> list:
    return _run_checks(((name, partial(fn, seed) if seeded else fn) for name, fn, seeded in NAMED_CHECKS), log)


def verify_fan_for_graph(g, seed: int = 20240, log=lambda *_: None) -> list:
    """Fan invariants for a single graph: cover, rays/faces, pipeline equality, on one enumeration."""
    structs = cache(lambda: enriched_structures(g))
    points = _positive_points(g.edge_labels, 200, random.Random(seed))
    checks = (
        ("orthant cover (200 seeded points)", lambda: _cover_failures("graph", structs(), points)),
        ("rays, smoothness, faces", lambda: _rays_and_faces_failures("graph", structs())),
        ("star subdivision pipeline", lambda: _star_failures("graph", g)),
    )
    return _run_checks(checks, log)
