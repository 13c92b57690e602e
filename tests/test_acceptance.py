"""Acceptance suite: one check per headline claim, with hard time budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import contextlib
import io
import json
import random
import time
from collections import Counter

import pytest

import enrichfan.verify
from enrichfan.cli import main
from enrichfan.cones import RationalCone, _trusted_cone
from enrichfan.enriched import EnrichedGraph, Specialization, _trusted, enriched_structures
from enrichfan.graphs import bits
from enrichfan.preorders import Preorder
from enrichfan.verify import (
    check_bond_round_trip,
    check_cover,
    check_enriched_counts,
    check_genus_two_moduli,
    check_kernel_and_torus,
    check_quotient_identities,
    check_rays_and_faces,
    check_star_pipeline,
)
from test_toric_reference import k4

SEED = 20240


def _run(number, label, budget_seconds, fn, *args):
    start = time.perf_counter()
    failures = fn(*args)
    elapsed = time.perf_counter() - start
    status = "PASS" if not failures and elapsed < budget_seconds else "FAIL"
    print(f"criterion {number} {status} ({elapsed:.2f}s / {budget_seconds}s): {label}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"criterion {number}: {failures[:5]}"
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s ({elapsed:.2f}s)"


def test_criterion_1_enriched_counts():
    _run(1, "enriched structure counts on the three-edge graphs", 1.0, check_enriched_counts)


def test_criterion_2_cover():
    _run(2, "integer grid and 1000 seeded points per graph lie in exactly one open cone", 30.0, check_cover, SEED)


def test_criterion_3_rays_and_faces():
    _run(3, "ray generators, rank, smoothness, face counts", 30.0, check_rays_and_faces)


def test_criterion_3_fails_on_a_planted_bad_specialization(monkeypatch):
    real = enrichfan.verify.specializations

    def not_enriched(eg):
        sps = real(eg)
        graph = sps[0].target.graph
        bad = _trusted(EnrichedGraph, graph=graph, preorder=Preorder.discrete(graph.edge_labels))
        return [_trusted(Specialization, source=eg, target=bad, contracted=sps[0].contracted)] + sps[1:]

    def uncontracted(eg):
        sps = real(eg)
        return sps[:-1] + [_trusted(Specialization, source=eg, target=sps[-1].target, contracted=frozenset())]

    def unknown_label(eg):
        sps = real(eg)
        return [_trusted(Specialization, source=eg, target=sps[0].target, contracted=frozenset({"zz"}))] + sps[1:]

    def not_lower(eg):
        # a single edge with another edge below it
        sps, rows = real(eg), eg.preorder.rows
        above = [e for i, e in enumerate(eg.preorder.ground) if any(r >> i & 1 for j, r in enumerate(rows) if j != i)]
        if not above:
            return sps
        return [_trusted(Specialization, source=eg, target=sps[0].target, contracted=frozenset(above[:1]))] + sps[1:]

    def unrefined(eg):
        # nothing contracted, and a structure on the same graph that drops a relation of eg
        sps, rows = real(eg), eg.preorder.rows
        other = [t for t in enriched_structures(eg.graph) if any(r & ~q for r, q in zip(rows, t.preorder.rows))]
        if not other:
            return sps
        return [_trusted(Specialization, source=eg, target=other[0], contracted=frozenset())] + sps[1:]

    plants = {
        "a duplicate added": (lambda eg: real(eg) + real(eg)[:1], "not one per face"),
        "a duplicate in place of another": (lambda eg: real(eg)[:-1] + real(eg)[:1], "not one per face"),
        "a non-enriched target": (not_enriched, "triangle: bad specialization"),
        "a target off the stated contraction": (uncontracted, "target graph must be the stated contraction"),
        "an unknown contracted label": (unknown_label, "single_edge: bad specialization of Preorder(['e'], []): unknown label 'zz'"),
        "a contracted set that is no lower set": (not_lower, "contracted set must be a lower set of the source"),
        "a target that drops a surviving relation": (unrefined, "target preorder must refine every surviving relation"),
    }
    for plant, (fake, message) in plants.items():
        monkeypatch.setattr(enrichfan.verify, "specializations", fake)
        failures = check_rays_and_faces()
        assert any(message in f for f in failures), plant


def _planted_mask(rows, kind):
    """A mask that is no irreducible upper set of the preorder with ``rows``:
    the union of two principal upper sets that is not one itself, or a
    single label with something above it; None when there is none."""
    if kind == "reducible":
        return next((a | b for a in rows for b in rows if a | b not in rows), None)
    return next((1 << i for i, row in enumerate(rows) if row != 1 << i), None)


def test_fan_verify_ray_check_fails_past_four_edges(monkeypatch):
    """On K4 structures (6 edges, past the brute-force comparison) a ray set
    with one extra ray that is reducible, or not an upper set, fails "ray
    set mismatch" in ``fan verify``'s ray check, even when the preorder's
    own ``irreducible_upper_sets`` returns the same wrong sets."""
    real_rays, real_upper = enrichfan.verify.ray_generators, Preorder.irreducible_upper_sets
    structures = random.Random(0).sample(enriched_structures(k4()), 40)
    for kind in ("reducible", "not an upper set"):

        def rays(eg, kind=kind):
            mask = _planted_mask(eg.preorder.rows, kind)
            extra = [] if mask is None else [tuple(mask >> j & 1 for j in range(eg.graph.n_edges))]
            return real_rays(eg) + extra

        def upper_sets(p, brute_force=False, kind=kind):
            mask = _planted_mask(p.rows, kind)
            return real_upper(p, brute_force) + ([] if mask is None else [frozenset(p.ground[j] for j in bits(mask))])

        monkeypatch.setattr(enrichfan.verify, "ray_generators", rays)
        monkeypatch.setattr(Preorder, "irreducible_upper_sets", upper_sets)
        failures = enrichfan.verify._rays_and_faces_failures("k4", structures)
        assert any("ray set mismatch" in f for f in failures), kind


def test_criterion_3_fails_on_a_planted_dependent_ray_set(monkeypatch):
    """Structure cones are built without the constructor's independence
    check, so the face check's smoothness test is what catches a dependent
    ray set: one K4 structure's cone gets one ray replaced by the sum of two others."""
    real = enrichfan.verify.closed_structure_cone
    target = next(eg for eg in enriched_structures(k4()) if eg.rank >= 3)
    r1, r2, r3, *rest = real(target).rays
    rays = tuple(sorted([r1, r2, tuple(map(sum, zip(r1, r2))), *rest]))
    with pytest.raises(ValueError, match="linearly independent"):
        RationalCone(target.graph.edge_labels, rays)

    def dependent(eg):
        return _trusted_cone(eg.graph.edge_labels, rays) if eg == target else real(eg)

    monkeypatch.setattr(enrichfan.verify.corpus, "corpus_graphs", lambda: {"k4": k4()})
    monkeypatch.setattr(enrichfan.verify, "closed_structure_cone", dependent)
    assert check_rays_and_faces() == [f"k4: cone not smooth for {target.preorder!r}"]


def test_criterion_4_star_pipeline():
    _run(4, "star-subdivision fan equals the direct fan; 6 and 3 maximal cones", 10.0, check_star_pipeline)


def test_criterion_5_quotient_identities():
    _run(5, "quotient fans: projective spaces, the hexagonal surface, blowup points", 5.0, check_quotient_identities)


def test_criterion_6_kernel():
    _run(6, "kernel lattice generated by the emitted relations; torus points; mutants", 60.0, check_kernel_and_torus, SEED)


def test_criterion_7_genus_two_moduli():
    _run(7, "genus-2: 7 graphs, 9 cells, 2 maximal, unique lifts for 500 points", 60.0, check_genus_two_moduli, SEED)


def test_criterion_8_bond_round_trip():
    _run(8, "bond minima round trip and exhaustive bond collections", 30.0, check_bond_round_trip)


def check_genus_three_cells() -> list:
    """``enrichfan moduli cells -g 3 --format json`` end to end."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["moduli", "cells", "-g", "3", "--format", "json"])
    if code != 0:
        return [f"exit code {code}"]
    data = json.loads(out.getvalue())
    failures = []
    dims = Counter(c["dim"] for c in data["cells"])
    if len(data["cells"]) != 262:
        failures.append(f"{len(data['cells'])} cells, expected 262")
    if sorted(dims.items()) != [(0, 1), (1, 9), (2, 32), (3, 66), (4, 83), (5, 56), (6, 15)]:
        failures.append(f"cells by dimension {sorted(dims.items())}")
    by_id = {c["id"]: c for c in data["cells"]}
    if len(data["maximal"]) != 15 or any(by_id[i]["dim"] != 6 for i in data["maximal"]):
        failures.append("maximal cells are not fifteen of dimension 6")
    if not data["connected_through_codim1"]:
        failures.append("maximal cells not connected through codimension one")
    arrows = sum(len(c["specializes_to"]) for c in data["cells"])
    if arrows != 3549:
        failures.append(f"{arrows} specialization arrows, expected 3549")
    return failures


def test_criterion_9_genus_three_moduli_cli():
    _run(9, "genus-3 moduli cells through the CLI: 262 cells, 15 maximal, 56 codim-1", 60.0, check_genus_three_cells)
