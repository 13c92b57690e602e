"""Acceptance suite: one check per headline claim, with hard time budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import contextlib
import io
import json
import time
from collections import Counter

import enrichfan.verify
from enrichfan.cli import main
from enrichfan.enriched import EnrichedGraph, Specialization, _trusted
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

    plants = {
        "a duplicate added": (lambda eg: real(eg) + real(eg)[:1], "not one per face"),
        "a duplicate in place of another": (lambda eg: real(eg)[:-1] + real(eg)[:1], "not one per face"),
        "a non-enriched target": (not_enriched, "triangle: bad specialization"),
        "a target off the stated contraction": (uncontracted, "target graph must be the stated contraction"),
    }
    for plant, (fake, message) in plants.items():
        monkeypatch.setattr(enrichfan.verify, "specializations", fake)
        failures = check_rays_and_faces()
        assert any(message in f for f in failures), plant


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
