"""The single-pass dual comparison map of ``enrichfan.toric`` against the
per-relation reference, and the number of bond enumerations it costs."""

import pytest

import enrichfan.toric
import reference_toric as ref
from enrichfan import corpus
from enrichfan.graphs import MultiGraph
from enrichfan.toric import _dual_map_rows, equations, relation_coordinates, relations_generate_kernel


def k4():
    vs = "abcd"
    return MultiGraph(vs, {f"{u}{v}": (u, v) for i, u in enumerate(vs) for v in vs[i + 1:]})


def wheel4():
    rim = "abcd"
    edges = {}
    for i, v in enumerate(rim):
        edges[f"s{v}"] = ("h", v)
        edges[f"r{v}"] = (v, rim[(i + 1) % 4])
    return MultiGraph("h" + rim, edges)


def doubled_square():
    return MultiGraph([1, 2, 3, 4], {"a": (1, 2), "b": (2, 3), "c": (3, 4), "d": (4, 1), "e": (1, 2)})


def mixed_labels():
    return MultiGraph([1, "x", "y"], {1: (1, "x"), "b": (1, "y"), 2: ("x", "y"), "d": ("x", "y")})


GRAPHS = {name: corpus.CORPUS[name] for name in corpus.BICONNECTED_CORPUS}
GRAPHS.update(k4=k4, w4=wheel4, doubled_square=doubled_square, mixed_labels=mixed_labels)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_dual_map_rows_match_reference(name):
    g = GRAPHS[name]()
    assert _dual_map_rows(g) == ref._dual_map_rows(g)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_relation_coordinates_match_reference(name):
    g = GRAPHS[name]()
    domain, _ = _dual_map_rows(g)
    for rel in equations(g):
        assert relation_coordinates(domain, rel) == ref.relation_coordinates(g, rel)


def test_kernel_check_enumerates_bonds_at_most_twice(monkeypatch):
    calls = []
    real = enrichfan.toric.bonds

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(enrichfan.toric, "bonds", counted)
    g = wheel4()
    assert relations_generate_kernel(g)
    assert len(calls) <= 2
