"""The public names of ``enrichfan``, pinned: removing a name or adding one
changes this list."""

import importlib
import types

import enrichfan

PUBLIC = [
    "Bond",
    "EdgePermutation",
    "EnrichedGraph",
    "Fan",
    "LatticeQuotient",
    "LaurentRelation",
    "ModuliCell",
    "MultiGraph",
    "Preorder",
    "QuotientPoset",
    "RationalCone",
    "Specialization",
    "WeightedGraph",
    "automorphisms",
    "biconnected_components",
    "blowup_schedule",
    "bond_minima",
    "bonds",
    "canonical_structure",
    "cell_adjacency",
    "check_unique_lifts",
    "classify_cells",
    "classify_census",
    "closed_structure_cone",
    "cones",
    "contract",
    "enriched",
    "enriched_structures",
    "enumerate_cells",
    "enumerate_stable_weighted_graphs",
    "equations",
    "errors",
    "fan_by_star_subdivision",
    "fan_equal",
    "fan_of_graph",
    "fans",
    "from_bond_collection",
    "generic_structures",
    "genus",
    "good_contraction_sequence",
    "graph_lattice_quotient",
    "graphs",
    "increment_coordinates",
    "increment_matrix",
    "is_biconnected",
    "is_enriched",
    "is_stable",
    "kernel_rank",
    "lattices",
    "locate",
    "moduli",
    "octant_fan",
    "preorders",
    "quotient_fan",
    "ray_generators",
    "relations_generate_kernel",
    "specializations",
    "star_subdivision",
    "structure_cone",
    "toric",
    "torus_point_check",
    "variety_dimension",
]


def test_public_names_are_pinned():
    assert sorted(enrichfan.__all__) == PUBLIC


def test_each_name_is_the_object_in_its_module():
    for name in enrichfan.__all__:
        obj = getattr(enrichfan, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"enrichfan.{name}"), name
        else:
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name
