"""Enriched structures on graphs, their fans, moduli cells and toric equations.

Everything is computed in exact arithmetic (integers and fractions); no
floating point enters any geometric predicate.

``import enrichfan`` loads no layer until a name is used: each public name
is looked up on first use (PEP 562) in the one module that defines it, so
``from enrichfan import Fan`` loads ``fans`` and what ``fans`` imports.
"""

import importlib

# each layer, itself a public name, with the public names it defines
_LAYERS = {
    "graphs": (
        "Bond", "EdgePermutation", "MultiGraph", "WeightedGraph", "automorphisms", "biconnected_components",
        "bonds", "contract", "genus", "good_contraction_sequence", "is_biconnected", "is_stable",
    ),
    "preorders": ("Preorder", "QuotientPoset"),
    "enriched": (
        "EnrichedGraph", "Specialization", "bond_minima", "canonical_structure", "enriched_structures",
        "from_bond_collection", "generic_structures", "is_enriched", "locate", "specializations",
    ),
    "lattices": ("LatticeQuotient",),
    "cones": (
        "RationalCone", "closed_structure_cone", "increment_coordinates", "increment_matrix",
        "ray_generators", "structure_cone",
    ),
    "fans": (
        "Fan", "fan_by_star_subdivision", "fan_equal", "fan_of_graph", "graph_lattice_quotient",
        "octant_fan", "quotient_fan", "star_subdivision",
    ),
    "moduli": (
        "ModuliCell", "cell_adjacency", "check_unique_lifts", "classify_cells", "classify_census",
        "enumerate_cells", "enumerate_stable_weighted_graphs",
    ),
    "toric": (
        "LaurentRelation", "blowup_schedule", "equations", "kernel_rank", "relations_generate_kernel",
        "torus_point_check", "variety_dimension",
    ),
    "errors": (),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted([*_LAYERS, *_HOME])


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
