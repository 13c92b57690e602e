"""Enriched structures on graphs, their fans, moduli cells and toric equations.

Everything is computed in exact arithmetic (integers and fractions); no
floating point enters any geometric predicate.
"""

from .graphs import (
    Bond,
    EdgePermutation,
    MultiGraph,
    WeightedGraph,
    automorphisms,
    biconnected_components,
    bonds,
    contract,
    genus,
    is_biconnected,
    is_stable,
)
from .preorders import Preorder, QuotientPoset
from .enriched import (
    EnrichedGraph,
    Specialization,
    bond_minima,
    canonical_structure,
    enriched_structures,
    from_bond_collection,
    generic_structures,
    is_enriched,
    locate,
    specializations,
)
from .lattices import LatticeQuotient
from .cones import (
    RationalCone,
    closed_structure_cone,
    increment_coordinates,
    increment_matrix,
    ray_generators,
    structure_cone,
)
from .fans import (
    Fan,
    fan_by_star_subdivision,
    fan_equal,
    fan_of_graph,
    good_contraction_sequence,
    graph_lattice_quotient,
    octant_fan,
    quotient_fan,
    star_subdivision,
)
from .moduli import (
    ModuliCell,
    cell_adjacency,
    check_unique_lifts,
    classify_cells,
    classify_census,
    enumerate_cells,
    enumerate_stable_weighted_graphs,
)
from .toric import (
    LaurentRelation,
    blowup_schedule,
    equations,
    kernel_rank,
    relations_generate_kernel,
    torus_point_check,
    variety_dimension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
