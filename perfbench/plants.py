"""Planted wrong answers for the self-test: each workload's oracles must
catch its plant and count it as a failed operation."""

import enrichfan.cli
from enrichfan import enriched, moduli


def _drop_last(fn):
    def wrong(*args, **kwargs):
        return fn(*args, **kwargs)[:-1]

    return wrong


def _canonical_locate(g, x):
    """Every point lands in the cone where all edges of a block are equal."""
    return enriched.canonical_structure(g)


def plant(workload: str):
    if workload == "enumerate":
        enriched.enriched_structures = _drop_last(enriched.enriched_structures)
    elif workload == "geometry":
        enriched.locate = _canonical_locate
    elif workload == "moduli":
        moduli.enumerate_cells = _drop_last(moduli.enumerate_cells)
    elif workload == "cli":
        enrichfan.cli.enriched_structures = _drop_last(enrichfan.cli.enriched_structures)
    else:
        raise ValueError(f"no plant for workload {workload!r}")
