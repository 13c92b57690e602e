"""Spans around the benchmark's calls into the library, and the per-layer
metrics computed from them.

A span is ``(name, start, end, parent, scale, run_id)``: ``name`` is
``<module>.<function>`` of the library call it wraps (or ``bench.*`` for a
span the benchmark opens around a group of calls), ``parent`` is the index
of the enclosing span or ``None``, and ``scale`` turns its raw duration
into one at reference speed (see ``harness``), as for the end-to-end
times.  Spans stay in memory until the run ends.  Nothing inside ``src/``
is instrumented.

With tracing off the benchmark uses ``NullTracer``, which records nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, n):
        pass

    def mark(self):
        return 0

    def scale_since(self, mark, factor):
        pass


class Tracer:
    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent, scale]
        self.counts = {}
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent, 1.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def current(self):
        """Index of the innermost open span, or None."""
        return self._open[-1] if self._open else None

    def add_span(self, name, start, end, parent):
        """Record a span timed elsewhere (a CLI child process)."""
        self.spans.append([name, start, end, parent, 1.0])
        return len(self.spans) - 1

    def mark(self):
        return len(self.spans)

    def scale_since(self, mark, factor):
        """Set the scale of every span recorded since ``mark``."""
        for record in self.spans[mark:]:
            record[4] = factor

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps([*record, self.run_id]) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, scale in spans:
        if parent is not None:
            child[parent] += (end - start) * scale
    return [(end - start) * scale - child[i] for i, (_, start, end, _, scale) in enumerate(spans)]


# per-layer time metric -> span names whose self time it sums
LAYER_TIMES = {
    "enriched.enumerate_s": ("enriched.enriched_structures",),
    "enriched.validate_s": ("enriched.is_enriched",),
    "enriched.specializations_s": ("enriched.specializations",),
    "enriched.locate_s": ("enriched.locate",),
    "cones.contains_s": ("cones.RationalCone.contains",),
    "cones.build_s": ("cones.structure_cone", "cones.closed_structure_cone"),
    "cones.faces_s": ("cones.RationalCone.faces",),
    "preorders.upper_sets_s": ("preorders.Preorder.irreducible_upper_sets",),
    "fans.direct_s": ("fans.fan_of_graph",),
    "fans.star_s": ("fans.fan_by_star_subdivision",),
    "fans.equal_s": ("fans.fan_equal",),
    "fans.quotient_s": ("fans.graph_lattice_quotient", "fans.quotient_fan"),
    "lattices.snf_s": ("lattices.invariant_factors", "cones.RationalCone.is_smooth"),
    "graphs.bonds_s": ("graphs.bonds",),
    "toric.equations_s": ("toric.equations",),
    "toric.kernel_s": ("toric.relations_generate_kernel",),
    "toric.torus_s": ("toric.torus_point_check",),
    "toric.schedule_s": ("toric.blowup_schedule",),
    "moduli.stable_graphs_s": ("moduli.enumerate_stable_weighted_graphs",),
    "moduli.cells_s": ("moduli.enumerate_cells",),
    "moduli.adjacency_s": ("moduli.cell_adjacency",),
    "moduli.classify_s": ("moduli.classify_cells",),
    "moduli.lifts_s": ("moduli.check_unique_lifts",),
    "graphs.automorphisms_s": ("graphs.automorphisms",),
}

# per-layer call counts -> span name counted
LAYER_CALLS = {
    "enriched.locate_calls": "enriched.locate",
    "cones.contains_calls": "cones.RationalCone.contains",
    "graphs.automorphisms_calls": "graphs.automorphisms",
}

# per-layer result counts the workloads record with Tracer.count
COUNTED = (
    "enriched.structures",
    "enriched.specializations",
    "cones.built",
    "toric.relations",
    "moduli.cells",
    "moduli.pairs",
    "moduli.arrows",
)

# per-process means: one import, one command, one interpreter start and exit
CLI_MEANS = {
    "cli.import_s": "cli.import",
    "cli.command_s": "cli.main",
    "cli.interpreter_s": "bench.cli_invocation",
}


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one repetition from its spans and counts."""
    own = self_times(spans)
    total, calls = {}, {}
    for (name, *_), t in zip(spans, own):
        total[name] = total.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
    out = {metric: sum(total.get(n, 0.0) for n in names) for metric, names in LAYER_TIMES.items()}
    for metric, name in LAYER_CALLS.items():
        out[metric] = calls.get(name, 0)
    for metric in COUNTED:
        out[metric] = counts.get(metric, 0)
    enum_s = out["enriched.enumerate_s"]
    out["enriched.structures_per_s"] = out["enriched.structures"] / enum_s if enum_s else 0.0
    for metric, name in CLI_MEANS.items():
        out[metric] = total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0
    return out
