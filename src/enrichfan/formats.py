"""Graphs read from text or JSON; graphs, fans and cells written as JSON
and graphs, preorders and cells as DOT; the specialization poset's arrows
and node labels come off the row forest ``enriched._parents``, imported on
first use.

The text format is one header line ``vertices: id[:weight] ...`` followed
by one line per edge ``label: u v``.  A token that is an optional single
``-`` followed by decimal digits becomes an int, everything else stays a
string.
"""

from __future__ import annotations

import json

from .errors import FormatError
from .graphs import MultiGraph, WeightedGraph, bits


def _token(s):
    s = str(s)
    if s.removeprefix("-").isdecimal():
        return int(s)
    return s


def _put(table: dict, key, value, what: str):
    """Add ``key`` to a vertex or edge table; a repeated key is an input error."""
    if key in table:
        raise FormatError(f"repeated {what} {key!r}")
    table[key] = value


def parse_graph_text(text: str) -> WeightedGraph:
    lines = [ln.strip() for ln in text.replace(";", "\n").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vertices:"):
        raise FormatError("first line must start with 'vertices:'")
    weights = {}
    for tok in lines[0][len("vertices:"):].split():
        if ":" in tok:
            vid, w = tok.rsplit(":", 1)
            try:
                weight = int(w)
            except ValueError as exc:
                raise FormatError(f"bad weight in {tok!r}") from exc
            _put(weights, _token(vid), weight, "vertex id")
        else:
            _put(weights, _token(tok), 0, "vertex id")
    if not weights:
        raise FormatError("graph has no vertices")
    edges = {}
    for ln in lines[1:]:
        if ":" not in ln:
            raise FormatError(f"edge line {ln!r} must look like 'label: u v'")
        label, rest = ln.split(":", 1)
        ends = rest.split()
        if len(ends) != 2:
            raise FormatError(f"edge line {ln!r} must name two endpoints")
        _put(edges, _token(label.strip()), (_token(ends[0]), _token(ends[1])), "edge label")
    return _weighted_graph(weights, edges)


def _weighted_graph(weights: dict, edges: dict) -> WeightedGraph:
    """The graph both parsers read; a library error becomes an input error with its message."""
    try:
        return WeightedGraph(MultiGraph(weights, edges), weights)
    except Exception as exc:
        raise FormatError(str(exc)) from exc


def graph_to_json_dict(wg: WeightedGraph) -> dict:
    g = wg.graph
    return {
        "vertices": [{"id": v, "weight": wg.weight(v)} for v in g.vertices],
        "edges": [{"label": e, "ends": list(g.ends(e))} for e in g.edge_labels],
    }


def _json_id(value, what: str):
    """A vertex id, edge label or end read from JSON: a string or an integer, not a boolean."""
    if type(value) not in (str, int):
        raise FormatError(f"{what} must be a string or an integer, not {value!r}")
    return value


def graph_from_json_dict(data: dict) -> WeightedGraph:
    """Read the JSON graph object; only a structural fault, such as a missing
    key or a wrong container type, is reported as a bad graph object."""
    try:
        weights, edges = {}, {}
        for item in data["vertices"]:
            vid = _json_id(item["id"], "a vertex id")
            weight = item.get("weight", 0)
            if type(weight) is not int:  # JSON integers only: no floats, no booleans
                raise FormatError(f"bad weight {weight!r} for vertex {vid!r}")
            _put(weights, vid, weight, "vertex id")
        if not weights:
            raise FormatError("graph has no vertices")
        for item in data["edges"]:
            label, ends = _json_id(item["label"], "an edge label"), item["ends"]
            if type(ends) is not list or len(ends) != 2:
                raise FormatError(f"edge {label!r} must name two endpoints")
            _put(edges, label, tuple(_json_id(v, f"an end of edge {label!r}") for v in ends), "edge label")
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"bad graph object: {exc}") from exc
    return _weighted_graph(weights, edges)


def parse_graph(text: str) -> WeightedGraph:
    """Detect JSON versus the line-oriented text format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return graph_from_json_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc}") from exc
    return parse_graph_text(text)


def fan_to_json_dict(fan: Fan) -> dict:
    rays = list(fan.rays())
    index = {r: i for i, r in enumerate(rays)}
    return {
        "lattice_rank": fan.ambient_rank,
        "rays": [list(r) for r in rays],
        "maximal_cones": sorted([index[r] for r in c.rays] for c in fan.maximal),
    }


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, default=str) + "\n"


def graph_to_dot(wg: WeightedGraph) -> str:
    g = wg.graph
    lines = ["graph G {"]
    for v in g.vertices:
        w = wg.weight(v)
        label = f"{v}" if not w else f"{v} ({w})"
        lines.append(f'  "{v}" [label="{label}"];')
    for e in g.edge_labels:
        u, v = g.ends(e)
        lines.append(f'  "{u}" -- "{v}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_to_dot(p: Preorder) -> str:
    q = p.quotient()
    lines = ["digraph H {", "  rankdir=BT;"]
    for i, cls in enumerate(q.classes):
        label = "~".join(map(str, cls))
        lines.append(f'  c{i} [label="{label}"];')
    for i, j in q.hasse:
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _relation_summary(p: Preorder, parents: dict) -> str:
    """Classes joined by ~, Hasse covers (the row forest ``parents``) as <."""
    classes = p._classes()
    index = {row: k for k, row in enumerate(classes)}
    cls = ["~".join(str(p.ground[j]) for j in bits(m)) for m in classes.values()]
    covers = sorted((index[parent], index[row]) for row, parent in parents.items() if parent)
    isolated = [c for i, c in enumerate(cls) if all(i not in pair for pair in covers)]
    return "; ".join([f"{cls[i]}<{cls[j]}" for i, j in covers] + isolated) or "empty"


def specialization_poset_dot(structs) -> str:
    """Same-graph specialization arrows among ``structs``, all enriched
    structures of one graph as ``enriched_structures`` lists them.

    Such a specialization of rank one less is a facet of the source's
    cone that contracts nothing: it merges a class into its parent in the
    row forest (``enriched._parents``), giving the labels of the class the
    parent's row and leaving the other rows alone.
    """
    from .enriched import _parents

    ids = {eg.preorder.rows: i for i, eg in enumerate(structs)}
    nodes, arrows = [], []
    for k, eg in enumerate(structs):
        rows, parents = eg.preorder.rows, _parents(eg.preorder.rows)
        nodes.append(f'  p{k} [label="{_relation_summary(eg.preorder, parents)}"];')
        merged = sorted(ids[tuple(parent if r == row else r for r in rows)] for row, parent in parents.items() if parent)
        arrows += [f"  p{t} -> p{k};" for t in merged]
    return "\n".join(["digraph S {", "  rankdir=BT;", *nodes, *arrows, "}"]) + "\n"


def cells_to_json(cells, adjacency) -> dict:
    out = []
    for c in cells:
        out.append(
            {
                "id": c.index,
                "graph": graph_to_json_dict(c.weighted),
                "preorder_pairs": [list(t) for t in c.preorder.pairs()],
                "dim": c.dim,
                "aut_order": c.aut_order,
                "specializes_to": adjacency[c.index],
            }
        )
    return {"genus": cells[0].genus if cells else None, "cells": out}


def cells_to_dot(cells, adjacency) -> str:
    lines = ["digraph Cells {", "  rankdir=BT;"]
    for c in cells:
        loops = len(c.weighted.graph.loops())
        label = f"#{c.index} dim={c.dim} |E|={c.weighted.graph.n_edges} loops={loops} aut={c.aut_order}"
        lines.append(f'  n{c.index} [label="{label}"];')
    for i, targets in adjacency.items():
        for j in targets:
            # draw only covering arrows to keep the diagram readable
            if not any(j in adjacency[k] for k in adjacency[i] if k != j):
                lines.append(f"  n{j} -> n{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
