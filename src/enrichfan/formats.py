"""Text, JSON and DOT formats for graphs, preorders, fans and cells.

The text format is one header line ``vertices: id[:weight] ...`` followed
by one line per edge ``label: u v``.  Integer-looking tokens become ints,
everything else stays a string; serialization round-trips.
"""

from __future__ import annotations

import json

from .enriched import EnrichedGraph, enriched_structures
from .errors import FormatError
from .fans import Fan
from .graphs import MultiGraph, WeightedGraph
from .preorders import Preorder


def _token(s):
    s = str(s)
    if s.lstrip("-").isdigit():
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


def graph_to_text(wg: WeightedGraph) -> str:
    g = wg.graph
    head = "vertices: " + " ".join(
        f"{v}:{wg.weight(v)}" if wg.weight(v) else str(v) for v in g.vertices
    )
    body = [f"{e}: {u} {v}" for e, (u, v) in ((e, g.ends(e)) for e in g.edge_labels)]
    return "\n".join([head] + body) + "\n"


def graph_to_json_dict(wg: WeightedGraph) -> dict:
    g = wg.graph
    return {
        "vertices": [{"id": v, "weight": wg.weight(v)} for v in g.vertices],
        "edges": [{"label": e, "ends": list(g.ends(e))} for e in g.edge_labels],
    }


def graph_from_json_dict(data: dict) -> WeightedGraph:
    """Read the JSON graph object; only a structural fault, such as a missing
    key or a wrong container type, is reported as a bad graph object."""
    try:
        weights, edges = {}, {}
        for item in data["vertices"]:
            weight = item.get("weight", 0)
            if type(weight) is not int:  # JSON integers only: no floats, no booleans
                raise FormatError(f"bad weight {weight!r} for vertex {item['id']!r}")
            _put(weights, item["id"], weight, "vertex id")
        if not weights:
            raise FormatError("graph has no vertices")
        for item in data["edges"]:
            ends = item["ends"]
            if type(ends) is not list or len(ends) != 2:
                raise FormatError(f"edge {item['label']!r} must name two endpoints")
            _put(edges, item["label"], tuple(ends), "edge label")
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


def preorder_to_json_dict(p: Preorder) -> dict:
    return {"ground": list(p.ground), "pairs": [list(t) for t in p.pairs()]}


def preorder_from_json_dict(data: dict) -> Preorder:
    try:
        return Preorder.from_relations(data["ground"], [tuple(t) for t in data["pairs"]])
    except Exception as exc:
        raise FormatError(f"bad preorder object: {exc}") from exc


def enriched_to_json_dict(eg: EnrichedGraph, weights=None) -> dict:
    wg = weights or WeightedGraph(eg.graph, {v: 0 for v in eg.graph.vertices})
    return {
        "graph": graph_to_json_dict(wg),
        "pairs": [list(t) for t in eg.preorder.pairs()],
    }


def enriched_from_json_dict(data: dict) -> EnrichedGraph:
    wg = graph_from_json_dict(data["graph"])
    p = Preorder.from_relations(wg.graph.edge_labels, [tuple(t) for t in data.get("pairs", [])])
    try:
        return EnrichedGraph(wg.graph, p)
    except Exception as exc:
        raise FormatError(f"not an enriched structure: {exc}") from exc


def fan_to_json_dict(fan: Fan) -> dict:
    rays = list(fan.rays())
    index = {r: i for i, r in enumerate(rays)}
    return {
        "lattice_rank": fan.ambient_rank,
        "rays": [list(r) for r in rays],
        "maximal_cones": sorted(sorted(index[r] for r in c.rays) for c in fan.maximal),
    }


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, default=str) + "\n"


def graph_to_dot(wg: WeightedGraph, name: str = "G") -> str:
    g = wg.graph
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        w = wg.weight(v)
        label = f"{v}" if not w else f"{v} ({w})"
        lines.append(f'  "{v}" [label="{label}"];')
    for e in g.edge_labels:
        u, v = g.ends(e)
        lines.append(f'  "{u}" -- "{v}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_to_dot(p: Preorder, name: str = "H") -> str:
    q = p.quotient()
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, cls in enumerate(q.classes):
        label = "~".join(map(str, cls))
        lines.append(f'  c{i} [label="{label}"];')
    for i, j in q.hasse:
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def relation_summary(p: Preorder) -> str:
    """Compact description: classes joined by ~, Hasse covers as <."""
    q = p.quotient()
    cls = ["~".join(map(str, c)) for c in q.classes]
    covers = [f"{cls[i]}<{cls[j]}" for i, j in q.hasse]
    covered = {i for pair in q.hasse for i in pair}
    isolated = [cls[i] for i in range(len(cls)) if i not in covered]
    return "; ".join(covers + isolated) or "empty"


def specialization_poset_dot(g: MultiGraph, name: str = "S") -> str:
    """Same-graph specialization arrows among all enriched structures of g.

    Such a specialization of rank one less merges a class into one it
    covers, so each arrow comes from a Hasse cover of its source.
    """
    structs = enriched_structures(g)
    ids = {eg.preorder: i for i, eg in enumerate(structs)}
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f'  p{i} [label="{relation_summary(eg.preorder)}"];' for i, eg in enumerate(structs)]
    for k, eg in enumerate(structs):
        q = eg.preorder.quotient()
        merged = sorted(ids[eg.preorder.with_pairs([(q.classes[j][0], q.classes[i][0])])] for i, j in q.hasse)
        lines.extend(f"  p{t} -> p{k};" for t in merged)
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def cells_to_dot(cells, adjacency, name: str = "Cells") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
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
