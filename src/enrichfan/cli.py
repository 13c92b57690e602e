"""Command-line interface: graph inspection, enumeration, fans, moduli, equations.

``--max-edges`` is checked where a command that enumerates structures reads
its graph (``_capped_graph``); the toric commands pass it on to toric.

Importing this module loads only ``errors``, ``formats`` and ``graphs``; each
handler imports the other layers it runs, so a command loads no layer it
does not use.

Exit codes: 0 success, 1 verification failure, 2 unparseable input or a
malformed option, 3 enumeration guard exceeded, 4 any other library error
(for example a graph that is not biconnected where one is required).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import EnrichfanError, FormatError, GuardExceededError
from .formats import (
    cells_to_dot,
    cells_to_json,
    dumps,
    fan_to_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    hasse_to_dot,
    parse_graph,
    specialization_poset_dot,
)
from .graphs import MultiGraph, WeightedGraph, biconnected_components, bonds, genus, is_biconnected, is_stable

DEFAULT_SEED = 20240
SEED_ENV = "ENRICHFAN_SEED"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_ERROR = 4


def _load_graph(args) -> WeightedGraph:
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise FormatError(f"cannot read {args.input}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"cannot read {args.input}: not UTF-8 text") from exc
    elif args.inline:
        text = args.inline
    else:
        raise FormatError("provide --input FILE or --inline STR")
    return parse_graph(text)


def _capped_graph(args) -> MultiGraph:
    """The input graph of a command that enumerates structures, refused past ``--max-edges`` edges."""
    g = _load_graph(args).graph
    if g.n_edges > args.max_edges:
        raise GuardExceededError(f"enumeration capped at {args.max_edges} edges")
    return g


def _emit(args, *, text, json_data, dot=None):
    """Write the rendering ``--format`` names; ``dot`` is a thunk, called only for DOT."""
    if args.format == "json":
        sys.stdout.write(dumps(json_data))
    elif args.format == "dot":
        sys.stdout.write(dot())
    else:
        sys.stdout.write(text)


def cmd_graph_info(args) -> int:
    wg = _load_graph(args)
    g = wg.graph
    blocks = biconnected_components(g)
    data = {
        "graph": graph_to_json_dict(wg),
        "n_vertices": g.n_vertices,
        "n_edges": g.n_edges,
        "connected": g.is_connected(),
        "biconnected": is_biconnected(g),
        "blocks": [list(b.edge_labels) for b in blocks],
        "bonds": [list(b.sorted_edges()) for b in bonds(g)] if g.is_connected() else None,
        "genus": genus(wg) if g.is_connected() else None,
        "stable": is_stable(wg),
    }
    lines = [
        f"vertices: {g.n_vertices}  edges: {g.n_edges}",
        f"connected: {data['connected']}  biconnected: {data['biconnected']}  stable: {data['stable']}",
        f"genus: {data['genus']}",
        "blocks: " + "; ".join(",".join(map(str, b)) for b in data["blocks"]),
        "bonds: " + ("; ".join(",".join(map(str, b)) for b in data["bonds"]) if data["bonds"] else "-"),
    ]
    _emit(args, text="\n".join(lines) + "\n", json_data=data, dot=lambda: graph_to_dot(wg))
    return EXIT_OK


def enriched_structures(g: MultiGraph) -> list:
    """``enriched.enriched_structures``, imported on its first call; a name of
    this module so that a test can put a fake enumeration in its place."""
    from . import enriched

    return enriched.enriched_structures(g)


def cmd_enriched_list(args) -> int:
    g = _capped_graph(args)
    structs = enriched_structures(g)
    if args.format == "dot":
        sys.stdout.write(specialization_poset_dot(structs))
        return EXIT_OK
    shown = [(eg.preorder.pairs(), eg.rank, eg.is_generic()) for eg in structs]
    generic_count = sum(generic for _, _, generic in shown)
    if args.format == "json":
        records = [{"pairs": [list(t) for t in pairs], "rank": rank, "generic": generic} for pairs, rank, generic in shown]
        sys.stdout.write(dumps({"count": len(structs), "generic_count": generic_count, "structures": records}))
        return EXIT_OK
    lines = [f"{len(structs)} enriched structures ({generic_count} generic)"]
    for pairs, rank, generic in shown:
        rel = "; ".join(f"{a}≼{b}" for a, b in pairs) or "discrete"
        lines.append(f"  rank {rank}{' generic' if generic else ''}: {rel}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_enriched_check(args) -> int:
    from .enriched import is_enriched
    from .preorders import Preorder

    wg = _load_graph(args)
    if args.pairs:
        try:
            raw = json.loads(args.pairs)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad --pairs JSON: {exc}") from exc
        if not isinstance(raw, list) or not all(
            isinstance(t, list) and len(t) == 2 and all(type(x) in (str, int) for x in t) for t in raw
        ):
            raise FormatError("--pairs must be a JSON list of [a, b] pairs")
        pairs = [tuple(t) for t in raw]
    else:
        pairs = []
    try:
        p = Preorder.from_relations(wg.graph.edge_labels, pairs)
    except Exception as exc:
        raise FormatError(str(exc)) from exc
    ok = is_enriched(wg.graph, p)
    _emit(
        args,
        text=f"enriched: {ok}\n",
        json_data={"enriched": ok, "rank": p.rank, "generic": p.is_partial_order()},
        dot=lambda: hasse_to_dot(p),
    )
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_fan_build(args) -> int:
    from .fans import fan_by_star_subdivision, fan_equal, fan_of_graph

    g = _capped_graph(args)
    fan = fan_by_star_subdivision(g) if args.via_star else fan_of_graph(g)
    data = fan_to_json_dict(fan)
    text = [f"maximal cones: {len(fan.maximal)}  rays: {len(fan.rays())}"]
    status = EXIT_OK
    if args.check_equal:
        other = fan_of_graph(g) if args.via_star else fan_by_star_subdivision(g)
        equal = fan_equal(fan, other)
        data["equal"] = equal
        text.append(f"equal: {'true' if equal else 'false'}")
        if not equal:
            status = EXIT_VERIFY
    _emit(args, text="\n".join(text) + "\n", json_data=data)
    return status


def cmd_fan_verify(args) -> int:
    from .verify import verify_fan_for_graph

    failures = verify_fan_for_graph(_capped_graph(args), seed=args.seed, log=print)
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_moduli_cells(args) -> int:
    from .moduli import cell_adjacency, classify_census, enumerate_cells

    cells = enumerate_cells(args.genus)
    adjacency = cell_adjacency(cells)
    data = cells_to_json(cells, adjacency)
    report = classify_census(cells, adjacency)
    data["maximal"] = list(report.maximal)
    data["connected_through_codim1"] = report.connected_through_codim1
    lines = [f"genus {args.genus}: {len(cells)} cells, {len(report.maximal)} maximal"]
    for c in cells:
        lines.append(
            f"  #{c.index} dim={c.dim} aut={c.aut_order} edges={c.weighted.graph.n_edges} -> {adjacency[c.index]}"
        )
    _emit(args, text="\n".join(lines) + "\n", json_data=data, dot=lambda: cells_to_dot(cells, adjacency))
    return EXIT_OK


def cmd_toric_equations(args) -> int:
    from .toric import _bond_names, _equations, _guarded_bonds

    wg = _load_graph(args)
    g = wg.graph
    masks = _guarded_bonds(g, args.max_edges, "relation search")  # rejects a graph that is not biconnected
    rels = _equations(g, masks)
    names = _bond_names(g, masks)
    data = {
        "bonds": {name: list(be) for be, name in names.items()},
        "relations": [
            {
                "exponents": [
                    {"bond": names[be], "edge": e, "power": x} for be, e, x in rel.terms
                ],
                "rendered": rel.rendered(names),
            }
            for rel in rels
        ],
    }
    lines = [f"{len(rels)} relations"]
    lines += ["  " + r["rendered"] for r in data["relations"]]
    if args.ideal:
        lines = [r["rendered"].replace(" = ", " - ") for r in data["relations"]]
    _emit(args, text="\n".join(lines) + "\n", json_data=data)
    return EXIT_OK


def cmd_toric_schedule(args) -> int:
    from .toric import blowup_schedule

    wg = _load_graph(args)
    stages = blowup_schedule(wg.graph, args.max_edges)
    data = {
        "stages": [
            {
                "cardinality": st.cardinality,
                "centers": [
                    {"contracted": list(s), "vanishing": list(coords)} for s, coords in st.centers
                ],
            }
            for st in stages
        ]
    }
    lines = []
    for st in stages:
        lines.append(f"stage {st.cardinality}: {len(st.centers)} centers")
        for s, coords in st.centers:
            lines.append(f"  contract {{{','.join(map(str, s))}}}: x=0 on {{{','.join(map(str, coords))}}}")
    _emit(args, text=("\n".join(lines) + "\n") if lines else "empty schedule\n", json_data=data)
    return EXIT_OK


def cmd_verify_all(args) -> int:
    from .verify import verify_all

    failures = verify_all(seed=args.seed, log=print)
    return EXIT_VERIFY if failures else EXIT_OK


def _int_at_least(name: str, least: int):
    """Argument type for an integer option that must be at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be an integer of at least {least}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enrichfan",
        description="Enriched structures on graphs, their fans, moduli cells and toric equations.",
    )
    parser.add_argument("--seed", type=int, default=None, help=f"PRNG seed (default {DEFAULT_SEED}; ${SEED_ENV} overrides the default)")
    sub = parser.add_subparsers(dest="group", required=True)

    def format_flag(p, *choices):
        p.add_argument("--format", choices=choices, default="text")

    def io_flags(p, capped=True):
        p.add_argument("--input", help="graph file (text or JSON)")
        p.add_argument("--inline", help="inline graph text ( ';' separates lines )")
        if capped:
            p.add_argument("--max-edges", type=_int_at_least("max-edges", 0), default=8, dest="max_edges")

    graph = sub.add_parser("graph", help="graph-level information").add_subparsers(dest="action", required=True)
    info = graph.add_parser("info", help="vertices, blocks, bonds, genus, stability")
    io_flags(info, capped=False)
    format_flag(info, "json", "dot", "text")
    info.set_defaults(func=cmd_graph_info)

    enriched = sub.add_parser("enriched", help="enriched structures").add_subparsers(dest="action", required=True)
    elist = enriched.add_parser("list", help="enumerate enriched structures")
    io_flags(elist)
    format_flag(elist, "json", "dot", "text")
    elist.set_defaults(func=cmd_enriched_list)
    echeck = enriched.add_parser("check", help="validate a preorder against the recursive conditions")
    io_flags(echeck, capped=False)
    format_flag(echeck, "json", "dot", "text")
    echeck.add_argument("--pairs", help='JSON list of related pairs, e.g. [["a","b"]]')
    echeck.set_defaults(func=cmd_enriched_check)

    fan = sub.add_parser("fan", help="fans of enriched structures").add_subparsers(dest="action", required=True)
    fbuild = fan.add_parser("build", help="build the fan of a graph")
    io_flags(fbuild)
    format_flag(fbuild, "json", "text")
    fbuild.add_argument("--via-star", action="store_true", dest="via_star", help="build by star subdivisions")
    fbuild.add_argument("--check-equal", action="store_true", dest="check_equal", help="compare both pipelines")
    fbuild.set_defaults(func=cmd_fan_build)
    fverify = fan.add_parser("verify", help="run the fan invariants on one graph")
    io_flags(fverify)
    fverify.set_defaults(func=cmd_fan_verify)

    moduli = sub.add_parser("moduli", help="moduli cells of enriched tropical curves").add_subparsers(dest="action", required=True)
    mcells = moduli.add_parser("cells", help="enumerate the cells at a given genus")
    mcells.add_argument("-g", "--genus", type=_int_at_least("genus", 1), required=True)
    format_flag(mcells, "json", "dot", "text")
    mcells.set_defaults(func=cmd_moduli_cells)

    toric = sub.add_parser("toric", help="the toric variety of enriched structures").add_subparsers(dest="action", required=True)
    teq = toric.add_parser("equations", help="binomial and trinomial relations")
    io_flags(teq)
    format_flag(teq, "json", "text")
    teq.add_argument("--ideal", action="store_true", help="emit plain ideal generators, one per line")
    teq.set_defaults(func=cmd_toric_equations)
    tsch = toric.add_parser("schedule", help="blowup-center schedule")
    io_flags(tsch)
    format_flag(tsch, "json", "text")
    tsch.set_defaults(func=cmd_toric_schedule)

    verify = sub.add_parser("verify", help="verification suites").add_subparsers(dest="action", required=True)
    vall = verify.add_parser("all", help="run every invariant on the built-in corpus")
    vall.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        value = os.environ.get(SEED_ENV, DEFAULT_SEED)
        try:
            args.seed = int(value)
        except ValueError:
            print(f"error: {SEED_ENV} must be an integer, got {value!r}", file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except EnrichfanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
