"""The ``cli`` workload: a fixed sequence of ``python -m enrichfan.cli``
invocations on seeded graph files, one child process at a time.

The worker never imports enrichfan here; each child pays interpreter
start-up and the import, as a user of the command line does.  With tracing
on (or a planted fault) the child runs ``cli_child.py``, which times the
import and ``main`` and hands those spans back on stderr.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from math import comb, factorial

import inputs
from cli_child import SPAN_MARKER
from harness import SCRATCH, SRC, Rep
from oracles import FUBINI, cycle_schedule_lines

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
CHILD_TIMEOUT_S = 60


def setup_cli(seed: int, size: inputs.Size) -> dict:
    """Write each seeded graph in the text and the JSON format."""
    folder = SCRATCH / f"cli-{os.getpid()}"
    folder.mkdir(parents=True, exist_ok=True)
    files = {}
    for kind, (g, labels) in inputs.cli_inputs(seed).items():
        (folder / f"{kind}.txt").write_text(inputs.graph_text(g), encoding="utf-8")
        (folder / f"{kind}.json").write_text(json.dumps(inputs.graph_json(g)), encoding="utf-8")
        files[kind] = (len(labels), labels, str(folder / f"{kind}.txt"), str(folder / f"{kind}.json"))
    return {"folder": folder, "files": files, "tiny": size is inputs.TINY}


def _lines(out: str) -> list:
    return out.rstrip("\n").split("\n") if out.strip() else []


def _expect(code: int, check):
    """Oracle on (exit code, stdout): the code must match, then ``check(stdout)``."""
    def oracle(answer):
        got, out = answer
        if got != code:
            return f"exit code {got}, expected {code}"
        return check(out)

    return oracle


def _first_line(expected: str):
    return lambda out: None if _lines(out)[:1] == [expected] else f"first line {_lines(out)[:1]}, expected {expected!r}"


def _json_fields(**expected):
    def check(out):
        data = json.loads(out)
        bad = {k: data.get(k) for k, v in expected.items() if data.get(k) != v}
        return f"fields {bad}, expected {expected}" if bad else None

    return check


def commands(files: dict, tiny: bool) -> list:
    """(argv, oracle) for every invocation, in order."""
    cn, cyc_labels, cyc_txt, cyc_json = files["cycle"]
    tn, th_labels, th_txt, th_json = files["theta"]
    counts = {"cycle": (FUBINI[cn], factorial(cn)), "theta": (2**tn - 1, tn)}
    chain = json.dumps([[a, b] for a, b in zip(cyc_labels, cyc_labels[1:])])
    lonely = json.dumps([cyc_labels[:2]])  # one relation leaves no global minimum
    star = json.dumps([[th_labels[0], e] for e in th_labels[1:]])  # one edge below the rest: generic

    def poset_dot(out):
        nodes = [ln for ln in _lines(out) if "[label=" in ln]
        total = counts["cycle"][0]
        return None if out.startswith("digraph") and len(nodes) == total else f"{len(nodes)} poset nodes, expected {total}"

    def listed(kind):
        total, generic = counts[kind]
        return lambda out: (
            None if _lines(out)[0] == f"{total} enriched structures ({generic} generic)" and len(_lines(out)) == total + 1
            else f"listing {_lines(out)[:1]} with {len(_lines(out))} lines, expected {total} structures"
        )

    def listed_json(kind):
        total, generic = counts[kind]
        return _json_fields(count=total, generic_count=generic)

    def cells_json(out):
        data = json.loads(out)
        ok = data["genus"] == 2 and len(data["cells"]) == 9 and len(data["maximal"]) == 2
        return None if ok else "genus-2 census is not 9 cells with 2 maximal"

    def cells_dot(out):
        nodes = [ln for ln in _lines(out) if "[label=" in ln]
        return None if out.startswith("digraph") and len(nodes) == 9 else f"{len(nodes)} cell nodes, expected 9"

    def schedule(out):
        stages = [ln for ln in _lines(out) if ln.startswith("stage")]
        return None if stages == cycle_schedule_lines(cn) else f"stages {stages}"

    cmds = [
        (["graph", "info", "--input", cyc_txt], _expect(0, _first_line(f"vertices: {cn}  edges: {cn}"))),
        (["graph", "info", "--input", th_json, "--format", "json"],
         _expect(0, _json_fields(n_vertices=2, n_edges=tn, biconnected=True, genus=tn - 1))),
        (["graph", "info", "--input", cyc_json, "--format", "dot"],
         _expect(0, lambda out: None if out.startswith("graph ") and sum("--" in ln for ln in _lines(out)) == cn
                 else "not a DOT graph with one line per edge")),
        (["enriched", "list", "--input", cyc_txt], _expect(0, listed("cycle"))),
        (["enriched", "list", "--input", cyc_json, "--format", "json"], _expect(0, listed_json("cycle"))),
        (["enriched", "list", "--input", th_txt], _expect(0, listed("theta"))),
        (["enriched", "list", "--input", th_json, "--format", "json"], _expect(0, listed_json("theta"))),
        (["enriched", "list", "--input", cyc_txt, "--format", "dot"], _expect(0, poset_dot)),
        (["enriched", "check", "--input", cyc_txt, "--pairs", chain], _expect(0, _first_line("enriched: True"))),
        (["enriched", "check", "--input", cyc_json, "--pairs", lonely], _expect(1, _first_line("enriched: False"))),
        (["enriched", "check", "--input", th_txt, "--pairs", star, "--format", "json"],
         _expect(0, _json_fields(enriched=True, rank=tn, generic=True))),
        (["fan", "build", "--input", cyc_txt, "--via-star", "--check-equal"],
         _expect(0, lambda out: None if _lines(out)[0].startswith(f"maximal cones: {counts['cycle'][1]} ")
                 and _lines(out)[1] == "equal: true" else f"fan output {_lines(out)}")),
        (["fan", "build", "--input", th_json, "--via-star", "--check-equal", "--format", "json"],
         _expect(0, lambda out: None if len(json.loads(out)["maximal_cones"]) == tn and json.loads(out)["equal"] is True
                 else "theta fan is not n maximal cones equal in both pipelines")),
        (["toric", "equations", "--input", cyc_txt, "--ideal"],
         _expect(0, lambda out: None if len(_lines(out)) == comb(cn, 3) else f"{len(_lines(out))} relations, expected {comb(cn, 3)}")),
        (["toric", "equations", "--input", cyc_json, "--format", "json"],
         _expect(0, lambda out: None if len(json.loads(out)["relations"]) == comb(cn, 3) else "wrong relation count")),
        (["toric", "equations", "--input", th_txt, "--ideal"],
         _expect(0, lambda out: None if not _lines(out) else "relations on a theta graph, expected none")),
        (["toric", "schedule", "--input", cyc_json], _expect(0, schedule)),
        (["toric", "schedule", "--input", th_txt], _expect(0, _first_line("empty schedule"))),
        (["moduli", "cells", "-g", "2", "--format", "json"], _expect(0, cells_json)),
        (["moduli", "cells", "-g", "2", "--format", "dot"], _expect(0, cells_dot)),
    ]
    return cmds[::4] if tiny else cmds


def _invoke(rep: Rep, argv: list, wrapped: bool, env: dict):
    cmd = [sys.executable, CHILD, *argv] if wrapped else [sys.executable, "-m", "enrichfan.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    if rep.tracer.enabled:
        parent = rep.tracer.current()
        for line in proc.stderr.splitlines():
            if line.startswith(SPAN_MARKER):
                for name, s, e in json.loads(line[len(SPAN_MARKER):]):
                    rep.tracer.add_span(name, s, e, parent)
    return proc.returncode, proc.stdout


def run_cli(rep: Rep, data: dict):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wrapped = rep.tracer.enabled or "PERFBENCH_PLANT" in env  # cli_child.py, not -m
    try:
        for argv, oracle in commands(data["files"], data["tiny"]):
            with rep.query():
                rep.op("bench.cli_invocation", " ".join(argv[:2]), _invoke, rep, argv, wrapped, env, oracle=oracle)
            rep.items += 1
    finally:
        shutil.rmtree(data["folder"], ignore_errors=True)
