import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from enrichfan.cli import EXIT_ERROR, EXIT_GUARD, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRIANGLE = "vertices: v1 v2 v3; a: v1 v2; b: v1 v3; c: v2 v3"
THETA = "vertices: u v; a: u v; b: u v; c: u v"
DOUBLED = "vertices: a b d; e1: b d; e2: b d; e3: a b; e4: a d"

# SHA-256 of the output of `enrichfan moduli cells -g G --format F`: the
# census, the gluing and the three renderings must keep these bytes
CELLS_SHA256 = {
    (1, "json"): "95c75eae4de4d0c6715c74361e6a62a3c9427983f4e41c0628991be20bc04a80",
    (1, "dot"): "ffae800d144dbf7daa8d8105388a688d675e519eaba3e08e00e66df41f8d334f",
    (1, "text"): "92300f1d8886477858a7e3f43e24b36324f044b713967fd78a711e5a5f86e77c",
    (2, "json"): "35386fe37a85c612073b361222c4fa456568b4f6ab146c854f7a04316e98fc6e",
    (2, "dot"): "53ba0a2a9ec64fc2269ffe94e6dc27f3bf7ab85e1a22bc33638befeaac5bb491",
    (2, "text"): "45330c6fa4acf00a1da22abd27fd295d44b3437b7836b02a5525920ee1b5ccc2",
    (3, "json"): "cdfff85a913ceb5d83a70e3945c6b0bf83ac7f0bed2152dfeb8323cff52f6d50",
    (3, "dot"): "ecb6a2e7d911e78894a98934c0cb3c9e8788855b2b8359118663169359c82f66",
    (3, "text"): "9b6ec8a8e28e484647a36b20bda8ec337469dcdcd39669a8eb1c5edf5108cd90",
}


class TestGraphInfo:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "info", "--inline", TRIANGLE)
        assert code == EXIT_OK
        assert "genus: 1" in out and "biconnected: True" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "info", "--inline", THETA, "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["genus"] == 2 and data["bonds"] == [["a", "b", "c"]]

    def test_dot(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "info", "--inline", THETA, "--format", "dot")
        assert code == EXIT_OK and out.startswith("graph")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "graph", "info", "--inline", "not a graph")
        assert code == EXIT_PARSE and "error" in err

    def test_missing_input_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "graph", "info")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("token", ["--5", "\u00b2"])
    def test_token_that_is_not_an_integer_stays_a_string(self, capsys, token):
        text = f"vertices: {token} u; a: {token} u"
        code, out, err = run_cli(capsys, "graph", "info", "--inline", text, "--format", "json")
        assert code == EXIT_OK and err == ""
        graph = json.loads(out)["graph"]
        assert {v["id"] for v in graph["vertices"]} == {token, "u"}
        assert sorted(graph["edges"][0]["ends"], key=str) == sorted([token, "u"], key=str)

    def test_block_and_bond_labels_keep_their_type_and_order(self, capsys):
        text = "vertices: u v; 10: u v; 2: u v; 3: u v"
        code, out, _ = run_cli(capsys, "graph", "info", "--inline", text, "--format", "json")
        data = json.loads(out)
        assert code == EXIT_OK and data["blocks"] == [[2, 3, 10]] and data["bonds"] == [[2, 3, 10]]
        code, out, _ = run_cli(capsys, "graph", "info", "--inline", text + "; a: u u")
        assert code == EXIT_OK and "blocks: 2,3,10; a\n" in out and "bonds: 2,3,10\n" in out

    def test_signed_decimal_token_is_an_integer(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "info", "--inline", "vertices: -5 u; 7: -5 u", "--format", "json")
        graph = json.loads(out)["graph"]
        assert code == EXIT_OK and graph["edges"] == [{"label": 7, "ends": [-5, "u"]}]


class TestEnriched:
    def test_list_counts(self, capsys):
        code, out, _ = run_cli(capsys, "enriched", "list", "--inline", TRIANGLE, "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["count"] == 13 and data["generic_count"] == 6

    def test_list_contains_printed_structures(self, capsys):
        code, out, _ = run_cli(capsys, "enriched", "list", "--inline", DOUBLED, "--format", "json")
        data = json.loads(out)
        pair_sets = {frozenset(map(tuple, s["pairs"])) for s in data["structures"]}
        p1 = frozenset({("e1", "e2"), ("e1", "e3"), ("e1", "e4"), ("e3", "e4")})
        p2 = frozenset({("e3", "e1"), ("e3", "e2"), ("e3", "e4"), ("e1", "e2"), ("e1", "e4")})
        p3 = frozenset(
            {("e1", "e3"), ("e3", "e1"), ("e1", "e2"), ("e1", "e4"), ("e3", "e2"), ("e3", "e4")}
        )
        assert p1 in pair_sets and p2 in pair_sets and p3 in pair_sets

    def test_list_dot_reads_hasse_covers(self, capsys, monkeypatch):
        import enrichfan.formats

        def fail(eg):
            raise AssertionError("the poset DOT enumerated specializations")

        monkeypatch.setattr(enrichfan.formats, "specializations", fail, raising=False)
        code, out, _ = run_cli(capsys, "enriched", "list", "--inline", TRIANGLE, "--format", "dot")
        assert code == EXIT_OK
        assert out.count("label=") == 13 and out.count(" -> ") == 18

    def test_check_accepts(self, capsys):
        code, out, _ = run_cli(
            capsys, "enriched", "check", "--inline", THETA,
            "--pairs", '[["a","b"],["a","c"]]', "--format", "json",
        )
        assert code == EXIT_OK and json.loads(out)["enriched"] is True

    def test_check_rejects(self, capsys):
        code, out, _ = run_cli(capsys, "enriched", "check", "--inline", THETA, "--format", "json")
        assert code == EXIT_VERIFY and json.loads(out)["enriched"] is False

    def test_guard_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "enriched", "list", "--inline", TRIANGLE, "--max-edges", "2")
        assert code == EXIT_GUARD and "error" in err


NINE_EDGES = "vertices: u v; " + "; ".join(f"e{i}: u v" for i in range(1, 10))
ENUMERATING = [
    ["enriched", "list"],
    ["enriched", "list", "--format", "dot"],
    ["fan", "build"],
    ["fan", "build", "--via-star", "--check-equal"],
    ["fan", "verify"],
]


class TestEdgeGuard:
    """The library takes no edge cap; the commands that enumerate structures
    refuse a graph past ``--max-edges`` where they read it."""

    @pytest.mark.parametrize("argv", ENUMERATING)
    def test_refused_past_max_edges(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--inline", THETA, "--max-edges", "2")
        assert code == EXIT_GUARD and out == ""
        assert err == "error: enumeration capped at 2 edges\n"

    @pytest.mark.parametrize("argv", ENUMERATING)
    def test_accepted_at_max_edges(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--inline", THETA, "--max-edges", "3")
        assert code == EXIT_OK and out and err == ""

    @pytest.mark.parametrize("argv", ENUMERATING)
    def test_default_cap_is_eight(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--inline", NINE_EDGES)
        assert code == EXIT_GUARD and out == ""
        assert err == "error: enumeration capped at 8 edges\n"

    def test_raised_cap_enumerates_nine_edges(self, capsys):
        code, out, _ = run_cli(capsys, "enriched", "list", "--inline", NINE_EDGES, "--max-edges", "9")
        assert code == EXIT_OK and out.startswith("511 enriched structures (9 generic)\n")

    def test_toric_commands_keep_their_own_cap(self, capsys):
        code, out, err = run_cli(capsys, "toric", "equations", "--inline", THETA, "--max-edges", "2")
        assert code == EXIT_GUARD and out == "" and err == "error: relation search capped at 2 edges\n"
        code, out, err = run_cli(capsys, "toric", "schedule", "--inline", THETA, "--max-edges", "2")
        assert code == EXIT_GUARD and out == "" and err == "error: schedule capped at 2 edges\n"

    @pytest.mark.parametrize("argv", [["graph", "info"], ["enriched", "check"]])
    def test_no_option_where_nothing_is_enumerated(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--inline", THETA, "--max-edges", "2"])
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments: --max-edges 2" in capsys.readouterr().err


class TestFan:
    def test_build_with_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "fan", "build", "--inline", TRIANGLE, "--via-star", "--check-equal"
        )
        assert code == EXIT_OK
        assert "maximal cones: 6" in out and "equal: true" in out

    def test_build_with_check_beside_an_isolated_vertex(self, capsys):
        code, out, _ = run_cli(
            capsys, "fan", "build", "--inline", "vertices: u v w; a: u v; b: u v", "--via-star", "--check-equal"
        )
        assert code == EXIT_OK
        assert out == "maximal cones: 2  rays: 3\nequal: true\n"

    def test_build_json(self, capsys):
        code, out, _ = run_cli(capsys, "fan", "build", "--inline", THETA, "--format", "json")
        data = json.loads(out)
        assert data["lattice_rank"] == 3 and len(data["maximal_cones"]) == 3

    def test_verify(self, capsys):
        code, out, _ = run_cli(capsys, "fan", "verify", "--inline", THETA)
        assert code == EXIT_OK
        assert out.count("PASS") == 3

    def test_verify_enumerates_once(self, capsys, monkeypatch):
        import enrichfan.verify

        calls = []
        real = enrichfan.verify.enriched_structures

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(enrichfan.verify, "enriched_structures", counted)
        code, out, _ = run_cli(capsys, "fan", "verify", "--inline", TRIANGLE)
        assert code == EXIT_OK and out.count("PASS") == 3
        assert len(calls) == 1

    def test_verify_runs_each_check_on_its_own(self, capsys, monkeypatch):
        import enrichfan.verify

        def broken(*_):
            raise RuntimeError("planted fault")

        monkeypatch.setattr(enrichfan.verify, "ray_generators", broken)
        code, out, err = run_cli(capsys, "fan", "verify", "--inline", TRIANGLE)
        assert code == EXIT_VERIFY and err == ""
        assert _check_lines(out) == ["PASS  orthant cover (200 seeded points)", "FAIL  rays, smoothness, faces", "PASS  star subdivision pipeline"]
        assert "      RuntimeError: planted fault" in out.splitlines()

    def test_verify_takes_no_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fan", "verify", "--inline", THETA, "--format", "json"])
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments: --format json" in capsys.readouterr().err


class TestModuli:
    def test_cells_text(self, capsys):
        code, out, _ = run_cli(capsys, "moduli", "cells", "-g", "2")
        assert code == EXIT_OK
        assert "9 cells, 2 maximal" in out

    def test_cells_json(self, capsys):
        code, out, _ = run_cli(capsys, "moduli", "cells", "-g", "2", "--format", "json")
        data = json.loads(out)
        assert len(data["cells"]) == 9 and len(data["maximal"]) == 2
        dims = sorted(c["dim"] for c in data["cells"])
        assert dims == [0, 1, 1, 1, 2, 2, 2, 3, 3]

    def test_genus_one(self, capsys):
        code, out, err = run_cli(capsys, "moduli", "cells", "-g", "1")
        assert code == EXIT_OK and err == ""
        assert out.startswith("genus 1: 1 cells, 1 maximal\n")
        code, out, _ = run_cli(capsys, "moduli", "cells", "-g", "1", "--format", "json")
        data = json.loads(out)
        assert data["maximal"] == [0] and data["connected_through_codim1"] is True

    def test_census_runs_once(self, capsys, monkeypatch):
        import enrichfan.moduli

        calls = []
        real = enrichfan.moduli.enumerate_cells

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(enrichfan.moduli, "enumerate_cells", counted)  # the handler reads it at call time
        code, out, _ = run_cli(capsys, "moduli", "cells", "-g", "2")
        assert code == EXIT_OK and "9 cells, 2 maximal" in out
        assert calls == [2]

    @pytest.mark.parametrize("genus, fmt", list(CELLS_SHA256))
    def test_cells_output_is_pinned(self, capsys, genus, fmt):
        code, out, err = run_cli(capsys, "moduli", "cells", "-g", str(genus), "--format", fmt)
        assert code == EXIT_OK and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == CELLS_SHA256[genus, fmt]

    def test_guard(self, capsys):
        code, _, _ = run_cli(capsys, "moduli", "cells", "-g", "9")
        assert code == EXIT_GUARD

    def test_genus_above_guard(self, capsys):
        code, out, err = run_cli(capsys, "moduli", "cells", "-g", "4")
        assert code == EXIT_GUARD and out == ""
        assert err == "error: genus must lie in 1..3\n"

    def test_genus_below_one_is_bad_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moduli", "cells", "-g", "0"])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_PARSE
        assert "argument -g/--genus: genus must be an integer of at least 1, got '0'" in err
        assert "Traceback" not in err


class TestToric:
    def test_equations_theta_empty(self, capsys):
        code, out, _ = run_cli(capsys, "toric", "equations", "--inline", THETA, "--format", "json")
        assert code == EXIT_OK and json.loads(out)["relations"] == []

    def test_equations_doubled(self, capsys):
        code, out, _ = run_cli(capsys, "toric", "equations", "--inline", DOUBLED, "--format", "json")
        data = json.loads(out)
        assert len(data["relations"]) == 3
        assert all("rendered" in r for r in data["relations"])

    def test_schedule_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "toric", "schedule", "--inline", TRIANGLE, "--format", "json")
        data = json.loads(out)
        assert len(data["stages"]) == 1
        assert len(data["stages"][0]["centers"]) == 3

    def test_ideal_text(self, capsys):
        code, out, _ = run_cli(capsys, "toric", "equations", "--inline", DOUBLED, "--ideal")
        assert code == EXIT_OK and out.count(" - ") == 3


class TestErrors:
    def test_library_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "path.txt"
        path.write_text("vertices: u v w\na: u v\nb: v w\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "toric", "equations", "--input", str(path))
        assert code == EXIT_ERROR and out == ""
        assert err == "error: this operation expects a biconnected graph; split into blocks first\n"

    def test_disconnected_graph_is_not_biconnected(self, capsys):
        two_blocks = "vertices: u v w x; a: u v; b: u v; c: w x; d: w x"
        code, out, err = run_cli(capsys, "toric", "equations", "--inline", two_blocks)
        assert code == EXIT_ERROR and out == ""
        assert err == "error: this operation expects a biconnected graph; split into blocks first\n"

    @pytest.mark.parametrize("weight", ["1.5", "true"])
    def test_json_weight_must_be_an_integer(self, capsys, weight):
        blob = '{"vertices": [{"id": "u", "weight": %s}], "edges": []}' % weight
        code, out, err = run_cli(capsys, "graph", "info", "--inline", blob)
        assert code == EXIT_PARSE and out == ""
        assert err.startswith("error: bad weight ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "blob, message",
        [
            ('{"vertices": [{"id": null}], "edges": []}', "a vertex id must be a string or an integer, not None"),
            (
                '{"vertices": [{"id": 1}, {"id": 2}], "edges": [{"label": 0.5, "ends": [1, 2]}]}',
                "an edge label must be a string or an integer, not 0.5",
            ),
            (
                '{"vertices": [{"id": 1}, {"id": 2}], "edges": [{"label": "a", "ends": [1.0, 2]}]}',
                "an end of edge 'a' must be a string or an integer, not 1.0",
            ),
        ],
    )
    def test_json_ids_must_be_strings_or_integers(self, capsys, blob, message):
        for argv in (["graph", "info"], ["enriched", "list"]):
            code, out, err = run_cli(capsys, *argv, "--inline", blob)
            assert (code, out, err) == (EXIT_PARSE, "", f"error: {message}\n")

    def test_unknown_vertex_message(self, capsys):
        code, _, err = run_cli(capsys, "graph", "info", "--inline", "vertices: u v; a: u w")
        assert code == EXIT_PARSE and err == "error: unknown vertex 'w'\n"

    @pytest.mark.parametrize(
        "blob, err",
        [
            ('{"vertices": [{"id": "u", "weight": -1}], "edges": []}', "error: weight of 'u' must be a nonnegative integer\n"),
            ('{"vertices": [{"id": "u"}, {"id": "v"}], "edges": [{"label": "a", "ends": ["u", "w"]}]}', "error: unknown vertex 'w'\n"),
            ('{"vertices": [{"id": "u"}, {"id": "v"}], "edges": [{"label": "a", "ends": ["u", "v", "u"]}]}', "error: edge 'a' must name two endpoints\n"),
        ],
    )
    def test_json_graph_errors(self, capsys, blob, err):
        assert run_cli(capsys, "graph", "info", "--inline", blob) == (EXIT_PARSE, "", err)

    def test_json_and_text_weight_errors_agree(self, capsys):
        blob = '{"vertices": [{"id": "u", "weight": -1}], "edges": []}'
        assert run_cli(capsys, "graph", "info", "--inline", blob) == run_cli(capsys, "graph", "info", "--inline", "vertices: u:-1")

    def test_unknown_label_message(self, capsys):
        code, _, err = run_cli(capsys, "enriched", "check", "--inline", THETA, "--pairs", '[["a","zz"]]')
        assert code == EXIT_PARSE and err == "error: unknown label 'zz'\n"

    def test_repeated_edge_label(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "graph", "info", "--inline", "vertices: u v w; a: u v; a: v w; b: u w")
        assert code == EXIT_PARSE and out == ""
        assert err == "error: repeated edge label 'a'\n"
        path = tmp_path / "graph.json"
        path.write_text(
            json.dumps({
                "vertices": [{"id": "u"}, {"id": "v"}],
                "edges": [{"label": "a", "ends": ["u", "v"]}, {"label": "a", "ends": ["v", "u"]}],
            }),
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "enriched", "list", "--input", str(path))
        assert code == EXIT_PARSE and out == ""
        assert err == "error: repeated edge label 'a'\n"

    def test_repeated_vertex_id(self, capsys):
        code, out, err = run_cli(capsys, "graph", "info", "--inline", "vertices: u:1 u:0 v; a: u v")
        assert code == EXIT_PARSE and out == ""
        assert err == "error: repeated vertex id 'u'\n"

    @pytest.mark.parametrize("text", ["vertices:", '{"vertices": [], "edges": []}'])
    def test_empty_graph(self, capsys, text):
        code, out, err = run_cli(capsys, "graph", "info", "--inline", text)
        assert code == EXIT_PARSE and out == ""
        assert err == "error: graph has no vertices\n"

    def test_negative_max_edges_is_bad_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enriched", "list", "--inline", THETA, "--max-edges", "-1"])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_PARSE
        assert "argument --max-edges: max-edges must be an integer of at least 0, got '-1'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("pairs", ["5", "[1]", '{"x":1}', "[[1,2,3]]"])
    def test_malformed_pairs(self, capsys, pairs):
        code, out, err = run_cli(capsys, "enriched", "check", "--inline", THETA, "--pairs", pairs)
        assert code == EXIT_PARSE and out == ""
        assert err == "error: --pairs must be a JSON list of [a, b] pairs\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("pairs", ['[[true, "b"]]', '[[false, "b"]]'])
    def test_boolean_pairs_are_not_edge_labels(self, capsys, pairs):
        # true and false hash like the edges 1 and 0
        graph = "vertices: u v; 0: u v; 1: u v; b: u v"
        code, out, err = run_cli(capsys, "enriched", "check", "--inline", graph, "--pairs", pairs)
        assert code == EXIT_PARSE and out == ""
        assert err == "error: --pairs must be a JSON list of [a, b] pairs\n"

    def test_missing_input_file(self, tmp_path, capsys):
        path = tmp_path / "no" / "such.txt"
        code, out, err = run_cli(capsys, "enriched", "list", "--input", str(path))
        assert code == EXIT_PARSE and out == ""
        assert err == f"error: cannot read {path}: No such file or directory\n"
        assert "Traceback" not in err

    def test_unreadable_input_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "graph", "info", "--input", str(tmp_path))
        assert code == EXIT_PARSE and err == f"error: cannot read {tmp_path}: Is a directory\n"
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe\x00")
        code, _, err = run_cli(capsys, "graph", "info", "--input", str(path))
        assert code == EXIT_PARSE and err == f"error: cannot read {path}: not UTF-8 text\n"


def fresh_python(*argv):
    """Run ``python *argv`` in a new interpreter on this checkout's sources."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


# the modules of enrichfan that an interpreter has loaded, as its last stderr line
LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'enrichfan'), file=sys.stderr)"
CLI_BASE = ["cli", "errors", "formats", "graphs"]
# commands and the layers each loads beyond CLI_BASE
LAYERED_COMMANDS = [
    (["graph", "info", "--inline", TRIANGLE], []),
    (["enriched", "list", "--inline", THETA, "--format", "dot"], ["enriched", "preorders"]),
    (["enriched", "check", "--inline", THETA], ["enriched", "preorders"]),
    (["toric", "equations", "--inline", DOUBLED], ["lattices", "toric"]),
    (["toric", "schedule", "--inline", DOUBLED], ["lattices", "toric"]),
    (["moduli", "cells", "-g", "1"], ["cones", "enriched", "lattices", "moduli", "preorders"]),
]


class TestColdStart:
    def test_import_loads_no_sympy(self):
        # sympy is a test-only oracle; importing the CLI must not pull it in
        code = "import enrichfan.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize(
        "statement, loaded",
        [("import enrichfan", []), ("import enrichfan.cli", CLI_BASE), ("from enrichfan import Preorder", ["errors", "graphs", "preorders"])],
    )
    def test_import_loads_only_what_it_names(self, statement, loaded):
        proc = fresh_python("-c", f"import sys; {statement}; {LOADED}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"{sorted(['enrichfan'] + [f'enrichfan.{m}' for m in loaded])}\n"

    @pytest.mark.parametrize("argv, layers", LAYERED_COMMANDS)
    def test_command_loads_only_its_layers(self, argv, layers):
        proc = fresh_python("-c", f"import sys; from enrichfan.cli import main; main(sys.argv[1:]); {LOADED}", *argv)
        assert proc.returncode == 0, proc.stderr
        loaded = sorted(["enrichfan"] + [f"enrichfan.{m}" for m in CLI_BASE + layers])
        assert proc.stderr.splitlines()[-1] == str(loaded)

    def test_commands_load_neither_dataclasses_nor_inspect(self):
        # the library's value classes are plain __slots__ classes, so no
        # command pays for dataclasses and the inspect module it imports;
        # the modules loaded before the import, by a site hook say, do not count
        commands = [argv for argv, _ in LAYERED_COMMANDS]
        commands += [["fan", "build", "--inline", THETA, "--via-star", "--check-equal"], ["verify", "all"]]
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from enrichfan.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    main(argv)\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)), file=sys.stderr)"
        )
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "argv, code, first_out, first_err",
        [
            (["graph", "info", "--inline", TRIANGLE], EXIT_OK, "vertices: 3  edges: 3", None),
            (["enriched", "check", "--inline", TRIANGLE, "--pairs", '[["a", "b"]]'], EXIT_VERIFY, "enriched: False", None),
            (["enriched", "check", "--inline", TRIANGLE, "--pairs", "["], EXIT_PARSE, None,
             "error: bad --pairs JSON: Expecting value: line 1 column 2 (char 1)"),
            (["enriched", "list", "--inline", THETA, "--max-edges", "2"], EXIT_GUARD, None,
             "error: enumeration capped at 2 edges"),
            (["toric", "equations", "--inline", "vertices: u v w; a: u v; b: v w"], EXIT_ERROR, None,
             "error: this operation expects a biconnected graph; split into blocks first"),
        ],
    )
    def test_each_exit_code_from_a_fresh_interpreter(self, argv, code, first_out, first_err):
        # in process, earlier tests have loaded every layer; here a handler
        # that forgot an import would fail
        proc = fresh_python("-m", "enrichfan.cli", *argv)
        assert proc.returncode == code, proc.stderr
        assert (proc.stdout.splitlines() or [None])[0] == first_out
        assert (proc.stderr.splitlines() or [None])[0] == first_err


def _check_lines(out: str) -> list:
    return [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]


class TestVerifyAll:
    def test_runs_green(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == EXIT_OK
        assert out.count("PASS") == 9 and "FAIL" not in out

    def test_a_raising_check_fails_alone(self, capsys, monkeypatch):
        # the exception becomes the check's FAIL line, and the checks after it still run
        import enrichfan.verify

        def broken():
            raise RuntimeError("planted fault")

        checks = list(enrichfan.verify.NAMED_CHECKS)
        checks[1] = (checks[1][0], broken, False)
        monkeypatch.setattr(enrichfan.verify, "NAMED_CHECKS", tuple(checks))
        code, out, err = run_cli(capsys, "verify", "all")
        assert code == EXIT_VERIFY and err == ""
        assert [line[:4] for line in _check_lines(out)] == ["PASS", "FAIL"] + ["PASS"] * 7
        assert "      RuntimeError: planted fault" in out.splitlines()

    def test_a_dropped_bond_fails_without_a_traceback(self, capsys, monkeypatch):
        # every graph with three or more bonds loses its last one, for every caller;
        # the kernel check counts the bonds on edge subsets, and the bond round trip
        # then raises inside the public structure check
        import enrichfan.graphs
        import enrichfan.toric
        import enrichfan.verify

        real = enrichfan.graphs._bond_masks

        def dropped(g):
            masks = real(g)
            return masks[:-1] if len(masks) >= 3 else masks

        for module in (enrichfan.graphs, enrichfan.toric, enrichfan.verify):
            monkeypatch.setattr(module, "_bond_masks", dropped)
        code, out, err = run_cli(capsys, "verify", "all")
        assert code == EXIT_VERIFY and err == ""
        assert len(_check_lines(out)) == 9
        assert "FAIL  kernel lattice and torus points" in _check_lines(out)
        assert "FAIL  bond collection round trip" in _check_lines(out)
        assert "      ValueError: preorder is not an enriched structure on this graph" in out.splitlines()

    def test_a_wrong_gap_closure_fails_without_a_traceback(self, capsys, monkeypatch):
        # the first row of every face target past a nonempty lower set loses its top
        # bit, for both readers of the face table; the rays-and-faces check then
        # meets targets that are not enriched
        import enrichfan.enriched
        import enrichfan.moduli

        real = enrichfan.enriched._faces

        def wrong(rows, facets=False):
            table = real(rows, facets)
            for lower, targets in table.items():
                n = len(rows) - lower.bit_count()  # target row 0 is bits 0 to n - 1
                if lower and n:
                    targets[:] = [q ^ 1 << (q & (1 << n) - 1).bit_length() - 1 for q in targets]
            return table

        for module in (enrichfan.enriched, enrichfan.moduli):
            monkeypatch.setattr(module, "_faces", wrong)
        code, out, err = run_cli(capsys, "verify", "all")
        assert code == EXIT_VERIFY and err == ""
        assert len(_check_lines(out)) == 9
        assert "FAIL  rays, smoothness, faces" in _check_lines(out)
        assert any(": bad specialization of " in line for line in out.splitlines())


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "moduli", "cells", "-g", "2", "--format", "json")
        _, out2, _ = run_cli(capsys, "moduli", "cells", "-g", "2", "--format", "json")
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "toric", "equations", "--inline", DOUBLED, "--format", "json")
        _, out4, _ = run_cli(capsys, "toric", "equations", "--inline", DOUBLED, "--format", "json")
        assert out3 == out4


class TestInputsAndSeed:
    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("vertices: u v\na: u v\nb: u v\nc: u v\n")
        code, out, _ = run_cli(capsys, "graph", "info", "--input", str(path), "--format", "json")
        assert code == EXIT_OK and json.loads(out)["genus"] == 2

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ENRICHFAN_SEED", "99")
        code, out, _ = run_cli(capsys, "fan", "verify", "--inline", THETA)
        assert code == EXIT_OK

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_bad_seed_env_is_bad_input(self, capsys, monkeypatch, value):
        monkeypatch.setenv("ENRICHFAN_SEED", value)
        code, out, err = run_cli(capsys, "graph", "info", "--inline", "vertices: u")
        assert code == EXIT_PARSE and out == ""
        assert err == f"error: ENRICHFAN_SEED must be an integer, got {value!r}\n"
        # --seed overrides the environment, which is then not read
        code, _, _ = run_cli(capsys, "--seed", "3", "graph", "info", "--inline", "vertices: u")
        assert code == EXIT_OK

    def test_json_input_round_trip(self, capsys):
        blob = json.dumps(
            {
                "vertices": [{"id": "u", "weight": 0}, {"id": "v", "weight": 0}],
                "edges": [
                    {"label": "a", "ends": ["u", "v"]},
                    {"label": "b", "ends": ["u", "v"]},
                    {"label": "c", "ends": ["u", "v"]},
                ],
            }
        )
        code, out, _ = run_cli(capsys, "enriched", "list", "--inline", blob, "--format", "json")
        assert code == EXIT_OK and json.loads(out)["count"] == 7


class TestDotOutputs:
    def test_moduli_cells_dot(self, capsys):
        code, out, _ = run_cli(capsys, "moduli", "cells", "-g", "2", "--format", "dot")
        assert code == EXIT_OK
        assert out.startswith("digraph") and out.count("{") == out.count("}")
        assert out.count("label=") == 9

    def test_enriched_list_dot(self, capsys):
        code, out, _ = run_cli(capsys, "enriched", "list", "--inline", THETA, "--format", "dot")
        assert code == EXIT_OK
        assert out.startswith("digraph") and out.count("{") == out.count("}")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_enriched_list_builds_no_dot_unless_asked(self, capsys, monkeypatch, fmt):
        import enrichfan.cli

        def refuse(structs):
            raise AssertionError("the DOT poset was built")

        monkeypatch.setattr(enrichfan.cli, "specialization_poset_dot", refuse)
        code, out, _ = run_cli(capsys, "enriched", "list", "--inline", TRIANGLE, "--format", fmt)
        assert code == EXIT_OK and "13" in out

    @pytest.mark.parametrize(
        "argv", [["fan", "build"], ["toric", "equations"], ["toric", "schedule"]]
    )
    def test_no_dot_where_there_is_no_dot_form(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--inline", THETA, "--format", "dot"])
        assert exc.value.code == EXIT_PARSE
        assert "argument --format: invalid choice: 'dot'" in capsys.readouterr().err
