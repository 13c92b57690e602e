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
        import enrichfan.cli
        import enrichfan.moduli

        calls = []
        real = enrichfan.moduli.enumerate_cells

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(enrichfan.moduli, "enumerate_cells", counted)
        monkeypatch.setattr(enrichfan.cli, "enumerate_cells", counted)
        code, out, _ = run_cli(capsys, "moduli", "cells", "-g", "2")
        assert code == EXIT_OK and "9 cells, 2 maximal" in out
        assert calls == [2]

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


class TestColdStart:
    def test_import_loads_no_sympy(self):
        # sympy is a test-only oracle; importing the CLI must not pull it in
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = "import enrichfan.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestVerifyAll:
    def test_runs_green(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == EXIT_OK
        assert out.count("PASS") == 9 and "FAIL" not in out


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

        def refuse(g):
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
