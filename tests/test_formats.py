import json

import pytest

from conftest import zero_weights
from enrichfan import corpus
from enrichfan.enriched import enriched_structures
from enrichfan.errors import FormatError
from enrichfan.fans import fan_of_graph
from enrichfan.formats import (
    fan_to_json_dict,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    hasse_to_dot,
    parse_graph,
    parse_graph_text,
    specialization_poset_dot,
)
from enrichfan.preorders import Preorder


class TestTextFormat:
    def test_parse_simple(self):
        wg = parse_graph_text("vertices: u v\ne: u v\n")
        assert wg.graph.edge_labels == ("e",)
        assert wg.weight("u") == 0

    def test_weights_and_loops(self):
        wg = parse_graph_text("vertices: u:1 w\nl1: u u\nm: u w\n")
        assert wg.weight("u") == 1
        assert wg.graph.is_loop("l1")

    def test_integer_tokens_become_ints(self):
        wg = parse_graph_text("vertices: 1 2\n10: 1 2")
        assert wg.graph.vertices == (1, 2)
        assert wg.graph.edge_labels == (10,)

    def test_inline_semicolons(self):
        wg = parse_graph_text("vertices: u v; a: u v; b: u v")
        assert wg.graph.n_edges == 2

    def test_errors(self):
        with pytest.raises(FormatError):
            parse_graph_text("edges first\n")
        with pytest.raises(FormatError):
            parse_graph_text("vertices: u v\nbroken line\n")
        with pytest.raises(FormatError):
            parse_graph_text("vertices: u\ne: u missing\n")


    def test_repeated_edge_label(self):
        with pytest.raises(FormatError, match="repeated edge label 'a'"):
            parse_graph_text("vertices: u v w; a: u v; a: v w; b: u w")

    def test_repeated_vertex_id(self):
        with pytest.raises(FormatError, match="repeated vertex id 'u'"):
            parse_graph_text("vertices: u:1 u:0 v; a: u v")
        with pytest.raises(FormatError, match="repeated vertex id 2"):
            parse_graph_text("vertices: 1 2 2; a: 1 2")

    def test_empty_graph(self):
        for text in ("vertices:", "vertices:\n# nothing else\n", "vertices: ; a: u v"):
            with pytest.raises(FormatError, match="graph has no vertices"):
                parse_graph_text(text)


class TestJsonFormat:
    def test_graph_round_trip(self):
        for g in corpus.corpus_graphs().values():
            wg = zero_weights(g)
            assert graph_from_json_dict(graph_to_json_dict(wg)) == wg

    def test_parse_detects_json(self):
        wg = zero_weights(corpus.theta(3))
        text = json.dumps(graph_to_json_dict(wg))
        assert parse_graph(text) == wg

    def test_repeated_edge_label(self):
        data = {
            "vertices": [{"id": "u"}, {"id": "v"}],
            "edges": [{"label": "a", "ends": ["u", "v"]}, {"label": "a", "ends": ["u", "u"]}],
        }
        with pytest.raises(FormatError, match="repeated edge label 'a'"):
            graph_from_json_dict(data)
        with pytest.raises(FormatError, match="repeated edge label 'a'"):
            parse_graph(json.dumps(data))

    def test_repeated_vertex_id(self):
        data = {
            "vertices": [{"id": "u", "weight": 1}, {"id": "u"}, {"id": "v"}],
            "edges": [{"label": "a", "ends": ["u", "v"]}],
        }
        with pytest.raises(FormatError, match="repeated vertex id 'u'"):
            graph_from_json_dict(data)

    @pytest.mark.parametrize("weight", [1.5, 1.0, True, "1", None])
    def test_weight_must_be_a_json_integer(self, weight):
        data = {"vertices": [{"id": "u", "weight": weight}], "edges": []}
        with pytest.raises(FormatError, match=r"bad weight .* for vertex 'u'"):
            graph_from_json_dict(data)
        with pytest.raises(FormatError, match=r"bad weight .* for vertex 'u'"):
            parse_graph(json.dumps(data))
        data["vertices"][0]["weight"] = 2
        assert parse_graph(json.dumps(data)).weight("u") == 2

    @pytest.mark.parametrize("bad", [None, 0.5, 1.0, True, False, [1]])
    def test_ids_must_be_json_strings_or_integers(self, bad):
        def graph(vid=1, label="a", end=1):
            return {"vertices": [{"id": vid}, {"id": "v"}], "edges": [{"label": label, "ends": [end, "v"]}]}

        assert parse_graph(json.dumps(graph())).graph.ends("a") == (1, "v")
        for data, what in ((graph(vid=bad), "a vertex id"), (graph(label=bad), "an edge label"), (graph(end=bad), "an end of edge 'a'")):
            with pytest.raises(FormatError) as exc:
                parse_graph(json.dumps(data))
            assert str(exc.value) == f"{what} must be a string or an integer, not {bad!r}"

    @pytest.mark.parametrize(
        "data, text, message",
        [
            (
                {"vertices": [{"id": "u", "weight": -1}], "edges": []},
                "vertices: u:-1",
                "weight of 'u' must be a nonnegative integer",
            ),
            (
                {"vertices": [{"id": "u"}, {"id": "v"}], "edges": [{"label": "a", "ends": ["u", "w"]}]},
                "vertices: u v; a: u w",
                "unknown vertex 'w'",
            ),
        ],
    )
    def test_graph_errors_read_as_in_text(self, data, text, message):
        for parse in (lambda: graph_from_json_dict(data), lambda: parse_graph(json.dumps(data)), lambda: parse_graph(text)):
            with pytest.raises(FormatError) as exc:
                parse()
            assert str(exc.value) == message

    @pytest.mark.parametrize("ends", [["u", "v", "u"], ["u"], [], "uv", {"u": "v"}])
    def test_edge_needs_two_endpoints(self, ends):
        data = {"vertices": [{"id": "u"}, {"id": "v"}], "edges": [{"label": "a", "ends": ends}]}
        with pytest.raises(FormatError) as exc:
            graph_from_json_dict(data)
        assert str(exc.value) == "edge 'a' must name two endpoints"

    @pytest.mark.parametrize(
        "data",
        [{"edges": []}, {"vertices": [{"weight": 1}], "edges": []}, {"vertices": [{"id": "u"}], "edges": [{"label": "a"}]}, []],
    )
    def test_structural_faults_keep_the_prefix(self, data):
        with pytest.raises(FormatError, match="^bad graph object: "):
            graph_from_json_dict(data)

    def test_empty_graph(self):
        for data in ({"vertices": [], "edges": []}, {"vertices": [], "edges": [{"label": "a", "ends": ["u", "v"]}]}):
            with pytest.raises(FormatError, match="graph has no vertices"):
                graph_from_json_dict(data)
            with pytest.raises(FormatError, match="graph has no vertices"):
                parse_graph(json.dumps(data))

    def test_fan_json_shape(self):
        fan = fan_of_graph(corpus.theta(3))
        data = fan_to_json_dict(fan)
        assert data["lattice_rank"] == 3
        assert len(data["rays"]) == 4
        assert len(data["maximal_cones"]) == 3
        for cone in data["maximal_cones"]:
            assert all(isinstance(i, int) for i in cone)


class TestDot:
    def test_graph_dot(self):
        out = graph_to_dot(zero_weights(corpus.dumbbell()))
        assert out.startswith("graph") and '"u" -- "u"' in out

    def test_hasse_dot(self):
        p = Preorder.from_relations("abc", [("a", "b"), ("a", "c")])
        out = hasse_to_dot(p)
        assert out.count("->") == 2

    def test_specialization_poset_dot(self):
        out = specialization_poset_dot(enriched_structures(corpus.theta(3)))
        assert out.count("label=") == 7
