import json

import pytest

from enrichfan import corpus
from enrichfan.enriched import enriched_structures
from enrichfan.errors import FormatError
from enrichfan.fans import fan_of_graph
from enrichfan.formats import (
    enriched_from_json_dict,
    enriched_to_json_dict,
    fan_to_json_dict,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    graph_to_text,
    hasse_to_dot,
    parse_graph,
    parse_graph_text,
    preorder_from_json_dict,
    preorder_to_json_dict,
    specialization_poset_dot,
)
from enrichfan.graphs import WeightedGraph
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

    def test_round_trip(self):
        for g in corpus.corpus_graphs().values():
            wg = corpus.zero_weights(g)
            assert parse_graph_text(graph_to_text(wg)) == wg
        wg = WeightedGraph(corpus.single_edge(), {"u": 2, "v": 0})
        assert parse_graph_text(graph_to_text(wg)) == wg

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
            wg = corpus.zero_weights(g)
            assert graph_from_json_dict(graph_to_json_dict(wg)) == wg

    def test_parse_detects_json(self):
        wg = corpus.zero_weights(corpus.theta(3))
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

    def test_empty_graph(self):
        for data in ({"vertices": [], "edges": []}, {"vertices": [], "edges": [{"label": "a", "ends": ["u", "v"]}]}):
            with pytest.raises(FormatError, match="graph has no vertices"):
                graph_from_json_dict(data)
            with pytest.raises(FormatError, match="graph has no vertices"):
                parse_graph(json.dumps(data))

    def test_preorder_round_trip(self):
        p = Preorder.from_relations("abc", [("a", "b"), ("b", "c")])
        assert preorder_from_json_dict(preorder_to_json_dict(p)) == p

    def test_closure_applied_on_load(self):
        p = preorder_from_json_dict({"ground": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"]]})
        assert p.leq("a", "c")

    def test_enriched_round_trip(self):
        g = corpus.theta(3)
        for eg in enriched_structures(g):
            data = enriched_to_json_dict(eg)
            assert enriched_from_json_dict(data).preorder == eg.preorder

    def test_invalid_enriched_rejected(self):
        g = corpus.theta(3)
        data = {"graph": graph_to_json_dict(corpus.zero_weights(g)), "pairs": []}
        with pytest.raises(FormatError):
            enriched_from_json_dict(data)

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
        out = graph_to_dot(corpus.zero_weights(corpus.dumbbell()))
        assert out.startswith("graph") and '"u" -- "u"' in out

    def test_hasse_dot(self):
        p = Preorder.from_relations("abc", [("a", "b"), ("a", "c")])
        out = hasse_to_dot(p)
        assert out.count("->") == 2

    def test_specialization_poset_dot(self):
        out = specialization_poset_dot(corpus.theta(3))
        assert out.count("label=") == 7
