import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import zero_weights
from enrichfan import corpus, enriched, graphs, moduli
from enrichfan.errors import GuardExceededError
from enrichfan.enriched import canonical_structure, enriched_structures
from enrichfan.graphs import MultiGraph, automorphisms, genus, is_stable, label_key
from enrichfan.moduli import (
    LiftReport,
    cell_adjacency,
    check_unique_lifts,
    classify_cells,
    classify_census,
    enumerate_cells,
    enumerate_stable_weighted_graphs,
)
from enrichfan.preorders import Preorder
import reference_moduli
from reference_moduli import aut_enriched
from reference_preorders import lower_sets, relabel


def graph_shape(wg):
    g = wg.graph
    return (
        g.n_vertices,
        g.n_edges,
        tuple(sorted(g.valence(v) for v in g.vertices)),
        tuple(sorted(wg.weights.values())),
    )


class TestStableEnumeration:
    def test_genus_two_has_seven_graphs(self):
        graphs = enumerate_stable_weighted_graphs(2)
        assert len(graphs) == 7
        shapes = {graph_shape(wg) for wg in graphs}
        assert shapes == {
            (2, 3, (3, 3), (0, 0)),       # theta
            (2, 3, (3, 3), (0, 0)),       # dumbbell shares the shape tuple? no: loops
            (1, 2, (4,), (0,)),           # two loops at a point
            (2, 2, (1, 3), (0, 1)),       # loop plus a leaf of weight 1
            (1, 1, (2,), (1,)),           # loop at a weight-1 vertex
            (2, 1, (1, 1), (1, 1)),       # single edge, both weights 1
            (1, 0, (0,), (2,)),           # bare weight-2 vertex
        } | shapes  # the two 3-edge shapes coincide; counted via len above

    def test_all_outputs_stable_of_right_genus(self):
        for g in (1, 2, 3):
            for wg in enumerate_stable_weighted_graphs(g):
                assert genus(wg) == g and is_stable(wg)
                assert wg.graph.is_connected()

    def test_genus_one_single_graph(self):
        graphs = enumerate_stable_weighted_graphs(1)
        assert len(graphs) == 1
        (wg,) = graphs
        assert wg.graph.n_edges == 0 and wg.total_weight() == 1

    def test_genus_three_count_matches_known_value(self):
        # the cell count of the genus-3 moduli of tropical curves
        assert len(enumerate_stable_weighted_graphs(3)) == 42

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            enumerate_stable_weighted_graphs(4)

    def test_genus_below_one_is_not_a_guard_hit(self):
        with pytest.raises(ValueError, match="genus must be at least 1, got 0") as exc:
            enumerate_stable_weighted_graphs(0)
        assert not isinstance(exc.value, GuardExceededError)

    def test_no_duplicates_up_to_iso(self):
        from enrichfan.moduli import _frame_map

        for g in (2, 3):
            keys = [_frame_map(wg)[0] for wg in enumerate_stable_weighted_graphs(g)]
            assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("g, count", [(2, 2), (3, 5), (4, 17)])
    def test_trivalent_graphs(self, g, count, monkeypatch):
        # the graphs with 3g - 3 edges are the trivalent weight-0 ones the
        # census contracts
        monkeypatch.setattr(moduli, "GENUS_GUARD", 4)
        top = [wg for wg in enumerate_stable_weighted_graphs(g) if wg.graph.n_edges == 3 * g - 3]
        assert len(top) == count
        for wg in top:
            assert all(wg.graph.valence(v) == 3 and wg.weight(v) == 0 for v in wg.graph.vertices)

    def test_genus_four_with_the_guard_lifted(self, monkeypatch):
        # Maggiolo and Pagani's count, and the graph side of the cell-level
        # Euler identity at genus 4
        monkeypatch.setattr(moduli, "GENUS_GUARD", 4)
        found = enumerate_stable_weighted_graphs(4)
        assert len(found) == 379
        assert all(genus(wg) == 4 and is_stable(wg) and wg.graph.is_connected() for wg in found)
        chi = sum(Fraction((-1) ** wg.graph.n_edges, len(automorphisms(wg))) for wg in found)
        assert chi == Fraction(-241, 720)

    @pytest.mark.parametrize("g", [2, 3])
    def test_closed_under_single_edge_contraction(self, g):
        from enrichfan.moduli import _frame_map

        found = enumerate_stable_weighted_graphs(g)
        keys = {_frame_map(wg)[0] for wg in found}
        for wg in found:
            for e in wg.graph.edge_labels:
                contracted = graphs.WeightedGraph(graphs.contract(wg.graph, [e]), graphs.contracted_weights(wg, [e]))
                assert _frame_map(contracted)[0] in keys


class TestCells:
    def test_genus_two_nine_cells(self):
        cells = enumerate_cells(2)
        assert len(cells) == 9
        dims = sorted(c.dim for c in cells)
        assert dims == [0, 1, 1, 1, 2, 2, 2, 3, 3]

    def test_theta_contributes_three_cells(self):
        cells = enumerate_cells(2)
        theta_cells = [c for c in cells if c.weighted.graph.n_edges == 3 and not c.weighted.graph.loops()]
        assert len(theta_cells) == 3
        assert sorted(c.dim for c in theta_cells) == [1, 2, 3]

    def test_maximal_cells_and_aut_orders(self):
        cells = enumerate_cells(2)
        maximal = [c for c in cells if c.dim == 3]
        assert len(maximal) == 2
        assert sorted(c.aut_order for c in maximal) == [2, 2]

    def test_dim_equals_rank(self):
        for c in enumerate_cells(2):
            assert c.dim == c.preorder.rank

    def test_aut_preserves_preorder(self):
        for c in enumerate_cells(2):
            for a in c.aut:
                assert relabel(c.preorder, a.as_dict()) == c.preorder

    def test_census_raises_when_a_move_leaves_the_structures(self, monkeypatch):
        # a genus-3 graph with an edge transposition, no automorphism, that
        # takes its least structure, the first orbit's representative, off
        # its enriched structures
        for wg in enumerate_stable_weighted_graphs(3):
            labels = wg.graph.edge_labels
            structs = [eg.preorder for eg in enriched_structures(wg.graph)]
            swaps = [{**dict(zip(labels, labels)), a: b, b: a} for a, b in itertools.combinations(labels, 2)]
            off = [t for t in swaps if relabel(structs[0], t) not in structs]
            if off:
                break
        # the census reads the automorphisms as edge-index maps
        planted = (tuple(map(labels.index, map(off[0].__getitem__, labels))), ())
        real = moduli._edge_maps
        monkeypatch.setattr(moduli, "_edge_maps", lambda h, k: real(h, k) + ([planted] if h == wg else []))
        with pytest.raises(RuntimeError, match="enriched structures onto"):
            enumerate_cells(3)


class TestOracles:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_orbit_stabilizer_on_each_graph(self, g):
        # a cell's orbit holds |Aut|/|Stab| structures, and the orbits
        # partition the graph's structures
        cells = enumerate_cells(g)
        for wg in enumerate_stable_weighted_graphs(g):
            aut = len(automorphisms(wg))
            stabs = [c.aut_order for c in cells if c.weighted == wg]
            assert all(aut % s == 0 for s in stabs)
            assert sum(aut // s for s in stabs) == len(enriched_structures(wg.graph))

    @pytest.mark.parametrize("g, chi", [(1, Fraction(1)), (2, Fraction(-1, 6)), (3, Fraction(29, 48))])
    def test_cell_level_euler_identity(self, g, chi):
        # the open cones of a graph's structures tile its open orthant, so
        # their signs (-1)^rank add up to (-1)^|E|; a cell's orbit holds
        # |Aut|/|Stab| structures, which turns the sum over structures,
        # divided by |Aut|, into the sum over cells
        cells = sum(Fraction((-1) ** c.dim, c.aut_order) for c in enumerate_cells(g))
        graphs_side = sum(
            Fraction((-1) ** wg.graph.n_edges, len(automorphisms(wg))) for wg in enumerate_stable_weighted_graphs(g)
        )
        assert cells == graphs_side == chi


class TestAutEnriched:
    def test_theta_generic_order_two(self):
        g = corpus.theta(3)
        wg = zero_weights(g)
        p = Preorder.from_relations("abc", [("a", "b"), ("a", "c")])
        assert len(aut_enriched(wg, p)) == 2

    def test_theta_canonical_order_six(self):
        g = corpus.theta(3)
        wg = zero_weights(g)
        assert len(aut_enriched(wg, canonical_structure(g).preorder)) == 6

    def test_dumbbell_order_two(self):
        wg = zero_weights(corpus.dumbbell())
        assert len(aut_enriched(wg, Preorder.discrete(wg.graph.edge_labels))) == 2


class TestClassification:
    def test_genus_two(self):
        report = classify_cells(2)
        assert len(report.maximal) == 2
        assert len(report.codim1_valence_four) == 1
        assert len(report.codim1_weight_one_leaf) == 1
        assert len(report.codim1_merged_classes) == 1
        (a,) = report.codim1_valence_four
        (b,) = report.codim1_weight_one_leaf
        (c,) = report.codim1_merged_classes
        # two loops sits under both maximal cells; the weight-1 leaf only
        # under the dumbbell; the merged theta classes under theta alone
        assert report.closure_counts[a] == 2
        assert report.closure_counts[b] == 1
        assert report.closure_counts[c] == 1
        # both maximal cells sit over the 4-valent cell, so the adjacency
        # graph of maximal cells is connected
        assert report.connected_through_codim1

    def test_genus_one(self):
        # one cell, a bare weight-1 vertex: maximal, with nothing of codim 1
        report = classify_cells(1)
        assert report.maximal == (0,)
        assert report.codim1_valence_four == ()
        assert report.codim1_weight_one_leaf == ()
        assert report.codim1_merged_classes == ()
        assert report.closure_counts == {}
        assert report.connected_through_codim1

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_census_in_hand_gives_the_same_report(self, g):
        cells = enumerate_cells(g)
        assert classify_census(cells, cell_adjacency(cells)) == classify_cells(g)

    @pytest.mark.parametrize("g", [2, 3])
    def test_list_and_set_adjacency_give_one_report(self, g):
        cells = enumerate_cells(g)
        lists = cell_adjacency(cells)
        sets = {i: set(js) for i, js in lists.items()}
        assert classify_census(cells, lists) == classify_census(cells, sets) == classify_cells(g)

    def test_adjacency_is_read_once_not_searched(self):
        # the maximal cells above each codimension-one cell come from one pass
        # over the adjacency, with no membership test per pair
        class NoMembership(list):
            def __contains__(self, item):
                raise AssertionError("membership test on an adjacency list")

        cells = enumerate_cells(3)
        adjacency = {i: NoMembership(js) for i, js in cell_adjacency(cells).items()}
        assert classify_census(cells, adjacency) == classify_cells(3)

    def test_every_cell_under_some_maximal(self):
        cells = enumerate_cells(2)
        by_index = {c.index: c for c in cells}
        maximal = [c for c in cells if c.dim == 3]
        adjacency = cell_adjacency(cells)
        reachable = {m.index for m in maximal}
        frontier = list(reachable)
        while frontier:
            nxt = []
            for i in frontier:
                for j in adjacency[i]:
                    if j not in reachable:
                        reachable.add(j)
                        nxt.append(j)
            frontier = nxt
        assert reachable == set(by_index)


class TestContractions:
    def test_adjacency_contracts_each_lower_set_once(self, monkeypatch):
        # once per (weighted graph, lower set) in the whole call, not once per cell
        calls = []
        real = graphs._contract

        def counted(g, mask, *reps):
            calls.append(mask)
            return real(g, mask, *reps)

        # every module that contracts on this path holds its own name for the
        # edge-index contraction, which the label ``contract`` wraps; ``moduli``
        # reaches it through ``graphs._contract_weighted``
        monkeypatch.setattr(graphs, "_contract", counted)
        monkeypatch.setattr(enriched, "_contract", counted)
        for g in (2, 3):
            cells = enumerate_cells(g)
            calls.clear()
            cell_adjacency(cells)
            assert len(calls) == len({(c.weighted, s) for c in cells for s in lower_sets(c.preorder)})
            assert len(calls) < sum(len(lower_sets(c.preorder)) for c in cells)

    @pytest.mark.parametrize("g", [2, 3])
    def test_adjacency_merges_each_lower_set_once(self, g, monkeypatch):
        # the target graph and its weights are read off one union-find per
        # (weighted graph, lower set), not merged again on labels for the weights
        calls = []
        real = graphs._roots

        def counted(pairs):
            calls.append(None)
            return real(pairs)

        cells = enumerate_cells(g)
        monkeypatch.setattr(graphs, "_roots", counted)
        adjacency = cell_adjacency(cells)
        assert len(calls) == len({(c.weighted, s) for c in cells for s in lower_sets(c.preorder)})
        assert adjacency == reference_moduli.key_table_cell_adjacency(cells)


    def test_cell_table_frames_each_weighted_graph_once(self, monkeypatch):
        # once per weighted graph in the call, not once per cell: 42 frame
        # maps for the 262 genus-3 cells
        calls = []
        real = moduli._frame_map
        monkeypatch.setattr(moduli, "_frame_map", lambda wg: calls.append(wg) or real(wg))
        for g in (2, 3):
            cells = enumerate_cells(g)
            calls.clear()
            moduli._cell_table(cells)
            assert len(calls) == len({c.weighted for c in cells}) == len(enumerate_stable_weighted_graphs(g))


def planted_census(kind: str) -> list:
    """The genus-2 census with one more maximal cell, of dimension 3: the
    triangle with its discrete structure (not trivalent), or K4 with three
    classes of two edges each (trivalent, not generic); or with one more
    codimension-one cell, the triangle with two classes (neither generic
    nor trivalent), which fits none of the three types."""
    cells = enumerate_cells(2)
    if kind == "trivalent":
        graph = corpus.triangle()
        p = Preorder.discrete(graph.edge_labels)
    elif kind == "codimension-one":
        graph = corpus.triangle()
        a, b, c = graph.edge_labels
        p = Preorder.from_relations(graph.edge_labels, [(a, b), (b, a)])
    else:
        graph = MultiGraph("abcd", {u + v: (u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1 :]})  # K4
        a, b, c, d, e, f = graph.edge_labels
        p = Preorder.from_relations(graph.edge_labels, [(a, b), (b, a), (c, d), (d, c), (e, f), (f, e)])
    planted = enriched._trusted(moduli.ModuliCell, index=len(cells), weighted=zero_weights(graph), preorder=p, genus=2, aut=())
    return cells + [planted]


class TestCensusChecks:
    """The maximal-cell checks and the codimension-one types of
    ``classify_census`` raise, so ``python -O`` keeps them."""

    @pytest.mark.parametrize("kind", ["trivalent", "generic"])
    def test_a_planted_maximal_cell_raises(self, kind):
        cells = planted_census(kind)
        with pytest.raises(RuntimeError, match=f"maximal cell {len(cells) - 1} is not {kind}"):
            classify_census(cells, {})

    def test_a_planted_codimension_one_cell_raises(self):
        cells = planted_census("codimension-one")
        assert cells[-1].dim == 2
        with pytest.raises(RuntimeError, match=f"codimension-one cell {len(cells) - 1} fits no expected type"):
            classify_census(cells, {c.index: [] for c in cells})

    def test_both_raise_with_asserts_stripped(self):
        script = (
            "from test_moduli import classify_census, planted_census\n"
            "assert False, 'asserts are not stripped'\n"
            "for kind in ('trivalent', 'generic', 'codimension-one'):\n"
            "    try:\n"
            "        classify_census(planted_census(kind), dict.fromkeys(range(10), []))\n"
            "    except RuntimeError as exc:\n"
            "        print(exc)\n"
        )
        here = pathlib.Path(__file__).resolve().parent
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)])),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "maximal cell 9 is not trivalent\nmaximal cell 9 is not generic\ncodimension-one cell 9 fits no expected type\n"


def cell_specializes_to(a, b) -> bool:
    return b.index in cell_adjacency([a, b])[a.index]


class TestSpecializationArrows:
    def test_theta_chain(self):
        cells = enumerate_cells(2)
        theta_cells = sorted(
            (c for c in cells if c.weighted.graph.n_edges == 3 and not c.weighted.graph.loops()),
            key=lambda c: -c.dim,
        )
        top, mid, bottom = theta_cells
        assert cell_specializes_to(top, mid)
        assert cell_specializes_to(mid, bottom)
        assert cell_specializes_to(top, bottom)
        assert not cell_specializes_to(bottom, top)

    def test_dumbbell_to_two_loops(self):
        cells = enumerate_cells(2)
        dumb = next(c for c in cells if len(c.weighted.graph.loops()) == 2 and c.weighted.graph.n_edges == 3)
        twol = next(c for c in cells if c.weighted.graph.n_edges == 2 and c.weighted.graph.n_vertices == 1)
        assert cell_specializes_to(dumb, twol)


class TestUniqueLifts:
    def test_genus_two_small_run(self):
        report = check_unique_lifts(2, seed=11, n_points=35)
        assert report.points_checked == 35
        assert report.failures == ()

    def test_genus_one(self):
        report = check_unique_lifts(1, seed=5, n_points=10)
        assert report.failures == ()

    @pytest.mark.parametrize("n_points", [-5, -1])
    def test_negative_point_count_is_refused(self, n_points):
        # a check that draws no point must not pass as one that found no failure
        with pytest.raises(ValueError, match=f"n_points must be nonnegative, got {n_points}"):
            check_unique_lifts(2, n_points=n_points)

    def test_zero_points_check_nothing(self):
        assert check_unique_lifts(2, n_points=0) == LiftReport(2, 0, ())


def gluing_matrix(sp) -> tuple:
    """Integer matrix taking source increment coordinates to target ones.

    Rows are the target classes, columns the source classes; the single 1
    per row sits at the source class given by the class inclusion.  For a
    boundary point, increments computed downstairs and upstairs agree
    through this matrix.
    """
    from test_enriched import class_inclusion

    inc = class_inclusion(sp)
    src_classes = sp.source.preorder.quotient().classes
    col = {frozenset(c): i for i, c in enumerate(src_classes)}
    return tuple(
        tuple(int(i == col[inc[frozenset(c)]]) for i in range(len(src_classes)))
        for c in sp.target.preorder.quotient().classes
    )


class TestGluingMatrices:
    def test_increments_commute_with_embedding(self):
        # for a boundary point of a cell closure, increment coordinates
        # computed in the small cell and pushed through the gluing matrix
        # match the increments computed upstairs
        from fractions import Fraction

        from enrichfan.cones import increment_coordinates
        from enrichfan.enriched import enriched_structures, specializations
        from test_cones import lengths_from_increments

        for g in (corpus.theta(3), corpus.triangle()):
            for eg in enriched_structures(g):
                src_classes = eg.preorder.quotient().classes
                for sp in specializations(eg):
                    tgt = sp.target
                    if not tgt.graph.edge_labels:
                        continue
                    mat = gluing_matrix(sp)
                    tgt_classes = tgt.preorder.quotient().classes
                    # an interior point of the target cone, embedded by zero
                    y = {c: Fraction(i + 1) for i, c in enumerate(tgt_classes)}
                    vals = lengths_from_increments(tgt, y)
                    x = {e: vals.get(e, Fraction(0)) for e in g.edge_labels}
                    up = increment_coordinates(eg, x)
                    down = increment_coordinates(tgt, vals)
                    up_vec = [up[c] for c in src_classes]
                    pushed = [sum(m * v for m, v in zip(row, up_vec)) for row in mat]
                    assert pushed == [down[c] for c in tgt_classes]


class TestExplicitLift:
    def test_theta_point_lands_in_generic_cell(self):
        # the length vector (1, 2, 4) on the theta graph sits in the cell of
        # the generic structure with bottom {a}, whose stabilizer has order 2
        from enrichfan.enriched import locate
        from enrichfan.moduli import _frame_map

        g = corpus.theta(3)
        wg = zero_weights(g)
        located = locate(g, {"a": 1, "b": 2, "c": 4})
        assert located.preorder == Preorder.from_relations("abc", [("a", "b"), ("a", "c")])
        cells = enumerate_cells(2)
        key = _frame_map(wg)[0]
        theta_cells = [c for c in cells if _frame_map(c.weighted)[0] == key]
        from enrichfan.graphs import weighted_isomorphisms

        hits = [
            c
            for c in theta_cells
            if any(
                relabel(located.preorder, iso.as_dict()) == c.preorder
                for iso in weighted_isomorphisms(wg, c.weighted)
            )
        ]
        assert len(hits) == 1
        assert hits[0].dim == 3 and hits[0].aut_order == 2


class TestGenusThree:
    def test_structural_facts(self):
        cells = enumerate_cells(3)
        assert all(c.dim <= 6 for c in cells)
        maximal = [c for c in cells if c.dim == 6]
        assert maximal
        for c in maximal:
            graph = c.weighted.graph
            assert all(graph.valence(v) == 3 for v in graph.vertices)
            assert c.preorder.is_partial_order()
        # five trivalent genus-3 weighted graphs underlie the maximal cells
        from enrichfan.moduli import _frame_map

        assert len({_frame_map(c.weighted)[0] for c in maximal}) == 5


def least_remaining_cells(g):
    """(index, graph, preorder) of every cell, each orbit represented by the
    least remaining structure under sorted label pairs."""
    out = []
    for wg in enumerate_stable_weighted_graphs(g):
        auts = automorphisms(wg)
        remaining = {eg.preorder for eg in enriched_structures(wg.graph)}
        while remaining:
            p = min(remaining, key=lambda q: sorted((label_key(a), label_key(b)) for a, b in q.pairs()))
            remaining -= {relabel(p, a.as_dict()) for a in auts}
            out.append((len(out), wg, p))
    return out


class TestOrbitRepresentatives:
    def test_first_uncovered_is_least_remaining(self):
        for g in (2, 3):
            got = [(c.index, c.weighted, c.preorder) for c in enumerate_cells(g)]
            assert got == least_remaining_cells(g)


class TestGenusThreeLifts:
    def test_small_sample(self):
        report = check_unique_lifts(3, seed=17, n_points=6)
        assert report.points_checked == 6 and report.failures == ()
