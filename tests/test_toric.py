import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

import reference_membership
import reference_toric
from enrichfan import corpus
from enrichfan.cones import ray_generators
from enrichfan.enriched import bond_minima, enriched_structures
from enrichfan.errors import GuardExceededError, NotABondError, NotBiconnectedError
from enrichfan.fans import (
    coordinate_cone,
    fan_of_graph,
    graph_lattice_quotient,
    octant_fan,
    quotient_fan,
    star_subdivision,
)
from enrichfan.graphs import Bond, MultiGraph, _bond_masks, bonds, sort_labels
from enrichfan.lattices import kernel_lattice, lattice_span_equal
from enrichfan.toric import (
    LaurentRelation,
    _holds_at_torus_points,
    _require_biconnected,
    blowup_schedule,
    bond_names,
    equations,
    kernel_rank,
    mutated_evaluate,
    relations_generate_kernel,
    torus_point_check,
    variety_dimension,
    _dual_map_rows,
)


@dataclass(frozen=True)
class BondProjection:
    """Coordinate deletion onto a bond."""

    bond: Bond
    labels: tuple  # ambient edge labels
    matrix: tuple  # one 0/1 row per bond edge

    def project(self, vec) -> tuple:
        return tuple(sum(r * v for r, v in zip(row, vec)) for row in self.matrix)

    def bond_edges(self) -> tuple:
        return sort_labels(self.bond.edges)


def bond_projection(g: MultiGraph, b: Bond) -> BondProjection:
    _require_biconnected(g)
    if b.graph != g or b.edges != g.cut_edges(b.side):
        raise NotABondError("not a bond of this graph")
    labels = g.edge_labels
    rows = tuple(tuple(1 if lab == e else 0 for lab in labels) for e in sort_labels(b.edges))
    return BondProjection(b, tuple(labels), rows)


def in_bond_sector(bp: BondProjection, minima, vec) -> bool:
    """Whether a projected vector satisfies ``0 <= x_e <= x_f`` for e in minima."""
    coord = dict(zip(bp.bond_edges(), bp.project(vec)))
    return all(coord[e] >= 0 for e in coord) and all(coord[e] <= coord[f] for e in minima for f in coord)


def bond_projection_certificate(g: MultiGraph, b: Bond) -> bool:
    """Every structure cone projects into the sector of its bond minima."""
    bp = bond_projection(g, b)
    for eg in enriched_structures(g):
        minima = bond_minima(eg, b)
        for ray in ray_generators(eg):
            if not in_bond_sector(bp, minima, ray):
                return False
    return True


def bonds_involved(rel: LaurentRelation) -> set:
    return {be for be, _, _ in rel.terms}


class TestBondProjection:
    def test_theta_identity(self):
        g = corpus.theta(3)
        (b,) = bonds(g)
        bp = bond_projection(g, b)
        assert bp.project((1, 2, 3)) == (1, 2, 3)

    def test_triangle_deletes_coordinate(self):
        g = corpus.triangle()
        b = next(x for x in bonds(g) if x.edges == frozenset({"a", "b"}))
        bp = bond_projection(g, b)
        assert bp.project((5, 7, 11)) == (5, 7)

    def test_certificates_hold(self):
        for name in ("theta3", "triangle", "doubled_triangle", "square"):
            g = corpus.CORPUS[name]()
            for b in bonds(g):
                assert bond_projection_certificate(g, b), name

    def test_doubled_triangle_p1_sector(self):
        from enrichfan.preorders import Preorder
        from enrichfan.enriched import EnrichedGraph

        g = corpus.doubled_triangle()
        p1 = EnrichedGraph(
            g,
            Preorder.from_relations(g.edge_labels, [("e1", "e2"), ("e1", "e3"), ("e3", "e4")]),
        )
        b = next(x for x in bonds(g) if x.edges == frozenset({"e3", "e4"}))
        bp = bond_projection(g, b)
        assert bond_minima(p1, b) == frozenset({"e3"})
        for ray in ray_generators(p1):
            assert in_bond_sector(bp, {"e3"}, ray)

    def test_rejects_non_biconnected(self):
        g = corpus.dumbbell()
        with pytest.raises(NotBiconnectedError):
            bond_projection(g, Bond.from_side(g, {"u"}))


class TestEquations:
    def test_theta_has_none(self):
        assert equations(corpus.theta(3)) == []
        assert equations(corpus.theta(4)) == []

    def test_triangle_single_trinomial(self):
        g = corpus.triangle()
        rels = equations(g)
        assert len(rels) == 1
        (rel,) = rels
        assert len(bonds_involved(rel)) == 3
        assert sorted(x for _, _, x in rel.terms) == [-1, -1, -1, 1, 1, 1]

    def test_doubled_triangle_relations(self):
        g = corpus.doubled_triangle()
        rels = equations(g)
        binomials = [r for r in rels if len(bonds_involved(r)) == 2]
        trinomials = [r for r in rels if len(bonds_involved(r)) == 3]
        assert len(binomials) == 1
        assert len(trinomials) == 2
        (b,) = binomials
        involved = {frozenset(t) for t in bonds_involved(b)}
        assert involved == {frozenset({"e1", "e2", "e3"}), frozenset({"e1", "e2", "e4"})}

    def test_rendered_strings(self):
        g = corpus.doubled_triangle()
        names = bond_names(g)
        for rel in equations(g):
            s = rel.rendered(names)
            assert "=" in s and "x_" in s

    def test_every_relation_in_kernel(self):
        for name in ("triangle", "doubled_triangle", "square"):
            g = corpus.CORPUS[name]()
            domain, rows = _dual_map_rows(g, _bond_masks(g))
            kern = kernel_lattice(rows, g.n_edges - 1)
            for rel in equations(g):
                vec = reference_toric.relation_coordinates(g, rel)
                assert lattice_span_equal(kern, kern + [vec], len(domain)), name


class TestKernel:
    def test_ranks(self):
        assert kernel_rank(corpus.triangle()) == 1
        assert kernel_rank(corpus.doubled_triangle()) == 2
        assert kernel_rank(corpus.theta(3)) == 0
        assert kernel_rank(corpus.square()) == 3

    def test_generation_on_biconnected_corpus(self):
        for name in corpus.BICONNECTED_CORPUS:
            g = corpus.CORPUS[name]()
            assert relations_generate_kernel(g), name

    def test_guard_reaches_the_relation_search(self):
        # the 9-edge triangular prism: a raised cap holds for the inner
        # equations() call too, and the default of 8 still refuses it
        from enrichfan.graphs import MultiGraph

        edges = {}
        for i in range(3):
            j = (i + 1) % 3
            edges[f"a{i}{j}"] = (f"a{i}", f"a{j}")
            edges[f"b{i}{j}"] = (f"b{i}", f"b{j}")
            edges[f"m{i}"] = (f"a{i}", f"b{i}")
        prism = MultiGraph([f"{s}{i}" for s in "ab" for i in range(3)], edges)
        assert relations_generate_kernel(prism, 9)
        with pytest.raises(GuardExceededError, match="capped at 8 edges"):
            relations_generate_kernel(prism)


class TestTorusPoints:
    def test_all_relations_hold(self):
        for name in ("triangle", "doubled_triangle", "square"):
            g = corpus.CORPUS[name]()
            assert torus_point_check(g, seed=99, trials=30), name

    def test_mutants_fail(self):
        rng = random.Random(4)
        for name in ("triangle", "doubled_triangle", "square"):
            g = corpus.CORPUS[name]()
            point = {}
            for e in g.edge_labels:
                num = rng.choice([n for n in range(2, 10)])
                point[e] = Fraction(num * rng.choice([-1, 1]), num + 1)
            for rel in equations(g):
                assert rel.holds_at(point)
                assert mutated_evaluate(rel, point) != 1

    def test_negative_trials_are_refused(self):
        # no point would be checked, and the check would pass vacuously
        g = corpus.square()
        with pytest.raises(ValueError, match="trials"):
            torus_point_check(g, trials=-1)
        with pytest.raises(ValueError, match="trials"):
            _holds_at_torus_points(g.edge_labels, equations(g), 7, -3)
        assert torus_point_check(g, trials=0)

    def test_mutant_index_outside_the_terms_is_refused(self):
        # an index that bumps nothing would leave the negative control at 1
        rel = equations(corpus.square())[0]
        point = {e: Fraction(3, 2) ** (i + 1) for i, e in enumerate(corpus.square().edge_labels)}
        for index in (len(rel.terms), len(rel.terms) + 3, -1):
            with pytest.raises(ValueError, match="outside"):
                mutated_evaluate(rel, point, index)
        assert mutated_evaluate(rel, point, len(rel.terms) - 1) != 1

    def test_zero_bump_is_refused(self):
        # a zero bump returns the relation's own value, 1: the negative control would check nothing
        g = corpus.square()
        rel = equations(g)[0]
        point = {e: Fraction(3, 2) ** (i + 1) for i, e in enumerate(g.edge_labels)}
        assert mutated_evaluate(rel, point, 0, -1) != 1
        with pytest.raises(ValueError, match="bump"):
            mutated_evaluate(rel, point, 0, 0)

    def test_mutant_defined_at_a_zero_coordinate(self):
        # a relation of the wheel W4 on two of its bonds; bumping the exponent
        # -1 of x_rb to 0 leaves x_rb under a positive exponent only
        b1, b2 = ("ra", "rb", "sa", "sc", "sd"), ("ra", "rb", "sb")
        rel = reference_toric.from_exponents([(b1, "ra", 1), (b1, "rb", -1), (b2, "ra", -1), (b2, "rb", 1)])
        point = {"ra": Fraction(3, 2), "rb": 0}
        assert rel.terms[1] == (b1, "rb", -1)
        assert mutated_evaluate(rel, point, 1, 1) == 0
        with pytest.raises(ZeroDivisionError):
            mutated_evaluate(rel, point, 0, 1)


def squares_relation():
    # x_a^2 = x_b^2 on the bond {a, b}, and x_c^3 = x_d x_e^2 on {c, d, e}
    return reference_toric.from_exponents(
        [
            (("a", "b"), "a", 2),
            (("a", "b"), "b", -2),
            (("c", "d", "e"), "c", 3),
            (("c", "d", "e"), "d", -1),
            (("c", "d", "e"), "e", -2),
        ]
    )


class TestHoldsAt:
    def test_zero_under_negative_exponent_raises(self):
        rel = squares_relation()
        point = {"a": 1, "b": 1, "c": 1, "d": Fraction(0), "e": 1}
        with pytest.raises(ZeroDivisionError):
            rel.holds_at(point)
        with pytest.raises(ZeroDivisionError):
            reference_membership.evaluate(rel, point)

    def test_zero_under_positive_exponents_only_fails(self):
        rel = squares_relation()
        point = {"a": 0, "b": 2, "c": Fraction(0), "d": 5, "e": 7}
        assert not rel.holds_at(point)
        assert reference_membership.evaluate(rel, point) == 0

    @pytest.mark.parametrize(
        "point",
        [
            {"a": Fraction(-3, 2), "b": Fraction(3, 2), "c": 2, "d": 2, "e": 2},
            {"a": -7, "b": 7, "c": Fraction(-4, 9), "d": Fraction(-4, 9), "e": Fraction(4, 9)},
            {"a": Fraction(-3, 2), "b": Fraction(2, 3), "c": 2, "d": 2, "e": 2},
            {"a": 5, "b": -5, "c": Fraction(-4, 9), "d": Fraction(4, 9), "e": Fraction(4, 9)},
            {"a": -1, "b": 1, "c": Fraction(6, 5), "d": Fraction(-27, 4), "e": Fraction(-8, 15)},
        ],
    )
    def test_negative_numerators_and_large_exponents_agree_with_evaluate(self, point):
        rel = squares_relation()
        assert rel.holds_at(point) == (reference_membership.evaluate(rel, point) == 1)


class TestBlowupSchedule:
    def test_triangle_three_points(self):
        stages = blowup_schedule(corpus.triangle())
        assert len(stages) == 1
        assert stages[0].cardinality == 1
        assert [s for s, _ in stages[0].centers] == [("a",), ("b",), ("c",)]
        # each center is a coordinate point of the projective plane: two
        # of the three coordinates vanish
        assert all(len(coords) == 2 for _, coords in stages[0].centers)

    def test_theta_empty(self):
        assert blowup_schedule(corpus.theta(3)) == []
        assert blowup_schedule(corpus.theta(4)) == []

    def test_square_two_stages(self):
        stages = blowup_schedule(corpus.square())
        assert [st.cardinality for st in stages] == [1, 2]
        assert len(stages[0].centers) == 4
        assert len(stages[1].centers) == 6

    def test_matches_good_sequence(self):
        from enrichfan.fans import good_contraction_sequence

        for name in ("triangle", "square", "doubled_triangle", "theta3"):
            g = corpus.CORPUS[name]()
            seq = {frozenset(s) for s, _ in good_contraction_sequence(g) if s}
            sched = {
                frozenset(s)
                for stage in blowup_schedule(g)
                for s, _ in stage.centers
            }
            assert seq == sched, name

    def test_quotient_star_pipeline_reproduces_quotient_fan(self):
        # the first star subdivision (at the full orthant) turns the affine
        # fan into projective space; blowing that up along the scheduled
        # centers must end at the quotient of the full fan
        for name in ("triangle", "square", "theta3", "theta4", "doubled_triangle"):
            g = corpus.CORPUS[name]()
            lq = graph_lattice_quotient(g)
            target = quotient_fan(fan_of_graph(g), lq)
            base = star_subdivision(
                octant_fan(g.edge_labels), coordinate_cone(g.edge_labels, g.edge_labels)
            )
            fan = quotient_fan(base, lq)
            for stage in blowup_schedule(g):
                for s, _ in stage.centers:
                    tau = coordinate_cone(g.edge_labels, tuple(e for e in g.edge_labels if e not in s))
                    qrays = []
                    for r in tau.rays:
                        img = lq.project(r)
                        if any(img):
                            qrays.append(img)
                    from enrichfan.cones import RationalCone

                    qtau = RationalCone.from_rays(fan.labels, qrays)
                    fan = star_subdivision(fan, qtau)
            from enrichfan.fans import fan_equal

            assert fan_equal(fan, target), name


class TestVarietyDimension:
    def test_values(self):
        assert variety_dimension(corpus.theta(3)) == 2
        assert variety_dimension(corpus.theta(4)) == 3
        assert variety_dimension(corpus.dumbbell()) == 0
        assert variety_dimension(corpus.triangle()) == 2
        assert variety_dimension(corpus.path(2)) == 0


class TestSingleEdge:
    def test_trivial_cases(self):
        g = corpus.single_edge()
        assert blowup_schedule(g) == []
        assert equations(g) == []
        assert kernel_rank(g) == 0
        assert relations_generate_kernel(g)


class TestRelationValidation:
    def test_edge_outside_bond_rejected(self):
        from enrichfan.toric import LaurentRelation

        with pytest.raises(ValueError):
            LaurentRelation(((("a", "b"), "z", 1), (("a", "b"), "a", -1)))

    def test_nonzero_bond_sum_rejected(self):
        from enrichfan.toric import LaurentRelation

        with pytest.raises(ValueError):
            LaurentRelation(((("a", "b"), "a", 1),))

    def test_from_exponents_cancels(self):
        rel = reference_toric.from_exponents(
            [(("a", "b"), "a", 1), (("a", "b"), "a", -1)]
        )
        assert rel.terms == ()


class TestFiveEdgeGraph:
    def test_doubled_square_kernel_and_torus(self):
        from enrichfan.graphs import MultiGraph

        g = MultiGraph(
            [1, 2, 3, 4],
            {"a": (1, 2), "b": (2, 3), "c": (3, 4), "d": (4, 1), "e": (1, 2)},
        )
        assert relations_generate_kernel(g)
        assert torus_point_check(g, seed=5, trials=20)
        rels = equations(g)
        assert len(rels) == 10


class TestMixedLabelTypes:
    def test_int_and_str_labels_coexist(self):
        from enrichfan.graphs import MultiGraph

        g = MultiGraph(
            [1, "x", "y"],
            {1: (1, "x"), "b": (1, "y"), 2: ("x", "y"), "d": ("x", "y")},
        )
        assert len(equations(g)) == 3
        assert relations_generate_kernel(g)
        assert torus_point_check(g, seed=2, trials=10)
        assert len(blowup_schedule(g)) == 2
