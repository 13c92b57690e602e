import itertools
import random
from fractions import Fraction

import pytest

import reference_membership
from enrichfan import corpus
from enrichfan.cones import (
    RationalCone,
    closed_structure_cone,
    containing,
    increment_coordinates,
    increment_matrix,
    ray_generators,
    structure_cone,
)
from enrichfan.enriched import (
    EnrichedGraph,
    canonical_structure,
    enriched_structures,
    from_bond_collection,
    locate,
    specializations,
)
from enrichfan.preorders import Preorder
from reference_lattices import halfspaces_of
from reference_preorders import parents as hasse_parents
from test_enriched_reference import cycle
from test_fans import embedded
from test_toric_reference import k4


def lengths_from_increments(eg: EnrichedGraph, y) -> dict:
    """Inverse of ``increment_coordinates`` on the structure subspace.

    ``y`` maps each class (tuple of labels) to a value; the length of an
    edge is the sum of increments along the Hasse path from its root class.
    """
    q = eg.preorder.quotient()
    parents = hasse_parents(q)
    totals = {}

    def total(idx):
        if idx not in totals:
            base = total(parents[idx]) if idx in parents else 0
            totals[idx] = base + y[q.classes[idx]]
        return totals[idx]

    out = {}
    for idx, cls in enumerate(q.classes):
        for lab in cls:
            out[lab] = total(idx)
    return out


def theta_generic():
    return from_bond_collection(corpus.theta(3), {frozenset("abc"): {"a"}})


def chain_triangle():
    g = corpus.triangle()
    return EnrichedGraph(g, Preorder.from_relations("abc", [("a", "b"), ("b", "c")]))


class TestRayGenerators:
    def test_chain(self):
        # labels sorted a, b, c; irreducible upper sets {c}, {b,c}, {a,b,c}
        rays = ray_generators(chain_triangle())
        assert set(rays) == {(0, 0, 1), (0, 1, 1), (1, 1, 1)}

    def test_theta_generic(self):
        rays = ray_generators(theta_generic())
        assert set(rays) == {(0, 1, 0), (0, 0, 1), (1, 1, 1)}

    def test_canonical_single_ray(self):
        rays = ray_generators(canonical_structure(corpus.theta(3)))
        assert rays == [(1, 1, 1)]

    def test_ray_count_is_rank_everywhere(self):
        for g in corpus.corpus_graphs().values():
            for eg in enriched_structures(g):
                assert len(ray_generators(eg)) == eg.rank


class TestStructureCone:
    def test_dimension_is_rank(self):
        for g in corpus.corpus_graphs().values():
            for eg in enriched_structures(g):
                assert structure_cone(eg).dim == eg.rank

    def test_open_membership(self):
        cone = structure_cone(theta_generic())
        assert cone.contains((1, 2, 4))  # labels a, b, c
        assert cone.contains((1, 3, 3))
        assert not cone.contains((2, 2, 3))  # x_a must be strictly smallest
        assert not cone.contains((0, 1, 1))  # strictly positive

    def test_closed_membership(self):
        cone = closed_structure_cone(theta_generic())
        assert cone.contains((2, 2, 3))
        assert cone.contains((0, 0, 0))
        assert not cone.contains((2, 1, 3))

    def test_halfspace_and_ray_descriptions_agree(self):
        samples = list(itertools.product([0, 1, 2, 3], repeat=3))
        for g in (corpus.theta(3), corpus.triangle()):
            for eg in enriched_structures(g):
                open_cone = structure_cone(eg)
                closed = closed_structure_cone(eg)
                for x in samples:
                    assert closed.contains(x) == reference_membership.Cone(closed.rays).closure_contains(x)
                    assert open_cone.contains(x) == reference_membership.Cone(open_cone.rays).interior_contains(x)

    def test_smoothness(self):
        for g in corpus.corpus_graphs().values():
            for eg in enriched_structures(g):
                assert closed_structure_cone(eg).is_smooth()

    def test_face_count_equals_specialization_count(self):
        for g in (corpus.theta(3), corpus.triangle(), corpus.doubled_triangle()):
            for eg in enriched_structures(g):
                cone = closed_structure_cone(eg)
                assert cone.face_count() == len(specializations(eg))

    def test_p3_dim_three(self):
        p3 = EnrichedGraph(
            corpus.doubled_triangle(),
            Preorder.from_relations(
                ("e1", "e2", "e3", "e4"),
                [("e1", "e3"), ("e3", "e1"), ("e1", "e2"), ("e1", "e4")],
            ),
        )
        assert structure_cone(p3).dim == 3


class TestRationalCone:
    def test_not_smooth_determinant_two(self):
        cone = RationalCone.from_rays(("x", "y"), [(1, 0), (1, 2)])
        assert not cone.is_smooth()

    def test_smooth_octant(self):
        cone = RationalCone.from_rays(("x", "y", "z"), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert cone.is_smooth()

    def test_positive_multiples_collapse_to_one_ray(self):
        cone = RationalCone.from_rays(("x", "y"), [(1, 0), (2, 0), (0, 1)])
        assert cone.rays == ((0, 1), (1, 0))

    def test_dependent_rays_rejected(self):
        with pytest.raises(ValueError):
            RationalCone.from_rays(("x", "y"), [(1, 0), (0, 1), (1, 1)])

    def test_h_description_from_rays(self):
        cone = RationalCone.from_rays(("x", "y", "z"), [(1, 1, 0), (0, 0, 1)])
        # the span's equality, then the facet opposite each ray in ray order
        assert cone.h_description() == (((-1, 1, 0),), ((0, 0, 1), (0, 1, 0)))
        by_rays = reference_membership.Cone(cone.rays)
        for x in itertools.product([-2, -1, 0, 1, 2], repeat=3):
            by_h = all(h.holds(x) for h in halfspaces_of(cone))
            assert by_h == cone.closure().contains(x) == by_rays.closure_contains(x)

    def test_membership_by_ray_coefficients(self):
        # (2, 3, 5) is 2 * (1, 0, 1) + 3 * (0, 1, 1); (2, 0, 2) lies on a facet
        cone = RationalCone.from_rays(("x", "y", "z"), [(1, 0, 1), (0, 1, 1)])
        assert cone.closure().contains((2, 3, 5)) and RationalCone(cone.labels, cone.rays, False, cone.rows).contains((2, 3, 5))
        assert cone.closure().contains((2, 0, 2)) and not RationalCone(cone.labels, cone.rays, False, cone.rows).contains((2, 0, 2))
        assert not cone.closure().contains((2, -3, -1))

    def test_point_off_the_span_is_outside(self):
        cone = RationalCone.from_rays(("x", "y", "z"), [(1, 0, 0)])
        assert cone.closure().contains((2, 0, 0))
        assert not cone.closure().contains((0, 1, 0))
        assert not cone.closure().contains((2, Fraction(1, 7), 0))

    def test_zero_cone_holds_only_the_origin(self):
        for closed in (True, False):
            cone = RationalCone(("x", "y"), (), closed)
            assert cone.contains((0, 0)) and cone.closure().contains((0, 0)) and RationalCone(cone.labels, cone.rays, False, cone.rows).contains((0, 0))
            assert not cone.contains((1, 0)) and not cone.closure().contains((0, Fraction(-1, 2)))

    def test_closure_and_embedding_keep_the_rows(self):
        eg = theta_generic()
        cone = structure_cone(eg)
        assert cone.closure().h_description() == closed_structure_cone(eg).h_description()
        big = embedded(closed_structure_cone(eg), ("0", "a", "b", "c"))
        assert big.h_description() == (((1, 0, 0, 0),), ((0, -1, 1, 0), (0, -1, 0, 1), (0, 1, 0, 0)))
        assert big.contains((0, 1, 2, 2)) and not big.contains((1, 1, 2, 2))

    def test_closure_copies_the_open_cone(self, monkeypatch):
        # the closure keeps the rows and the comparison plan: no echelon runs again
        pairs = [(structure_cone(eg), closed_structure_cone(eg)) for eg in enriched_structures(corpus.theta(3))]
        points = list(itertools.product([0, 1, 2], repeat=3))
        for cone, _ in pairs[::2]:
            cone.contains(points[0])

        def refuse(vectors):
            raise AssertionError("the closure reran the independence check")

        monkeypatch.setattr("enrichfan.cones.linearly_independent", refuse)
        for cone, closed in pairs:
            shut = cone.closure()
            assert shut == closed and shut.closed and shut.rows == closed.rows
            assert shut._plan is cone._plan
            assert [shut.contains(x) for x in points] == [closed.contains(x) for x in points]

    def test_float_point_judged_at_its_exact_value(self):
        # 0.1 + 0.2 - 0.30000000000000004 rounds to 0.0 in floats, but the
        # exact binary values do not cancel: the point is off the plane
        # x_a + x_b == x_c, whichever membership test is asked
        cone = RationalCone(("a", "b", "c"), ((0, 1, 1), (1, 0, 1)), rows=(((1, 1, -1),), ((1, 0, 0), (0, 1, 0))))
        x = (0.1, 0.2, 0.30000000000000004)
        assert not cone.contains(x)
        assert not cone.closure().contains(x)
        assert not RationalCone(cone.labels, cone.rays, False, cone.rows).contains(x)
        assert not cone.contains(tuple(map(Fraction, x)))
        assert containing([cone], x) == []

    def test_point_of_the_wrong_length_is_refused(self):
        cone = RationalCone(("x", "y", "z"), ((1, 0, 0), (0, 1, 0)))
        for x in ((1,), (1, 1), (1, 1, 0, 0)):
            with pytest.raises(ValueError, match="coordinates"):
                cone.contains(x)
            with pytest.raises(ValueError, match="coordinates"):
                containing([cone, cone.closure()], x)
        assert containing([], (1,)) == []

    def test_faces_are_ray_subsets(self):
        cone = RationalCone.from_rays(("x", "y", "z"), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(cone.faces()) == 8
        assert all(f.is_face_of(cone) for f in cone.faces())

    def test_embedded(self):
        cone = RationalCone.from_rays(("b", "c"), [(1, 0), (0, 1)])
        big = embedded(cone, ("a", "b", "c"))
        assert big.rays == ((0, 0, 1), (0, 1, 0))
        assert big.closure().contains((0, 1, 2))
        assert not big.closure().contains((1, 1, 2))


class TestIncrementCoordinates:
    def test_theta_example(self):
        eg = theta_generic()
        y = increment_coordinates(eg, {"a": 1, "b": 2, "c": 4})
        assert y == {("a",): 1, ("b",): 1, ("c",): 3}

    def test_round_trip_lengths(self):
        eg = theta_generic()
        y = {("a",): Fraction(1), ("b",): Fraction(2), ("c",): Fraction(3)}
        x = lengths_from_increments(eg, y)
        assert x == {"a": 1, "b": 3, "c": 4}
        assert increment_coordinates(eg, x) == y

    def test_canonical_rank_one(self):
        eg = canonical_structure(corpus.theta(3))
        classes, rows = increment_matrix(eg)
        assert len(rows) == 1
        assert sum(abs(v) for v in rows[0]) == 1

    def test_rows_step_to_the_hasse_parent(self):
        # each row is +1 on its class's first edge and -1 on its parent's
        for g in (corpus.theta(3), corpus.square(), corpus.doubled_triangle()):
            pos = {lab: i for i, lab in enumerate(g.edge_labels)}
            for eg in enriched_structures(g):
                q = eg.preorder.quotient()
                parents = hasse_parents(q)
                classes, rows = increment_matrix(eg)
                assert classes == q.classes
                for idx, (cls, row) in enumerate(zip(classes, rows)):
                    want = [0] * len(pos)
                    want[pos[cls[0]]] += 1
                    if idx in parents:
                        want[pos[classes[parents[idx]][0]]] -= 1
                    assert row == tuple(want)

    def test_positive_orthant_image(self):
        # open-cone points map to strictly positive increments and back
        for g in (corpus.theta(3), corpus.triangle(), corpus.doubled_triangle()):
            for eg in enriched_structures(g):
                cone = structure_cone(eg)
                classes, _ = increment_matrix(eg)
                for y_vals in itertools.product([1, 2], repeat=len(classes)):
                    y = dict(zip(classes, map(Fraction, y_vals)))
                    x = lengths_from_increments(eg, y)
                    vec = tuple(x[lab] for lab in eg.graph.edge_labels)
                    assert cone.contains(vec)
                    assert increment_coordinates(eg, x) == y


@pytest.mark.parametrize("name", sorted(corpus.CORPUS) + ["c5", "k4"])
def test_containing_matches_contains_and_locate(name):
    """``containing`` over both cones of every structure, at seeded positive
    points with many ties, against one ``contains`` per cone; the open
    cone it finds is the structure ``locate`` finds."""
    g = {"c5": lambda: cycle(5), "k4": k4}.get(name, corpus.CORPUS.get(name))()
    structs = enriched_structures(g)
    cones = [structure_cone(eg) for eg in structs] + [closed_structure_cone(eg) for eg in structs]
    rng = random.Random(name)
    for _ in range(60):
        x = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in g.edge_labels)
        hits = containing(cones, x)
        assert hits == [i for i, cone in enumerate(cones) if cone.contains(x)]
        opened = [structs[i].preorder for i in hits if i < len(structs)]
        assert opened == [locate(g, dict(zip(g.edge_labels, x))).preorder]
