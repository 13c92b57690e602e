import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

import reference_membership
from enrichfan import corpus
from enrichfan.cones import RationalCone, closed_structure_cone, containing, structure_cone
from enrichfan.enriched import EnrichedGraph, enriched_structures, locate
from enrichfan.errors import NotStronglyConvexError
from enrichfan.fans import (
    Fan,
    coordinate_cone,
    fan_by_star_subdivision,
    fan_equal,
    fan_of_graph,
    good_contraction_sequence,
    graph_lattice_quotient,
    octant_fan,
    quotient_fan,
    star_subdivision,
)
from enrichfan.graphs import MultiGraph, contract
from enrichfan.lattices import linearly_independent
from reference_lattices import halfspaces_of
from test_toric_reference import k4, wheel4


def embedded(cone: RationalCone, labels) -> RationalCone:
    """Zero-extend the cone into a larger labeled ambient lattice; its
    rows are padded, with a unit equality for each new coordinate."""
    labels = tuple(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    for lab in cone.labels:
        if lab not in pos:
            raise ValueError(f"label {lab!r} missing from target ambient lattice")
    own = [pos[lab] for lab in cone.labels]

    def put(vec):
        out = [0] * len(labels)
        for i, v in zip(own, vec):
            out[i] = v
        return tuple(out)

    rays = tuple(map(put, cone.rays))
    rows = None
    if cone.rows is not None:
        equalities, facets = cone.rows
        units = tuple(tuple(int(j == i) for j in range(len(labels))) for i in range(len(labels)) if i not in own)
        rows = (tuple(map(put, equalities)) + units, tuple(map(put, facets)))
    return RationalCone(labels, rays, cone.closed, rows)


@dataclass(frozen=True)
class Stratum:
    """One relatively open piece of the orthant stratification.

    Contracting ``contracted`` and imposing ``structure`` on the surviving
    edges describes all points whose zero set is exactly ``contracted``.
    """

    contracted: frozenset
    structure: EnrichedGraph
    open_cone: RationalCone


def fan_strata(g: MultiGraph) -> list:
    """Every cone of the fan of ``g`` as an embedded stratum, each once."""
    labels = g.edge_labels
    out = []
    for k in range(g.n_edges + 1):
        for sub in itertools.combinations(labels, k):
            s = frozenset(sub)
            for eg in enriched_structures(contract(g, s)):
                out.append(Stratum(s, eg, embedded(structure_cone(eg), labels)))
    return out


def locate_stratum(g: MultiGraph, x) -> Stratum:
    """The unique stratum whose relatively open cone contains ``x >= 0``."""
    zero = frozenset(e for e in g.edge_labels if Fraction(x[e]) == 0)
    positive = {e: x[e] for e in g.edge_labels if e not in zero}
    eg = locate(contract(g, zero), positive)
    return Stratum(zero, eg, embedded(structure_cone(eg), g.edge_labels))


def fan_product(f1: Fan, f2: Fan) -> Fan:
    """The product fan in the concatenated ambient lattice."""
    labels = f1.labels + f2.labels
    n1, n2 = len(f1.labels), len(f2.labels)
    cones = []
    for c1 in f1.maximal:
        for c2 in f2.maximal:
            rays = [r + (0,) * n2 for r in c1.rays] + [(0,) * n1 + r for r in c2.rays]
            cones.append(RationalCone.from_rays(labels, rays))
    return Fan.from_cones(labels, cones)


def rational_points(labels, count, seed, positive=True):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        pts.append(
            tuple(Fraction(rng.randint(1, 256), rng.randint(1, 64)) for _ in labels)
            if positive
            else tuple(Fraction(rng.randint(0, 64), rng.randint(1, 16)) for _ in labels)
        )
    return pts


class TestFanOfGraph:
    def test_triangle_six_maximal(self):
        fan = fan_of_graph(corpus.triangle())
        assert len(fan.maximal) == 6
        assert all(c.dim == 3 and c.is_smooth() for c in fan.maximal)

    def test_theta3_three_maximal(self):
        fan = fan_of_graph(corpus.theta(3))
        assert len(fan.maximal) == 3
        rays = set(fan.rays())
        assert (1, 1, 1) in rays and len(rays) == 4

    def test_theta9_nine_maximal(self):
        # past eight edges: one maximal cone per generic structure
        fan = fan_of_graph(corpus.theta(9))
        assert len(fan.maximal) == 9
        assert all(c.dim == 9 and c.is_smooth() for c in fan.maximal)

    def test_single_edge_octant(self):
        fan = fan_of_graph(corpus.single_edge())
        assert fan_equal(fan, octant_fan(("e",)))

    def test_dumbbell_is_whole_octant(self):
        fan = fan_of_graph(corpus.dumbbell())
        assert fan_equal(fan, octant_fan(corpus.dumbbell().edge_labels))

    def test_cover_and_disjointness_sampled(self):
        for name, g in corpus.corpus_graphs().items():
            strata = fan_strata(g)
            opens = [s for s in strata if not s.contracted]
            grid = itertools.product([1, 2], repeat=g.n_edges)
            pts = [tuple(map(Fraction, p)) for p in grid]
            pts += rational_points(g.edge_labels, 25, seed=7)
            for x in pts:
                hits = [s for s in opens if s.open_cone.contains(x)]
                assert len(hits) == 1, name
                eg = locate(g, dict(zip(g.edge_labels, x)))
                assert eg.preorder == hits[0].structure.preorder

    def test_strata_count_is_fan_cone_count(self):
        for g in (corpus.theta(3), corpus.triangle()):
            fan = fan_of_graph(g)
            faces = {frozenset(f) for c in fan.maximal for k in range(c.dim + 1) for f in itertools.combinations(c.rays, k)}
            assert len(fan_strata(g)) == len(faces)


class TestStarSubdivision:
    def test_blowup_of_octant_at_origin_cone(self):
        labels = ("x", "y", "z")
        fan = octant_fan(labels)
        full = coordinate_cone(labels, labels)
        blown = star_subdivision(fan, full)
        assert len(blown.maximal) == 3
        assert all((1, 1, 1) in c.rays for c in blown.maximal)

    def test_ray_is_noop(self):
        labels = ("x", "y", "z")
        fan = octant_fan(labels)
        assert star_subdivision(fan, coordinate_cone(labels, ("x",))) is fan

    def test_new_cones_are_smooth(self):
        # the cones a subdivision adds skip the constructor's rank check
        for g in (k4(), wheel4()):
            for cone in fan_by_star_subdivision(g).maximal:
                assert list(cone.rays) == sorted(cone.rays)
                assert linearly_independent(cone.rays) and cone.is_smooth()

    def test_missing_cone_rejected(self):
        labels = ("x", "y")
        fan = octant_fan(labels)
        diag = RationalCone.from_rays(labels, [(1, 1), (1, 0)])
        with pytest.raises(ValueError):
            star_subdivision(fan, diag)

    def test_product_compatibility(self):
        # subdividing a cone of the first factor = product of the subdivided
        # factor with the untouched one
        f1 = octant_fan(("x", "y"))
        f2 = octant_fan(("z",))
        tau = coordinate_cone(("x", "y"), ("x", "y"))
        lhs = star_subdivision(fan_product(f1, f2), embedded(tau, ("x", "y", "z")))
        rhs = fan_product(star_subdivision(f1, tau), f2)
        assert fan_equal(lhs, rhs)

    def test_volume_preserved(self):
        # smooth subdivisions refine: the number of maximal cones only grows
        fan = octant_fan(("x", "y", "z"))
        blown = star_subdivision(fan, coordinate_cone(("x", "y", "z"), ("x", "y")))
        assert len(blown.maximal) == 2
        assert containing(blown.maximal, (1, 5, 2)) and not containing(blown.maximal, (-1, 0, 0))


class TestGoodSequence:
    def test_theta3(self):
        seq = good_contraction_sequence(corpus.theta(3))
        assert [s for s, _ in seq] == [frozenset()]

    def test_triangle(self):
        seq = good_contraction_sequence(corpus.triangle())
        assert [sorted(s) for s, _ in seq] == [[], ["a"], ["b"], ["c"]]

    def test_path_single_edge_targets(self):
        seq = good_contraction_sequence(corpus.path(2))
        assert [sorted(s) for s, _ in seq] == [["s0"], ["s1"]]

    def test_targets_may_keep_isolated_vertices(self):
        g = MultiGraph(["u", "v", "w", "x"], {"a": ("u", "v"), "b": ("u", "v"), "c": ("w", "x"), "d": ("w", "x")})
        seq = good_contraction_sequence(g)
        assert [sorted(s) for s, _ in seq] == [["a", "b"], ["c", "d"]]
        assert [len(t.vertices) for _, t in seq] == [3, 3]

    def test_square_counts(self):
        seq = good_contraction_sequence(corpus.square())
        sizes = [len(s) for s, _ in seq]
        assert sizes == [0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]

    def test_ordering_non_increasing_edges(self):
        for g in corpus.corpus_graphs().values():
            seq = good_contraction_sequence(g)
            edge_counts = [t.n_edges for _, t in seq]
            assert edge_counts == sorted(edge_counts, reverse=True)


class TestPipelinesAgree:
    def test_star_equals_direct_everywhere(self):
        for name, g in corpus.corpus_graphs().items():
            assert fan_equal(fan_of_graph(g), fan_by_star_subdivision(g)), name

    @pytest.mark.parametrize(
        "vertices, edges, cones",
        [
            ("uvw", {"a": "uv", "b": "uv"}, 2),  # a 2-cycle and an isolated vertex
            ("uvwx", {"a": "uv", "b": "uv", "c": "wx", "d": "wx"}, 4),  # two disjoint 2-cycles
            ("uvwxy", {"a": "uv", "b": "vw", "c": "wu", "d": "xy", "e": "xy"}, 12),  # a triangle beside a 2-cycle
        ],
    )
    def test_star_equals_direct_off_connected_graphs(self, vertices, edges, cones):
        g = MultiGraph(list(vertices), {e: tuple(uv) for e, uv in edges.items()})
        direct = fan_of_graph(g)
        assert len(direct.maximal) == cones
        assert fan_equal(direct, fan_by_star_subdivision(g))

    def test_product_over_blocks(self):
        g = corpus.dumbbell()
        # fan of the dumbbell = product of the three one-edge octants,
        # up to coordinate ordering (labels l1, l2, m are already sorted)
        f = fan_of_graph(g)
        prod = fan_product(fan_product(octant_fan(("l1",)), octant_fan(("l2",))), octant_fan(("m",)))
        assert fan_equal(f, Fan.from_cones(f.labels, prod.maximal))

    def test_product_over_blocks_nontrivial(self):
        # two triangles sharing one vertex: blocks are two triangles
        g = MultiGraph(
            ["u", "v", "w", "x", "y"],
            {
                "a": ("u", "v"), "b": ("u", "w"), "c": ("v", "w"),
                "p": ("u", "x"), "q": ("u", "y"), "r": ("x", "y"),
            },
        )
        fan = fan_of_graph(g)
        f1 = fan_of_graph(corpus.triangle())
        assert len(fan.maximal) == len(f1.maximal) ** 2


class TestQuotientFan:
    def test_theta_n_gives_projective_space(self):
        for n in (2, 3, 4):
            g = corpus.theta(n)
            lq = graph_lattice_quotient(g)
            qf = quotient_fan(fan_of_graph(g), lq)
            assert qf.ambient_rank == n - 1
            assert len(qf.maximal) == n
            rays = qf.rays()
            assert len(rays) == n
            assert tuple(map(sum, zip(*rays))) == (0,) * (n - 1)
            assert qf.is_complete()

    def test_triangle_gives_hexagonal_surface(self):
        g = corpus.triangle()
        qf = quotient_fan(fan_of_graph(g), graph_lattice_quotient(g))
        assert qf.ambient_rank == 2
        assert len(qf.rays()) == 6
        assert len(qf.maximal) == 6
        assert all(c.dim == 2 for c in qf.maximal)
        assert qf.is_complete()
        rays = set(qf.rays())
        assert {tuple(-x for x in r) for r in rays} == rays  # antipodal ray pairs

    def test_dumbbell_quotient_is_point(self):
        g = corpus.dumbbell()
        qf = quotient_fan(fan_of_graph(g), graph_lattice_quotient(g))
        assert qf.ambient_rank == 0
        assert all(c.dim == 0 for c in qf.maximal)

    def test_quotient_completeness_dimension(self):
        for name, g in corpus.corpus_graphs().items():
            lq = graph_lattice_quotient(g)
            qf = quotient_fan(fan_of_graph(g), lq)
            from enrichfan.graphs import biconnected_components

            expected = g.n_edges - len(biconnected_components(g))
            assert qf.ambient_rank == expected, name
            if expected:
                assert qf.is_complete(), name

    def test_non_convex_image_rejected(self):
        from enrichfan.lattices import LatticeQuotient

        labels = ("x", "y")
        fan = Fan.from_cones(labels, [RationalCone.from_rays(labels, [(1, 0), (1, 2)])])
        lq = LatticeQuotient.from_generators(labels, [(1, 1)])  # kills the diagonal
        with pytest.raises(NotStronglyConvexError):
            quotient_fan(fan, lq)


class TestSupportContains:
    def test_matches_per_cone_closure_test(self):
        """The support of a fan by ``containing`` against each maximal cone's
        own test, on seeded points, points on the faces of maximal cones,
        and floats."""
        rng = random.Random(6208)
        tri = corpus.triangle()
        labels = ("x", "y", "z")
        fans = [
            fan_of_graph(tri),
            fan_of_graph(corpus.doubled_triangle()),
            star_subdivision(octant_fan(labels), coordinate_cone(labels, ("x", "y"))),
            quotient_fan(fan_of_graph(tri), graph_lattice_quotient(tri)),
            Fan.from_cones(("x", "y"), [RationalCone.from_rays(("x", "y"), [(1, 0), (1, 2)])]),
        ]
        outcomes = set()
        for fan in fans:
            n = fan.ambient_rank
            points = [tuple(Fraction(rng.randint(-16, 64), rng.randint(1, 16)) for _ in range(n)) for _ in range(40)]
            for c in fan.maximal:
                face = rng.sample(c.rays, rng.randint(0, len(c.rays)))
                on_face = [sum(Fraction(rng.randint(1, 9), rng.randint(1, 4)) * r[i] for r in face) for i in range(n)]
                points.append(tuple(on_face))
                points.append(tuple(v - Fraction(1, 97) * (i == 0) for i, v in enumerate(on_face)))
            points += [tuple(rng.choice([0.0, 0.1, 0.5, -0.25, 3.0, 1e-9]) for _ in range(n)) for _ in range(20)]
            for x in points:
                expected = any(c.contains(x) for c in fan.maximal)  # the maximal cones are closed
                assert bool(containing(fan.maximal, x)) == expected, (fan, x)
                outcomes.add(expected)
        assert outcomes == {True, False}


def all_pairs_fan(labels, cones) -> Fan:
    """``Fan.from_cones`` as it compared every pair of kept cones."""
    labels = tuple(labels)
    dedup = {}
    for c in cones:
        if c.labels != labels:
            raise ValueError("all cones must live in the fan's ambient lattice")
        dedup[c.rays] = c.closure()
    # drop cones that are faces of others
    keys = sorted(dedup, key=lambda r: (-len(r), r))
    kept = []
    for r in keys:
        if not any(set(r) < set(k.rays) for k in kept):
            kept.append(dedup[r])
    kept.sort(key=lambda c: c.rays)
    return Fan(labels, tuple(kept))


class TestFromCones:
    def test_matches_all_pairs_rule(self, monkeypatch):
        """Every face of each maximal cone, open and closed, alone and mixed
        with other fans' cones; one ray set given in two orders; and every
        cone list ``fan_of_graph`` and ``quotient_fan`` hand on for the corpus."""
        rng = random.Random(4114)
        labels = ("x", "y", "z")
        fans = [
            fan_of_graph(corpus.triangle()),
            star_subdivision(octant_fan(labels), coordinate_cone(labels, ("x", "y"))),
            star_subdivision(octant_fan(labels), coordinate_cone(labels, labels)),
        ]
        inputs = []
        for fan in fans:
            faces = [
                RationalCone.from_rays(labels, rays, closed=rng.random() < 0.5)
                for c in fan.maximal
                for k in range(len(c.rays) + 1)
                for rays in itertools.combinations(c.rays, k)
            ]
            inputs.append(faces)
            inputs.append(rng.sample(faces, len(faces) // 2))
        inputs.append([c for cones in inputs for c in rng.sample(cones, len(cones) // 3)])
        inputs.append([RationalCone(labels, rays) for rays in (((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (1, 0, 0)))])
        inputs = [(labels, cones) for cones in inputs]
        assert {c.dim for _, cones in inputs for c in cones} == {0, 1, 2, 3}
        real = Fan.from_cones

        def recording(ls, cs):
            inputs.append((ls, list(cs)))
            return real(*inputs[-1])

        monkeypatch.setattr(Fan, "from_cones", staticmethod(recording))
        for g in corpus.corpus_graphs().values():
            quotient_fan(fan_of_graph(g), graph_lattice_quotient(g))
        monkeypatch.undo()
        for ls, cones in inputs:
            assert Fan.from_cones(ls, cones) == all_pairs_fan(ls, cones)

    def test_one_ray_set_in_two_orders_is_one_cone(self):
        labels = ("x", "y")
        a, b = RationalCone(labels, ((1, 0), (0, 1))), RationalCone(labels, ((0, 1), (1, 0)))
        assert a == b and a.rays == ((0, 1), (1, 0))
        assert len(Fan.from_cones(labels, [a, b]).maximal) == 1
        assert fan_equal(Fan.from_cones(labels, [a]), Fan.from_cones(labels, [b]))


class TestLocateStratum:
    def test_boundary_points(self):
        g = corpus.triangle()
        s = locate_stratum(g, {"a": 0, "b": 1, "c": 2})
        assert s.contracted == frozenset({"a"})
        assert s.open_cone.contains((0, 1, 2))

    def test_strata_partition_boundary_samples(self):
        g = corpus.theta(3)
        strata = fan_strata(g)
        for x in rational_points(g.edge_labels, 40, seed=3, positive=False):
            hits = [s for s in strata if s.open_cone.contains(x)]
            assert len(hits) == 1
            direct = locate_stratum(g, dict(zip(g.edge_labels, x)))
            assert direct.contracted == hits[0].contracted
            assert direct.structure.preorder == hits[0].structure.preorder


class TestFaceIdentification:
    def test_specialization_cones_are_faces(self):
        # every face of a closed structure cone is the embedded closed cone
        # of exactly one specialization
        for g in (corpus.theta(3), corpus.triangle(), corpus.doubled_triangle()):
            for eg in enriched_structures(g):
                big = closed_structure_cone(eg)
                face_sets = {frozenset(sub) for k in range(big.dim + 1) for sub in itertools.combinations(big.rays, k)}
                from enrichfan.enriched import specializations

                faces = []
                for sp in specializations(eg):
                    cone = embedded(closed_structure_cone(sp.target), g.edge_labels)
                    assert cone.is_face_of(big)
                    faces.append(cone.ray_set)
                assert len(faces) == len(set(faces))
                assert set(faces) == face_sets


class TestBlockProductRule:
    def test_quotient_fan_of_two_blocks(self):
        # two triangles sharing a vertex: the quotient fan is the product of
        # two hexagonal surface fans (36 maximal cones in rank 4)
        g = MultiGraph(
            ["u", "v", "w", "x", "y"],
            {
                "a": ("u", "v"), "b": ("u", "w"), "c": ("v", "w"),
                "p": ("u", "x"), "q": ("u", "y"), "r": ("x", "y"),
            },
        )
        qf = quotient_fan(fan_of_graph(g), graph_lattice_quotient(g))
        assert qf.ambient_rank == 4
        assert len(qf.maximal) == 36
        assert qf.is_complete()


class TestFanPullback:
    def test_contraction_fan_is_restriction(self):
        # the fan of a contraction equals the trace of the big fan on the
        # subspace where the contracted coordinates vanish
        for g, s in [
            (corpus.triangle(), {"a"}),
            (corpus.square(), {"a"}),
            (corpus.square(), {"a", "c"}),
            (corpus.doubled_triangle(), {"e1"}),
            (corpus.theta(3), {"a"}),
        ]:
            labels = g.edge_labels
            pos = {lab: i for i, lab in enumerate(labels)}
            zero = {pos[lab] for lab in s}
            big = fan_of_graph(g)
            traced = set()
            for c in big.maximal:
                kept = tuple(r for r in c.rays if all(r[i] == 0 for i in zero))
                traced.add(kept)
            maximal_traces = {
                t for t in traced if not any(set(t) < set(u) for u in traced if u != t)
            }
            small = fan_of_graph(contract(g, s))
            traces = {
                tuple(sorted(embedded(c, labels).rays)) for c in small.maximal
            }
            assert {tuple(sorted(t)) for t in maximal_traces} == traces


class TestBoundarySampling:
    def test_strata_partition_everywhere(self):
        for name in ("triangle", "square", "doubled_triangle", "dumbbell"):
            g = corpus.CORPUS[name]()
            strata = fan_strata(g)
            for x in rational_points(g.edge_labels, 30, seed=13, positive=False):
                hits = [s for s in strata if s.open_cone.contains(x)]
                assert len(hits) == 1, name


class TestIteratedSubdivision:
    def test_subdividing_at_inserted_ray_cone(self):
        labels = ("x", "y", "z")
        fan = octant_fan(labels)
        fan = star_subdivision(fan, coordinate_cone(labels, labels))
        u = (1, 1, 1)
        # a 2-face spanned by the new ray and a coordinate ray
        tau = RationalCone.from_rays(labels, [u, (1, 0, 0)])
        assert fan.contains_cone(tau)
        fan2 = star_subdivision(fan, tau)
        assert all(c.is_smooth() and c.dim == 3 for c in fan2.maximal)
        assert (2, 1, 1) in fan2.rays()
        # two of the three top cones contain tau; each splits in two
        assert len(fan2.maximal) == len(fan.maximal) + 2
        # support unchanged: a sample of octant points stays covered
        for pt in rational_points(labels, 30, seed=1):
            assert containing(fan2.maximal, pt)
        assert not containing(fan2.maximal, (-1, 1, 1))

    def test_h_description_agrees_after_subdivision(self):
        import itertools as it

        labels = ("x", "y", "z")
        fan = star_subdivision(octant_fan(labels), coordinate_cone(labels, labels))
        grid = list(it.product([0, 1, 2, 3], repeat=3))
        for c in fan.maximal:
            by_rays = reference_membership.Cone(c.rays)
            for x in grid:
                by_h = all(h.holds(x) for h in halfspaces_of(c))
                assert by_h == c.closure().contains(x) == by_rays.closure_contains(x)

    def test_octant_is_not_complete(self):
        assert not octant_fan(("x", "y")).is_complete()


class TestFanAxiom:
    def test_pairwise_intersections_are_common_faces(self):
        # for simplicial fans the intersection of two cones must be the cone
        # on their shared rays: any sampled point in both closures lies there
        for g in (corpus.triangle(), corpus.theta(3), corpus.doubled_triangle()):
            fan = fan_of_graph(g)
            pts = [tuple(map(Fraction, p)) for p in itertools.product([0, 1, 2], repeat=g.n_edges)]
            pts += rational_points(g.edge_labels, 20, seed=23, positive=False)
            for c1, c2 in itertools.combinations(fan.maximal, 2):
                shared = c1.ray_set & c2.ray_set
                face = RationalCone.from_rays(fan.labels, shared) if shared else RationalCone(fan.labels, ())
                for x in pts:
                    if c1.closure().contains(x) and c2.closure().contains(x):
                        assert face.closure().contains(x)
