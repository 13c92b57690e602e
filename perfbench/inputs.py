"""Seeded inputs for the four workloads, as plain data.

Nothing here imports enrichfan: a graph is a ``Graph`` of vertex ids and a
``label -> (u, v)`` edge map, a point is a tuple of ``(numerator,
denominator)`` pairs.  The workloads turn them into library objects, so the
library only ever sees the generated inputs, never the seed.

The seed varies the random graphs, the points, the structure and cell
samples, the lift seed and the CLI graphs.  It never changes an input's
size class (edge and vertex counts, number of points, sample sizes), so
the work per run stays comparable across seeds, and it never changes an
oracle.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    name: str
    vertices: tuple
    edges: dict  # label -> (u, v)
    kind: str = "other"  # "cycle" and "theta" have closed-form structure counts


@dataclass(frozen=True)
class Size:
    """How much work one repetition does; ``tiny`` is for the self-test."""

    cycles: tuple
    thetas: tuple
    doubled_cycles: tuple  # (cycle length, positions of the doubled edges)
    k4_variants: tuple  # numbers of extra parallel edges on K4
    random_slots: tuple  # (vertices, edges) of each random 2-connected multigraph
    validate_sample: int  # structures per graph given to is_enriched
    specialize_sample: int  # structures per graph given to specializations
    geometry_graphs: tuple  # names from corpus.CORPUS plus "c5" and "k4"
    toric_extra: tuple  # graphs used only in the toric step
    points_per_graph: int
    ray_sample: int  # structures per large graph given the ray/smooth/face checks
    stable_genus: int  # genus of the stable-graph and cell census
    cell_sample: int
    lift_points: int


FULL = Size(
    cycles=(4, 5, 6),
    thetas=(3, 4, 5, 6, 7, 8),
    doubled_cycles=((4, (0,)), (4, (0, 2)), (5, (0,)), (5, (0, 2))),
    k4_variants=(0, 1),
    # (vertices, edges) classes whose structure counts vary little from draw
    # to draw (coefficient of variation 2-6 %), so the seed moves the work
    # per run only a little.  With 7 fixed graphs below 3 vertices/6 edges
    # in cost and 8 above, 19 graphs of that class hold ranks 13-31 of the
    # 40 queries, so the median (rank 19.5) and the p75 (29.25) both fall
    # inside one class instead of between graphs of unlike cost.
    random_slots=((3, 5),) * 2 + ((4, 5),) * 4 + ((3, 6),) * 19,
    validate_sample=8,
    specialize_sample=2,
    geometry_graphs=(
        "single_edge", "two_cycle", "triangle", "square", "theta3", "theta4",
        "doubled_triangle", "dumbbell", "c5", "k4",
    ),
    toric_extra=("w4", "prism"),
    points_per_graph=60,
    ray_sample=40,
    stable_genus=3,
    cell_sample=16,
    lift_points=500,
)

TINY = Size(
    cycles=(3, 4),
    thetas=(3, 4),
    doubled_cycles=((3, (0,)),),
    k4_variants=(0,),
    random_slots=((3, 5),),
    validate_sample=3,
    specialize_sample=1,
    geometry_graphs=("triangle", "theta3", "dumbbell"),
    toric_extra=("prism",),
    points_per_graph=4,
    ray_sample=4,
    stable_genus=2,
    cell_sample=4,
    lift_points=20,
)

SIZES = {"full": FULL, "tiny": TINY}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def cycle(n: int, doubled=()) -> Graph:
    vs = tuple(f"v{i}" for i in range(n))
    edges = {f"c{i}": (vs[i], vs[(i + 1) % n]) for i in range(n)}
    for j, i in enumerate(doubled):
        edges[f"d{j}"] = (vs[i], vs[(i + 1) % n])
    name = f"cycle{n}" + "".join(f"+d{i}" for i in doubled)
    return Graph(name, vs, edges, "other" if doubled else "cycle")


def theta(n: int) -> Graph:
    return Graph(f"theta{n}", ("u", "v"), {f"e{i}": ("u", "v") for i in range(1, n + 1)}, "theta")


def k4(extra: int = 0) -> Graph:
    vs = ("a", "b", "c", "d")
    edges = {}
    for i in range(4):
        for j in range(i + 1, 4):
            edges[f"k{vs[i]}{vs[j]}"] = (vs[i], vs[j])
    for j in range(extra):
        edges[f"x{j}"] = ("a", "b")
    return Graph("k4" + (f"+{extra}" if extra else ""), vs, edges)


def wheel4() -> Graph:
    rim = ("a", "b", "c", "d")
    edges = {}
    for i, v in enumerate(rim):
        edges[f"s{v}"] = ("h", v)
        edges[f"r{v}"] = (v, rim[(i + 1) % 4])
    return Graph("w4", ("h",) + rim, edges)


def prism() -> Graph:
    """The triangular prism: 6 vertices, 9 edges."""
    edges = {}
    for i in range(3):
        j = (i + 1) % 3
        edges[f"a{i}{j}"] = (f"a{i}", f"a{j}")
        edges[f"b{i}{j}"] = (f"b{i}", f"b{j}")
        edges[f"m{i}"] = (f"a{i}", f"b{i}")
    return Graph("prism", tuple(f"{s}{i}" for s in "ab" for i in range(3)), edges)


def is_two_connected(vertices, edges) -> bool:
    """The library's ``is_biconnected``, on plain data: at least one edge, no
    loops, connected, and connected after deleting any one vertex."""
    if not edges or any(u == v for u, v in edges.values()):
        return False

    def connected(vs):
        if not vs:
            return True
        seen, todo = set(), [next(iter(vs))]
        while todo:
            x = todo.pop()
            if x in seen:
                continue
            seen.add(x)
            for u, v in edges.values():
                if u in vs and v in vs:
                    if u == x:
                        todo.append(v)
                    elif v == x:
                        todo.append(u)
        return seen == vs

    vs = set(vertices)
    if not connected(vs):
        return False
    return len(vs) < 3 or all(connected(vs - {x}) for x in vs)


def random_two_connected(rng: random.Random, n: int, m: int, name: str) -> Graph:
    """A uniformly drawn loopless multigraph on n vertices and m edges,
    redrawn until it is 2-connected."""
    vs = tuple(f"u{i}" for i in range(n))
    while True:
        edges = {}
        for k in range(m):
            a, b = rng.sample(vs, 2)
            edges[f"r{k}"] = (a, b)
        if is_two_connected(vs, edges):
            return Graph(name, vs, edges)


def sample_fractions(rng: random.Random, k: int) -> tuple:
    """Draws in [0, 1) that pick sample members once a list's length is known."""
    return tuple(rng.random() for _ in range(k))


def pick(fractions, n: int) -> list:
    """One index from each of len(fractions) equal bins of range(n), or all
    of range(n) when it is no longer.  Callers order their list by size
    first, so every seed samples the same mix of sizes."""
    k = len(fractions)
    if n <= k:
        return list(range(n))
    return [i * n // k + int(f * ((i + 1) * n // k - i * n // k)) for i, f in enumerate(fractions)]


def positive_point(rng: random.Random, n_edges: int) -> tuple:
    return tuple((rng.randint(1, 256), rng.randint(1, 64)) for _ in range(n_edges))


def enumerate_inputs(seed: int, size: Size) -> dict:
    rng = _rng("enumerate", seed)
    graphs = [cycle(n) for n in size.cycles]
    graphs += [theta(n) for n in size.thetas]
    graphs += [cycle(n, doubled) for n, doubled in size.doubled_cycles]
    graphs += [k4(extra) for extra in size.k4_variants]
    graphs += [
        random_two_connected(rng, n, m, f"random{i}-{n}v{m}e")
        for i, (n, m) in enumerate(size.random_slots)
    ]
    samples = {
        g.name: (sample_fractions(rng, size.validate_sample), sample_fractions(rng, size.specialize_sample))
        for g in graphs
    }
    # a seeded order spreads graphs of like cost over the repetition, so a
    # slow spell of the shared machine hits a mix of sizes, not one cluster
    rng.shuffle(graphs)
    return {"graphs": graphs, "samples": samples}


def geometry_inputs(seed: int, size: Size) -> dict:
    rng = _rng("geometry", seed)
    return {
        "ray_samples": {name: sample_fractions(rng, size.ray_sample) for name in size.geometry_graphs},
        "point_seed": rng.randrange(2**31),
    }


def points_for(point_seed: int, name: str, n_edges: int, count: int) -> list:
    """Positive rational points for one graph, drawn once its edge count is known."""
    rng = random.Random(f"points/{point_seed}/{name}")
    return [positive_point(rng, n_edges) for _ in range(count)]


def moduli_inputs(seed: int, size: Size) -> dict:
    rng = _rng("moduli", seed)
    return {
        "cell_draws": sample_fractions(rng, size.cell_sample),
        "lift_seed": rng.randrange(2**31),
    }


def _name(rng: random.Random, taken: set) -> str:
    while True:
        s = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if s not in taken:
            taken.add(s)
            return s


def cli_inputs(seed: int) -> dict:
    """A cycle and a theta graph with seeded names, vertex and edge order.

    Sizes stay tiny (3 or 4 edges), so start-up dominates every invocation.
    """
    rng = _rng("cli", seed)
    taken: set = set()
    out = {}
    for kind, n in (("cycle", rng.choice((3, 4))), ("theta", rng.choice((3, 4)))):
        vs = [_name(rng, taken) for _ in range(n if kind == "cycle" else 2)]
        labels = [_name(rng, taken) for _ in range(n)]
        if kind == "cycle":
            edges = [(labels[i], vs[i], vs[(i + 1) % n]) for i in range(n)]
        else:
            edges = [(lab, vs[0], vs[1]) for lab in labels]
        order = list(edges)
        rng.shuffle(order)
        shuffled_vs = list(vs)
        rng.shuffle(shuffled_vs)
        # labels stay in cycle order, which the CLI's "enriched check" needs
        out[kind] = (Graph(f"{kind}{n}", tuple(shuffled_vs), {e: (u, v) for e, u, v in order}, kind), labels)
    return out


def graph_text(g: Graph) -> str:
    lines = ["vertices: " + " ".join(g.vertices)]
    lines += [f"{e}: {u} {v}" for e, (u, v) in g.edges.items()]
    return "\n".join(lines) + "\n"


def graph_json(g: Graph) -> dict:
    return {
        "vertices": [{"id": v, "weight": 0} for v in g.vertices],
        "edges": [{"label": e, "ends": [u, v]} for e, (u, v) in g.edges.items()],
    }
