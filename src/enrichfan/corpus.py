"""Small named graphs used throughout the tests, demos and the CLI."""

from .graphs import MultiGraph


def single_edge() -> MultiGraph:
    return MultiGraph(["u", "v"], {"e": ("u", "v")})


def two_cycle() -> MultiGraph:
    return MultiGraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v")})


def triangle() -> MultiGraph:
    """The circular graph on three edges a, b, c."""
    return MultiGraph(
        ["v1", "v2", "v3"],
        {"a": ("v1", "v2"), "b": ("v1", "v3"), "c": ("v2", "v3")},
    )


def square() -> MultiGraph:
    """The circular graph on four edges."""
    return MultiGraph(
        ["v1", "v2", "v3", "v4"],
        {"a": ("v1", "v2"), "b": ("v2", "v3"), "c": ("v3", "v4"), "d": ("v1", "v4")},
    )


def theta(n: int = 3) -> MultiGraph:
    """Two vertices joined by ``n`` parallel edges labeled e1..en (abc for n=3)."""
    if n < 2:
        raise ValueError("theta needs at least two parallel edges")
    labels = ["a", "b", "c"] if n == 3 else [f"e{i}" for i in range(1, n + 1)]
    return MultiGraph(["u", "v"], {lab: ("u", "v") for lab in labels})


def doubled_triangle() -> MultiGraph:
    """A triangle on vertices a, b, d with the b-d side doubled.

    Edges: e1, e2 parallel between b and d; e3 joins a and b; e4 joins a and d.
    """
    return MultiGraph(
        ["a", "b", "d"],
        {"e1": ("b", "d"), "e2": ("b", "d"), "e3": ("a", "b"), "e4": ("a", "d")},
    )


def dumbbell() -> MultiGraph:
    """Two loops joined by a bridge."""
    return MultiGraph(
        ["u", "w"],
        {"l1": ("u", "u"), "l2": ("w", "w"), "m": ("u", "w")},
    )


def path(n_edges: int = 2) -> MultiGraph:
    return MultiGraph(
        [f"p{i}" for i in range(n_edges + 1)],
        {f"s{i}": (f"p{i}", f"p{i + 1}") for i in range(n_edges)},
    )


CORPUS = {
    "single_edge": single_edge,
    "two_cycle": two_cycle,
    "triangle": triangle,
    "square": square,
    "theta3": lambda: theta(3),
    "theta4": lambda: theta(4),
    "doubled_triangle": doubled_triangle,
    "dumbbell": dumbbell,
}

BICONNECTED_CORPUS = (
    "single_edge",
    "two_cycle",
    "triangle",
    "square",
    "theta3",
    "theta4",
    "doubled_triangle",
)


def corpus_graphs() -> dict:
    return {name: make() for name, make in CORPUS.items()}
