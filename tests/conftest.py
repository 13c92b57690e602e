from hypothesis import strategies as st

from enrichfan.graphs import MultiGraph, WeightedGraph


def zero_weights(g: MultiGraph) -> WeightedGraph:
    return WeightedGraph(g, {v: 0 for v in g.vertices})


@st.composite
def connected_multigraphs(draw, max_vertices=4, max_edges=5):
    """Random connected multigraphs: a spanning tree plus extra edges/loops."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges[f"t{i}"] = (vertices[j], vertices[i])
    extra = draw(st.integers(min_value=0, max_value=max(0, max_edges - len(edges))))
    for k in range(extra):
        u = draw(st.sampled_from(vertices))
        v = draw(st.sampled_from(vertices))
        edges[f"x{k}"] = (u, v)
    return MultiGraph(vertices, edges)


@st.composite
def biconnected_multigraphs(draw, max_vertices=5, max_edges=7):
    """Random biconnected multigraphs, drawn directly: one edge, then open
    ears, each a path between two distinct vertices already drawn through
    new ones.  The first ear closes a cycle, and an ear of length 1 adds a
    parallel edge or a chord.  Every loop-free single block on at most
    ``max_vertices`` vertices and ``max_edges`` edges, none isolated, has
    such a decomposition within those bounds, so each is reachable, with
    its vertices and its edge labels in any order."""
    ends, n = [(0, 1)], 2
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges - 1))):
        if len(ends) == max_edges:
            break
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 2))
        v += v >= u
        length = draw(st.integers(min_value=1, max_value=min(max_edges - len(ends), max_vertices - n + 1)))
        path = [u, *range(n, n + length - 1), v]
        n += length - 1
        ends += zip(path, path[1:])
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    labels = draw(st.permutations([f"e{i}" for i in range(len(ends))]))
    return MultiGraph(names, {e: (names[u], names[v]) for e, (u, v) in zip(labels, ends)})
