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
