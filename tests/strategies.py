"""Hypothesis strategies shared by the test modules."""

import hypothesis.strategies as st

from wittcycles import IntMatrix, OrientedGraph

# Multigraph shapes the Ihara-Bass identity treats specially, with |E| - |V|
# of either sign: forests, loops, parallel edges, several components.
SHAPES = {
    "tree": OrientedGraph(4, ((0, 1), (1, 2), (1, 3))),
    "forest_with_isolated_vertex": OrientedGraph(5, ((0, 1), (2, 3))),
    "loop_and_isolated_vertices": OrientedGraph(3, ((1, 1),)),
    "parallel_edges": OrientedGraph(2, ((0, 1), (0, 1), (1, 0))),
    "two_components": OrientedGraph(4, ((0, 0), (0, 1), (2, 3), (3, 2), (3, 3))),
    "loops_on_one_vertex": OrientedGraph(1, ((0, 0), (0, 0))),
}


@st.composite
def oriented_graphs(draw, max_vertices=3, max_edges=3):
    v = draw(st.integers(1, max_vertices))
    m = draw(st.integers(1, max_edges))
    edges = tuple(
        (draw(st.integers(0, v - 1)), draw(st.integers(0, v - 1))) for _ in range(m)
    )
    return OrientedGraph(v, edges)


@st.composite
def binary_matrices(draw, max_dim=3):
    dim = draw(st.integers(1, max_dim))
    rows = [[draw(st.integers(0, 1)) for _ in range(dim)] for _ in range(dim)]
    return IntMatrix.from_rows(rows)


@st.composite
def paired_binary_matrices(draw, max_half=4):
    """0/1 matrices of even dimension with the edge-matrix zero pattern:
    entry (i, inverse(i)) = 0 for the pairing i <-> i + dim/2."""
    half = draw(st.integers(1, max_half))
    dim = 2 * half
    rows = [[draw(st.integers(0, 1)) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        rows[i][(i + half) % dim] = 0
    return IntMatrix.from_rows(rows)
