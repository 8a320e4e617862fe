import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import oriented_graphs
from wittcycles import (
    CapExceeded,
    IntMatrix,
    OrientedGraph,
    build_edge_matrix,
    check_connected,
    dump_graph,
    load_graph,
    rose,
    symmetrize,
    theta,
)

# The 6x6 edge matrices of the two showcase graphs, entered literally.
ROSE3_MATRIX = [
    [1, 1, 1, 0, 1, 1],
    [1, 1, 1, 1, 0, 1],
    [1, 1, 1, 1, 1, 0],
    [0, 1, 1, 1, 1, 1],
    [1, 0, 1, 1, 1, 1],
    [1, 1, 0, 1, 1, 1],
]
THETA_MATRIX = [
    [0, 0, 0, 0, 1, 1],
    [0, 0, 0, 1, 0, 1],
    [0, 0, 0, 1, 1, 0],
    [0, 1, 1, 0, 0, 0],
    [1, 0, 1, 0, 0, 0],
    [1, 1, 0, 0, 0, 0],
]


def test_graph_validation():
    with pytest.raises(ValueError):
        OrientedGraph(0, ((0, 0),))
    with pytest.raises(ValueError):
        OrientedGraph(2, ())
    with pytest.raises(ValueError):
        OrientedGraph(2, ((0, 2),))


def test_dict_round_trip():
    g = theta()
    assert OrientedGraph.from_dict(g.to_dict()) == g
    with pytest.raises(ValueError):
        OrientedGraph.from_dict({"vertices": 2})
    with pytest.raises(ValueError):
        OrientedGraph.from_dict({"vertices": 2, "edges": [[0]]})
    with pytest.raises(ValueError):
        OrientedGraph.from_dict({"vertices": True, "edges": [[0, 0]]})
    with pytest.raises(ValueError, match="endpoints must be integers"):
        OrientedGraph.from_dict({"vertices": 2, "edges": [[True, False]]})
    with pytest.raises(ValueError, match="endpoints must be integers"):
        OrientedGraph.from_dict({"vertices": 2, "edges": [[0, True]]})


def test_file_round_trip(tmp_path):
    path = tmp_path / "g.json"
    dump_graph(rose(2), path)
    assert load_graph(path) == rose(2)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_graph(path)


def test_load_enforces_size_cap(tmp_path):
    big = OrientedGraph(1, ((0, 0),) * 33)  # 2|E| = 66 > 64
    path = tmp_path / "big.json"
    dump_graph(big, path)
    with pytest.raises(CapExceeded):
        load_graph(path)
    assert load_graph(path, max_dim=66) == big


def test_symmetrize_single_loop():
    sg = symmetrize(rose(1))
    assert sg.oriented_edge_count == 2
    assert sg.inverse(0) == 1 and sg.inverse(1) == 0
    assert sg.origin(0) == sg.end(0) == sg.origin(1) == sg.end(1) == 0


def test_symmetrize_theta():
    sg = symmetrize(theta())
    assert sg.oriented_edge_count == 6
    for i in range(3):
        assert (sg.origin(i), sg.end(i)) == (0, 1)
        assert (sg.origin(i + 3), sg.end(i + 3)) == (1, 0)
        assert sg.inverse(i) == i + 3


def test_symmetrize_rose3():
    sg = symmetrize(rose(3))
    assert sg.oriented_edge_count == 6
    assert all(sg.origin(i) == sg.end(i) == 0 for i in range(6))


@given(oriented_graphs())
def test_inverse_pairing_is_fixed_point_free_involution(g):
    sg = symmetrize(g)
    for i in range(sg.oriented_edge_count):
        assert sg.inverse(i) != i
        assert sg.inverse(sg.inverse(i)) == i


def test_edge_matrix_rose3():
    assert build_edge_matrix(symmetrize(rose(3))) == IntMatrix.from_rows(ROSE3_MATRIX)


def test_edge_matrix_theta():
    assert build_edge_matrix(symmetrize(theta())) == IntMatrix.from_rows(THETA_MATRIX)


def test_edge_matrix_single_nonloop_edge():
    t = build_edge_matrix(symmetrize(OrientedGraph(2, ((0, 1),))))
    assert t == IntMatrix.from_rows([[0, 0], [0, 0]])


@given(oriented_graphs(max_vertices=4, max_edges=5))
def test_edge_matrix_invariants(g):
    from wittcycles import mat_mul

    sg = symmetrize(g)
    t = build_edge_matrix(sg)
    dim = sg.oriented_edge_count
    outdeg = [0] * g.vertex_count
    for i in range(dim):
        outdeg[sg.origin(i)] += 1
    for i in range(dim):
        for j in range(dim):
            expected = 1 if sg.end(i) == sg.origin(j) and j != sg.inverse(i) else 0
            assert t.entries[i][j] == expected
        assert t.entries[i][sg.inverse(i)] == 0
        assert sum(t.entries[i]) == outdeg[sg.end(i)] - 1
    power = t
    for _ in range(4):
        power = mat_mul(power, t)
        assert all(power.entries[a][a] >= 0 for a in range(dim))


@given(oriented_graphs(max_vertices=4, max_edges=4), st.randoms())
def test_edge_matrix_vertex_relabel_invariance(g, rng):
    labels = list(range(g.vertex_count))
    rng.shuffle(labels)
    relabeled = OrientedGraph(
        g.vertex_count, tuple((labels[u], labels[v]) for u, v in g.edges)
    )
    assert build_edge_matrix(symmetrize(relabeled)) == build_edge_matrix(symmetrize(g))


@given(oriented_graphs(max_vertices=3, max_edges=4), st.randoms())
def test_edge_matrix_edge_permutation_conjugates(g, rng):
    m = g.edge_count
    perm = list(range(m))
    rng.shuffle(perm)
    permuted = OrientedGraph(g.vertex_count, tuple(g.edges[p] for p in perm))
    t = build_edge_matrix(symmetrize(g))
    tp = build_edge_matrix(symmetrize(permuted))
    # Oriented-edge relabeling induced by the base-edge permutation.
    sigma = {k: perm[k] for k in range(m)} | {k + m: perm[k] + m for k in range(m)}
    for i in range(2 * m):
        for j in range(2 * m):
            assert tp.entries[i][j] == t.entries[sigma[i]][sigma[j]]


def test_check_connected():
    assert check_connected(theta())
    assert not check_connected(OrientedGraph(2, ((0, 0), (1, 1))))
    assert check_connected(rose(1))
