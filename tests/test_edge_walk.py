"""The factored edge walk and the Ihara-Bass determinant against the dense
edge-matrix routes, on the corpus and on random multigraphs."""

import pytest
from hypothesis import given, settings

import wittcycles.report
from strategies import SHAPES, oriented_graphs
from wittcycles import (
    ExactnessError,
    OrientedGraph,
    build_edge_matrix,
    build_report,
    check_connected,
    det_poly_direct,
    det_poly_from_traces,
    det_poly_ihara_bass,
    edge_walk_traces,
    symmetrize,
    theta,
    trace_powers,
)
from wittcycles.matrices import DetPolynomial, _times_one_minus_z2_power


def routes_agree(g: OrientedGraph, k: int) -> None:
    sg = symmetrize(g)
    t = build_edge_matrix(sg)
    walk = edge_walk_traces(sg.origins, sg.ends, max(k, t.dim))
    assert walk == trace_powers(t, max(k, t.dim))
    from_traces = det_poly_from_traces(walk, t.dim)
    assert det_poly_ihara_bass(g.vertex_count, sg.origins, sg.ends) == from_traces
    assert det_poly_direct(t) == from_traces


def test_walk_and_det_routes_on_corpus(corpus):
    for g in corpus.values():
        routes_agree(g, 24)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_walk_and_det_routes_on_shapes(name):
    routes_agree(SHAPES[name], 8)


def test_shapes_cover_the_special_cases():
    graphs = SHAPES.values()
    assert any(g.edge_count < g.vertex_count for g in graphs)
    assert any(not check_connected(g) for g in graphs)
    assert any(u == v for g in graphs for u, v in g.edges)
    assert any(len(set(g.edges)) < g.edge_count for g in graphs)
    assert any(
        set(range(g.vertex_count)) - {x for e in g.edges for x in e} for g in graphs
    )


def test_forest_determinant_is_one():
    sg = symmetrize(SHAPES["forest_with_isolated_vertex"])
    assert det_poly_ihara_bass(5, sg.origins, sg.ends).coefficients == (1,)
    assert edge_walk_traces(sg.origins, sg.ends, 6) == (0,) * 6


@settings(max_examples=150)
@given(oriented_graphs(max_vertices=6, max_edges=5))
def test_walk_and_det_routes_on_random_multigraphs(g):
    routes_agree(g, 8)


def test_one_minus_z2_power():
    assert _times_one_minus_z2_power([1, -1], 2) == [1, -1, -2, 2, 1, -1]
    assert _times_one_minus_z2_power([1, -1, -2, 2, 1, -1], -2) == [1, -1]
    assert _times_one_minus_z2_power([1, 0, -1, 0, 0], -1) == [1, 0, 0]
    assert _times_one_minus_z2_power([3, 4], 0) == [3, 4]


@pytest.mark.parametrize("coeffs", [[1], [1, 1], [1, 0, 1], [1, 0, -1, 1]])
def test_inexact_one_minus_z2_division_raises(coeffs):
    with pytest.raises(ExactnessError):
        _times_one_minus_z2_power(coeffs, -1)


def test_walk_rejects_bad_input():
    with pytest.raises(ValueError):
        edge_walk_traces((0, 1), (1, 0), 0)
    with pytest.raises(ValueError):
        edge_walk_traces((0, 1, 0), (1, 0, 0), 3)
    with pytest.raises(ValueError):
        edge_walk_traces((), (), 3)


def test_report_rejects_a_walk_off_by_one(monkeypatch):
    """Negative control: one wrong trace must stop the report."""
    true_walk = edge_walk_traces

    def off_by_one(origins, ends, k_max):
        traces = list(true_walk(origins, ends, k_max))
        traces[3] += 1
        return tuple(traces)

    monkeypatch.setattr(wittcycles.report, "edge_walk_traces", off_by_one)
    with pytest.raises(ExactnessError):
        build_report(theta(), order=6)


def test_report_rejects_an_ihara_bass_mismatch(monkeypatch):
    """The new comparison itself can fail: a determinant that differs in one
    coefficient from the trace recursion stops the report."""
    true_det = det_poly_ihara_bass

    def shifted(vertex_count, origins, ends):
        coeffs = list(true_det(vertex_count, origins, ends).coefficients)
        coeffs[-1] += 1
        return DetPolynomial(tuple(coeffs))

    monkeypatch.setattr(wittcycles.report, "det_poly_ihara_bass", shifted)
    with pytest.raises(ExactnessError, match="Ihara-Bass"):
        build_report(theta(), order=6)
