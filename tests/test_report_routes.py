"""The report's polynomial-in-K routes: no partition sum on the report path,
the log/Moebius Lie dimensions and the integer class-count product against
their references, and a negative control for each report comparison."""

import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import wittcycles.numtheory
import wittcycles.report
import wittcycles.witt
from strategies import SHAPES, oriented_graphs
from wittcycles import (
    ExactnessError,
    OrientedGraph,
    SuperDims,
    TruncSeries,
    build_report,
    cycle_class_table,
    det_poly_from_traces,
    dump_graph,
    edge_walk_traces,
    graded_lie_dimension,
    graded_lie_dimensions_by_log,
    one_minus_power,
    product_power,
    series_mul,
    symmetrize,
    theta,
)
from wittcycles.cli import main


def fraction_product_power(exponents, sign):
    """Reference for product_power: one full Fraction Cauchy product per
    nonzero factor (1 - z^N)^(sigma * e_N)."""
    sigma = 1 if sign == "plus" else -1
    order = len(exponents)
    result = TruncSeries.one(order)
    for n, e in enumerate(exponents, start=1):
        if e != 0:
            result = series_mul(result, one_minus_power(n, sigma * e, order))
    return result


def routes_agree(g: OrientedGraph, order: int) -> None:
    sg = symmetrize(g)
    dim = sg.oriented_edge_count
    traces = edge_walk_traces(sg.origins, sg.ends, max(order, dim))
    dims = SuperDims.from_det_polynomial(det_poly_from_traces(traces, dim))
    assert graded_lie_dimensions_by_log(dims, order) == tuple(
        graded_lie_dimension(dims, n) for n in range(1, order + 1)
    )
    counts = cycle_class_table(order, traces).counts
    for sign in ("plus", "minus"):
        assert product_power(counts, sign) == fraction_product_power(counts, sign)


def test_routes_agree_on_corpus(corpus):
    for g in corpus.values():
        routes_agree(g, 16)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_routes_agree_on_shapes(name):
    routes_agree(SHAPES[name], 10)


@settings(max_examples=100)
@given(oriented_graphs(max_vertices=5, max_edges=5))
def test_routes_agree_on_random_multigraphs(g):
    routes_agree(g, 10)


@settings(max_examples=100)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=12), st.sampled_from(["plus", "minus"]))
def test_product_power_matches_fraction_reference(exponents, sign):
    assert product_power(exponents, sign) == fraction_product_power(exponents, sign)


@settings(max_examples=100)
@given(st.lists(st.integers(-4, 4), max_size=5), st.integers(1, 10))
def test_lie_dimensions_by_log_match_partition_sum(values, order):
    dims = SuperDims(tuple(values))
    assert graded_lie_dimensions_by_log(dims, order) == tuple(
        graded_lie_dimension(dims, n) for n in range(1, order + 1)
    )


def test_lie_dimensions_by_log_rejects_order_zero():
    with pytest.raises(ValueError):
        graded_lie_dimensions_by_log(SuperDims((1,)), 0)


def test_report_enumerates_no_partition(monkeypatch, corpus):
    def forbidden(*args, **kwargs):
        raise RuntimeError("partition enumerated on the report path")

    monkeypatch.setattr(wittcycles.numtheory, "exponent_multisets", forbidden)
    monkeypatch.setattr(wittcycles.witt, "exponent_multisets", forbidden)
    for g in corpus.values():
        doc = build_report(g, order=30)
        assert doc.lie_dims == doc.class_counts


def test_report_rejects_a_shifted_lie_route(monkeypatch):
    true_lie = graded_lie_dimensions_by_log

    def shifted(dims, order):
        values = list(true_lie(dims, order))
        values[-1] += 1
        return tuple(values)

    monkeypatch.setattr(wittcycles.report, "graded_lie_dimensions_by_log", shifted)
    with pytest.raises(ExactnessError, match="Lie dimensions"):
        build_report(theta(), order=6)


@pytest.mark.parametrize(
    "sign, message", [("plus", "class-count product"), ("minus", "zeta series")]
)
def test_report_rejects_a_shifted_product(monkeypatch, sign, message):
    true_product = product_power

    def shifted(exponents, which):
        series = true_product(exponents, which)
        if which != sign:
            return series
        coeffs = list(series.integer_coefficients())
        coeffs[-1] += 1
        return TruncSeries.from_coefficients(coeffs, series.order)

    monkeypatch.setattr(wittcycles.report, "product_power", shifted)
    with pytest.raises(ExactnessError, match=message):
        build_report(theta(), order=6)


def test_report_order_60_on_a_dim_64_graph(capsys, tmp_path):
    rng = random.Random(7)
    vertices = 12
    edges = [(v, rng.randrange(v)) for v in range(1, vertices)]
    edges += [(rng.randrange(vertices), rng.randrange(vertices)) for _ in range(32 - len(edges))]
    path = tmp_path / "dim64.json"
    dump_graph(OrientedGraph(vertices, tuple(edges)), path)
    assert main(["report", str(path), "--order", "60"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["traces"]) == 60
    assert doc["lie_dims"] == doc["class_counts"]
