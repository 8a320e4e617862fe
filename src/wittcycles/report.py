"""Full per-graph report: traces, class counts, determinant and zeta
coefficients, and the graded dimension data, cross-checked on construction.

Every quantity is computed by at least two independent routes before the
document is returned, so a report that exists is internally consistent;
inconsistency raises instead of emitting bad numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .config import DEFAULT_ORDER
from .errors import ExactnessError
from .graphs import OrientedGraph, check_connected, symmetrize
from .matrices import det_poly_from_traces, det_poly_ihara_bass, edge_walk_traces
from .series import TruncSeries, product_power, series_inverse
from .witt import SuperDims, cycle_class_count, cycle_class_table, graded_lie_dimensions_by_log


@dataclass(frozen=True)
class ReportDocument:
    """Everything the report command emits, with deterministic field order."""

    vertex_count: int
    edge_count: int
    connected: bool
    warnings: tuple[str, ...]
    order: int
    traces: tuple[int, ...]
    class_counts: tuple[int, ...]
    det_coefficients: tuple[int, ...]
    zeta_coefficients: tuple[int, ...]
    lie_dims: tuple[int, ...]
    enveloping_dims: tuple[int, ...]

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-ready dict; integer payloads become decimal strings so that
        arbitrarily large values survive any consumer."""
        return {
            "graph": {
                "vertices": self.vertex_count,
                "edges": self.edge_count,
                "connected": self.connected,
                "warnings": list(self.warnings),
            },
            "order": self.order,
            "traces": [str(v) for v in self.traces],
            "class_counts": [str(v) for v in self.class_counts],
            "det_coefficients": [str(v) for v in self.det_coefficients],
            "zeta_coefficients": [str(v) for v in self.zeta_coefficients],
            "lie_dims": [str(v) for v in self.lie_dims],
            "enveloping_dims": [str(v) for v in self.enveloping_dims],
        }


def _cross_checked_counts(traces: tuple[int, ...], order: int) -> tuple[int, ...]:
    table = cycle_class_table(order, traces)
    direct = tuple(cycle_class_count(n, traces) for n in range(1, order + 1))
    if table.counts != direct:
        raise ExactnessError("class-count recurrence disagrees with Moebius inversion")
    return direct


def build_report(g: OrientedGraph, order: int = DEFAULT_ORDER) -> ReportDocument:
    """Compute the full report for one graph at truncation order K = order."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    warnings = []
    connected = check_connected(g)
    if not connected:
        warnings.append(
            "graph is not connected; all quantities are still well defined per component"
        )
    sg = symmetrize(g)
    dim = sg.oriented_edge_count
    traces = edge_walk_traces(sg.origins, sg.ends, max(order, dim))

    counts = _cross_checked_counts(traces, order)
    det = det_poly_from_traces(traces, dim)

    # Trace recursion vs the Ihara-Bass determinant, which shares no code
    # with the traces; the class-count product ties every trace up to K to
    # the same polynomial.
    if det != det_poly_ihara_bass(g.vertex_count, sg.origins, sg.ends):
        raise ExactnessError("trace-recursion determinant disagrees with Ihara-Bass")
    if product_power(counts, "plus").integer_coefficients() != tuple(
        det.coefficient(i) for i in range(order + 1)
    ):
        raise ExactnessError("class-count product disagrees with the determinant")

    # Zeta coefficients two ways: series inverse of det and the product over
    # class counts.
    det_series = TruncSeries.from_coefficients(det.coefficients, order)
    zeta_ints = series_inverse(det_series).integer_coefficients()
    if product_power(counts, "minus").integer_coefficients() != zeta_ints:
        raise ExactnessError("zeta series routes disagree")

    # Graded Lie dimensions from the generator superdimensions t(i) = -a_i,
    # by Moebius inversion of -log det, must reproduce the class counts.
    lie = graded_lie_dimensions_by_log(SuperDims.from_det_polynomial(det), order)
    if lie != counts:
        raise ExactnessError("graded Lie dimensions disagree with class counts")

    return ReportDocument(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        connected=connected,
        warnings=tuple(warnings),
        order=order,
        traces=tuple(traces[:order]),
        class_counts=counts,
        det_coefficients=det.coefficients,
        zeta_coefficients=zeta_ints,
        lie_dims=lie,
        enveloping_dims=tuple(zeta_ints[1:]),
    )
