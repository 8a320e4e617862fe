"""Exact counting of non-backtracking tail-less cycle classes in finite
oriented graphs, with the associated zeta function, necklace colorings, and
graded Lie superalgebra dimension data. All arithmetic is exact."""

from .config import DEFAULT_LIMITS, DEFAULT_ORACLE_MAX, DEFAULT_ORDER, Limits
from .corpus import corpus_graphs, path_with_loop, rose, single_loop, theta, write_corpus
from .errors import CapExceeded, ExactnessError
from .graphs import (
    OrientedGraph,
    SymmetrizedGraph,
    build_edge_matrix,
    check_connected,
    dump_graph,
    load_graph,
    symmetrize,
)
from .matrices import (
    DetPolynomial,
    IntMatrix,
    det_poly_direct,
    det_poly_from_traces,
    det_poly_ihara_bass,
    edge_walk_traces,
    kronecker,
    mat_mul,
    mat_pow,
    trace_powers,
)
from .numtheory import (
    ExponentMultiset,
    divisors,
    exponent_multisets,
    gcd_lcm,
    mobius,
    pairs_with_lcm,
    tuples_with_lcm,
)
from .oracle import (
    Cycle,
    CycleClass,
    NecklaceClass,
    count_nonperiodic_classes,
    enumerate_cycles,
    is_valid_cycle,
    necklace_classes,
    rotation_classes,
    successor_lists,
)
from .report import ReportDocument, build_report
from .series import (
    TruncSeries,
    one_minus_power,
    product_power,
    series_exp,
    series_inverse,
    series_log,
    series_mul,
    trace_gen_function,
)
from .witt import (
    CycleClassTable,
    IdentityReport,
    SuperDims,
    classical_necklace_count,
    coefficients_from_traces,
    cycle_class_count,
    cycle_class_table,
    enveloping_dimensions,
    graded_lie_dimension,
    graded_lie_dimensions_by_log,
    mobius_trace_sum,
    traces_from_coefficients,
    verify_identity,
    witt_partition_value,
)

__version__ = "0.1.0"
