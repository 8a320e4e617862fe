"""Dense arbitrary-precision integer matrices, edge-matrix power traces, and
the polynomial det(1 - zT).

Three independent routes to det(1 - zT) are provided on purpose: a
Newton-style recursion over power traces, a direct fraction-free determinant
evaluation of the 2|E| x 2|E| edge matrix, and the Ihara-Bass identity on the
|V| x |V| vertex matrices. They must agree; nothing in the package trusts one
unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .config import DEFAULT_LIMITS
from .errors import CapExceeded, ExactnessError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square matrix of Python ints (exact, unbounded)."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise ValueError("matrix must have dimension >= 1")
        for row in self.entries:
            if len(row) != n:
                raise ValueError(f"matrix is not square: row length {len(row)} != {n}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, dim: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.dim))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product; dimensions must match."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    n = a.dim
    bt = tuple(zip(*b.entries))
    rows = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.entries
    )
    return IntMatrix(rows)


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    """a**k by successive multiplication; k = 0 gives the identity."""
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    result = IntMatrix.identity(a.dim)
    for _ in range(k):
        result = mat_mul(result, a)
    return result


def trace_powers(t: IntMatrix, k_max: int) -> tuple[int, ...]:
    """(trace of t**1, ..., trace of t**k_max), keeping successive powers."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    traces = []
    power = t
    for _ in range(k_max):
        traces.append(power.trace())
        power = mat_mul(power, t)
    return tuple(traces)


def edge_walk_traces(
    origins: Sequence[int], ends: Sequence[int], k_max: int
) -> tuple[int, ...]:
    """(tr T^1, ..., tr T^k_max) for the edge matrix T of a symmetrized graph,
    without building T.

    origins[i] / ends[i] are the endpoints of oriented edge i, and the inverse
    of edge i is (i + m) mod 2m for 2m oriented edges. T = B - J, where
    B[i][j] = [end(i) = origin(j)] has rank at most |V| and J pairs each edge
    with its inverse, so one row of P*T costs O(2m) instead of O((2m)^2): add
    the row into one bucket per end vertex, then
    new[j] = bucket[origin(j)] - row[inverse(j)].
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    dim = len(origins)
    if dim == 0 or dim % 2 or len(ends) != dim:
        raise ValueError(f"need equal, even, nonzero edge counts, got {dim} and {len(ends)}")
    half = dim // 2
    vertex_count = max(max(origins), max(ends)) + 1
    rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    traces = []
    for _ in range(k_max):
        next_rows = []
        for row in rows:
            bucket = [0] * vertex_count
            for x, v in zip(row, ends):
                bucket[v] += x
            # row[half:] + row[:half] lists row[inverse(j)] in order of j.
            next_rows.append(
                [bucket[u] - x for u, x in zip(origins, row[half:] + row[:half])]
            )
        rows = next_rows
        traces.append(sum(row[i] for i, row in enumerate(rows)))
    return tuple(traces)


def kronecker(a: IntMatrix, b: IntMatrix, max_dim: int = DEFAULT_LIMITS.max_matrix_dim) -> IntMatrix:
    """Kronecker product of dimension a.dim * b.dim, guarded by max_dim."""
    dim = a.dim * b.dim
    if dim > max_dim:
        raise CapExceeded(f"Kronecker product dimension {dim} exceeds cap {max_dim}")
    nb = b.dim
    rows = tuple(
        tuple(a.entries[i // nb][j // nb] * b.entries[i % nb][j % nb] for j in range(dim))
        for i in range(dim)
    )
    return IntMatrix(rows)


@dataclass(frozen=True)
class DetPolynomial:
    """Coefficients a_0..a_d of det(1 - zT) as exact integers, a_0 = 1.

    The negated tail coefficients (-a_i for i >= 1) are the graded generator
    superdimensions attached to the graph; see the witt module.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("det polynomial must have constant coefficient 1")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> int:
        """a_i, with a_i = 0 beyond the stored degree."""
        if i < 0:
            raise ValueError(f"coefficient index must be >= 0, got {i}")
        return self.coefficients[i] if i <= self.degree else 0

    def negated_tail(self, order: int) -> tuple[int, ...]:
        """(-a_1, ..., -a_order), zero-padded past the degree."""
        return tuple(-self.coefficient(i) for i in range(1, order + 1))


def _trimmed(coeffs: list[int]) -> tuple[int, ...]:
    d = len(coeffs) - 1
    while d > 0 and coeffs[d] == 0:
        d -= 1
    return tuple(coeffs[: d + 1])


def det_poly_from_traces(traces: Sequence[int], dim: int) -> DetPolynomial:
    """det(1 - zT) from power traces via i*a_i = -sum_{k<=i} tr(T^k)*a_{i-k}.

    Every division by i must be exact; failure signals a trace sequence that
    cannot come from an integer matrix.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if len(traces) < dim:
        raise ValueError(f"need at least {dim} traces, got {len(traces)}")
    a = [1]
    for i in range(1, dim + 1):
        s = -sum(traces[k - 1] * a[i - k] for k in range(1, i + 1))
        if s % i != 0:
            raise ExactnessError(f"trace recursion not divisible at i={i}: {s} % {i} != 0")
        a.append(s // i)
    return DetPolynomial(_trimmed(a))


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: division by the previous pivot is exact.
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _interpolate(values: Sequence[int]) -> list[int]:
    """Integer coefficients c_0..c_n of the unique degree-<=n polynomial that
    takes values[k] at z = k for k = 0..n, by Newton interpolation.

    The divided differences of an integer polynomial on the nodes 0..n are
    integers, so each division must be exact; a remainder raises
    ExactnessError.
    """
    n = len(values) - 1
    # Newton divided differences on nodes 0, 1, ..., n.
    diffs = list(values)
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            diffs[i], rem = divmod(diffs[i] - diffs[i - 1], level)
            if rem:
                raise ExactnessError(
                    f"divided difference {i} at level {level} is not integral"
                )
    # Expand product form into monomial coefficients.
    coeffs = [0] * (n + 1)
    coeffs[0] = diffs[n]
    for node in range(n - 1, -1, -1):
        for i in range(n, 0, -1):
            coeffs[i] = coeffs[i - 1] - node * coeffs[i]
        coeffs[0] = diffs[node] - node * coeffs[0]
    return coeffs


def det_poly_direct(t: IntMatrix) -> DetPolynomial:
    """det(1 - zT) by exact evaluation-interpolation, independent of traces.

    Evaluates det(I - k*T) at the integer points k = 0..dim with Bareiss
    elimination, then recovers the unique degree-<=dim polynomial through
    those values with exact integer Newton interpolation.
    """
    n = t.dim
    values = []
    for k in range(n + 1):
        rows = [
            [(1 if i == j else 0) - k * t.entries[i][j] for j in range(n)]
            for i in range(n)
        ]
        values.append(bareiss_determinant(rows))
    return DetPolynomial(_trimmed(_interpolate(values)))


def _times_one_minus_z2_power(coeffs: Sequence[int], exponent: int) -> list[int]:
    """coeffs * (1 - z^2)^exponent for any integer exponent.

    A negative exponent divides; each division by (1 - z^2) must be exact,
    or ExactnessError is raised.
    """
    out = list(coeffs)
    for _ in range(exponent):
        out = [c - (out[i - 2] if i >= 2 else 0) for i, c in enumerate(out + [0, 0])]
    for step in range(-exponent):
        # q_i = p_i + q_{i-2} solves p = (1 - z^2) q; the two top terms are
        # the remainder.
        quotient: list[int] = []
        for i, c in enumerate(out):
            quotient.append(c + (quotient[i - 2] if i >= 2 else 0))
        if len(quotient) < 2 or any(quotient[-2:]):
            raise ExactnessError(
                f"division {step + 1} of {-exponent} by (1 - z^2) is not exact: {out}"
            )
        out = quotient[:-2]
    return out


def det_poly_ihara_bass(
    vertex_count: int, origins: Sequence[int], ends: Sequence[int]
) -> DetPolynomial:
    """det(1 - zT) by the Ihara-Bass identity, independent of traces and of T:

        det(I - zT) = (1 - z^2)^(|E| - |V|) * det(I - zA + z^2 (D - I)),

    where A[u][v] counts the oriented edges from u to v and D[v] counts the
    oriented edges leaving v, so a loop adds 2 to A[v][v] and 2 to D[v].
    The |V| x |V| determinant is evaluated with Bareiss elimination at
    z = 0..2|V| and interpolated exactly; the (1 - z^2) factor is a
    multiplication, or an exact division when |E| < |V|.
    """
    if vertex_count < 1:
        raise ValueError(f"vertex_count must be >= 1, got {vertex_count}")
    if len(origins) % 2 or len(ends) != len(origins):
        raise ValueError(
            f"need equal, even oriented edge counts, got {len(origins)} and {len(ends)}"
        )
    adjacency = [[0] * vertex_count for _ in range(vertex_count)]
    for u, v in zip(origins, ends):
        adjacency[u][v] += 1
    degree = [sum(row) for row in adjacency]
    values = []
    for z in range(2 * vertex_count + 1):
        rows = [[-z * x for x in row] for row in adjacency]
        for v in range(vertex_count):
            rows[v][v] += 1 + z * z * (degree[v] - 1)
        values.append(bareiss_determinant(rows))
    coeffs = _times_one_minus_z2_power(
        _interpolate(values), len(origins) // 2 - vertex_count
    )
    return DetPolynomial(_trimmed(coeffs))
