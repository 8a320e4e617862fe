"""Moebius-inversion counting of non-backtracking cycle classes, the
classical necklace polynomial, coefficient/trace conversion, graded Lie
superalgebra dimension formulas, and the lcm-convolution identity suite.

Conventions used throughout:
  * a trace sequence is a list (tr T^1, tr T^2, ...), 1-based by position;
  * the Moebius trace sum S(s) = sum_{g|s} mu(g) tr T^(s/g) equals s times
    the class count of length s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd
from typing import Any, Mapping, Sequence

from .config import DEFAULT_LIMITS
from .errors import ExactnessError
from .matrices import DetPolynomial, IntMatrix, kronecker, mat_pow, trace_powers
from .numtheory import divisors, exponent_multisets, mobius, pairs_with_lcm, tuples_with_lcm
from .series import TruncSeries, series_inverse, series_log, sign_value


def _need_traces(traces: Sequence[int], k: int, what: str) -> None:
    if len(traces) < k:
        raise ValueError(f"{what} needs traces up to {k}, got {len(traces)}")


def cycle_class_count(n: int, traces: Sequence[int]) -> int:
    """Number of rotation classes of non-periodic cycles of length n.

    Evaluates (1/n) * sum_{g|n} mu(g) * tr T^(n/g); the sum is always an
    exact multiple of n for genuine edge-matrix traces.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _need_traces(traces, n, "cycle_class_count")
    total = sum(mobius(g) * traces[n // g - 1] for g in divisors(n))
    if total % n != 0:
        raise ExactnessError(f"Moebius sum {total} is not divisible by {n}: corrupt traces")
    return total // n


@dataclass(frozen=True)
class CycleClassTable:
    """Per-length table of power traces, class counts, and (optionally)
    enveloping-algebra dimensions, all 1-based via the accessors."""

    traces: tuple[int, ...]
    counts: tuple[int, ...]
    enveloping_dims: tuple[int, ...] | None = None

    @property
    def k_max(self) -> int:
        return len(self.counts)

    def trace(self, n: int) -> int:
        return self.traces[n - 1]

    def count(self, n: int) -> int:
        return self.counts[n - 1]


def cycle_class_table(k_max: int, traces: Sequence[int]) -> CycleClassTable:
    """Class counts for n = 1..k_max by the divisor recurrence
    n*c(n) = tr T^n - sum_{g|n, g<n} g*c(g), cheaper than re-inverting."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    _need_traces(traces, k_max, "cycle_class_table")
    counts: list[int] = []
    for n in range(1, k_max + 1):
        rest = sum(g * counts[g - 1] for g in divisors(n) if g != n)
        remainder = traces[n - 1] - rest
        if remainder % n != 0:
            raise ExactnessError(f"recurrence remainder {remainder} not divisible by {n}")
        counts.append(remainder // n)
    return CycleClassTable(tuple(traces[:k_max]), tuple(counts))


def classical_necklace_count(n: int, r: int) -> int:
    """Necklace polynomial M(n; r) = (1/n) sum_{g|n} mu(g) r^(n/g).

    Counts non-periodic length-n necklaces over r colors; also the dimension
    of the degree-n component of the free Lie algebra on r generators.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = sum(mobius(g) * r ** (n // g) for g in divisors(n))
    if total % n != 0:
        raise ExactnessError(f"necklace sum {total} not divisible by {n}")
    return total // n


def mobius_trace_sum(s: int, traces: Sequence[int]) -> int:
    """S(s) = sum_{g|s} mu(g) tr T^(s/g); equals s * cycle_class_count(s)."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    _need_traces(traces, s, "mobius_trace_sum")
    return sum(mobius(g) * traces[s // g - 1] for g in divisors(s))


# ---------------------------------------------------------------------------
# Coefficient / trace conversion
# ---------------------------------------------------------------------------

def coefficients_from_traces(traces: Sequence[int], sign: str, order: int) -> tuple[int, ...]:
    """Coefficients c(1..order) of det(1-zT) ('plus', with det = 1 - sum c z^i)
    or of its inverse, the zeta series ('minus', zeta = 1 + sum c z^i).

    Evaluated by the partition sum
        c(i) = sum_m lambda(m) sum_{|a|=m, weight(a)=i}
               prod_k tr(T^k)^(a_k) / (a_k! k^(a_k)),
    lambda(m) = (-1)^(m+1) for 'plus' and 1 for 'minus', in exact rationals;
    the result must come out integral.
    """
    sigma = sign_value(sign)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    _need_traces(traces, order, "coefficients_from_traces")
    out = []
    for i in range(1, order + 1):
        total = Fraction(0)
        for ms in exponent_multisets(i, i):
            lam = (-1) ** (ms.size + 1) if sigma > 0 else 1
            term = Fraction(lam)
            for part, mult in ms.parts:
                tr = traces[part - 1]
                if tr == 0:
                    term = Fraction(0)
                    break
                term *= Fraction(tr**mult, factorial(mult) * part**mult)
            total += term
        if total.denominator != 1:
            raise ExactnessError(f"coefficient {i} came out non-integral: {total}")
        out.append(int(total))
    return tuple(out)


def traces_from_coefficients(coeffs: Sequence[int], sign: str, k_max: int) -> tuple[int, ...]:
    """Recover tr T^1..tr T^k_max from det or zeta coefficients:
        tr T^N = N * sum_{weight(s)=N} (+-1)^(|s|+1) (|s|-1)!/s! prod c(i)^(s_i),
    where the sign factor is +1 for 'plus' input and (-1)^(|s|+1) for 'minus'.
    Coefficients beyond the given support are zero, so traces of every order
    are reconstructible from a finite coefficient list.
    """
    sigma = sign_value(sign)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    support = len(coeffs)
    out = []
    for n in range(1, k_max + 1):
        total = Fraction(0)
        if support >= 1:
            for ms in exponent_multisets(n, min(n, support)):
                size = ms.size
                factor = 1 if sigma > 0 else (-1) ** (size + 1)
                term = Fraction(factor * factorial(size - 1), ms.factorial_product())
                for part, mult in ms.parts:
                    c = coeffs[part - 1]
                    if c == 0:
                        term = Fraction(0)
                        break
                    term *= c**mult
                total += term
        total *= n
        if total.denominator != 1:
            raise ExactnessError(f"trace {n} came out non-integral: {total}")
        out.append(int(total))
    return tuple(out)


# ---------------------------------------------------------------------------
# Graded Lie superalgebra dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperDims:
    """Finitely supported generator superdimensions t(1), t(2), ...; entries
    may be negative (parity-signed dimensions)."""

    values: tuple[int, ...]

    def at(self, i: int) -> int:
        """t(i), 1-based, zero beyond the stored support."""
        if i < 1:
            raise ValueError(f"index must be >= 1, got {i}")
        return self.values[i - 1] if i <= len(self.values) else 0

    @property
    def support_bound(self) -> int:
        return len(self.values)

    @classmethod
    def from_det_polynomial(cls, p: DetPolynomial) -> "SuperDims":
        """Read det(1-zT) = 1 - sum t(i) z^i, i.e. t(i) = -a_i."""
        return cls(p.negated_tail(p.degree))


def witt_partition_value(dims: SuperDims, n: int) -> Fraction:
    """Witt partition function W(n) = sum over multisets s of weight n of
    (|s|-1)!/s! * prod t(i)^(s_i). Exact rational; not integral in general."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bound = min(n, dims.support_bound)
    if bound < 1:
        return Fraction(0)
    total = Fraction(0)
    for ms in exponent_multisets(n, bound):
        term = Fraction(factorial(ms.size - 1), ms.factorial_product())
        for part, mult in ms.parts:
            t = dims.at(part)
            if t == 0:
                term = Fraction(0)
                break
            term *= t**mult
        total += term
    return total


def graded_lie_dimension(dims: SuperDims, n: int) -> int:
    """Superdimension of the degree-n component of the free Lie superalgebra
    generated in degrees with superdimensions t(i):
        sum_{g|n} mu(g)/g * W(n/g), asserted integral."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = sum(
        (Fraction(mobius(g), g) * witt_partition_value(dims, n // g) for g in divisors(n)),
        Fraction(0),
    )
    if total.denominator != 1:
        raise ExactnessError(f"graded dimension {n} came out non-integral: {total}")
    return int(total)


def graded_lie_dimensions_by_log(dims: SuperDims, order: int) -> tuple[int, ...]:
    """graded_lie_dimension for n = 1..order without the partition sum: the
    Witt partition values are W(n) = [z^n] -log(1 - sum t(i) z^i), from the
    series_log recurrence in O(order^2), then each dimension is
    sum_{g|n} mu(g)/g * W(n/g), asserted integral."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    log = series_log(_generator_series(dims, order)).coeffs
    out = []
    for n in range(1, order + 1):
        total = -sum(
            (Fraction(mobius(g), g) * log[n // g] for g in divisors(n)), Fraction(0)
        )
        if total.denominator != 1:
            raise ExactnessError(f"graded dimension {n} came out non-integral: {total}")
        out.append(int(total))
    return tuple(out)


def _generator_series(dims: SuperDims, order: int) -> TruncSeries:
    """1 - sum t(i) z^i mod z^(order+1)."""
    return TruncSeries.from_coefficients(
        [1] + [-dims.at(i) for i in range(1, order + 1)], order
    )


def enveloping_dimensions(dims: SuperDims, order: int) -> tuple[int, ...]:
    """Dimensions of the graded pieces of the enveloping algebra: coefficients
    z^1..z^order of 1 / (1 - sum t(i) z^i)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return series_inverse(_generator_series(dims, order)).integer_coefficients()[1:]


# ---------------------------------------------------------------------------
# lcm-convolution identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check: both side values and the lcm-constrained
    index set actually summed over, so failures are diagnosable."""

    identity: str
    params: dict[str, Any] = field(compare=False)
    convolution_side: int = 0
    composite_side: int = 0
    index_set: tuple = ()

    @property
    def holds(self) -> bool:
        return self.convolution_side == self.composite_side


def s_kron_pair_sides(
    traces_a: Sequence[int], traces_b: Sequence[int], traces_kron: Sequence[int], n: int
) -> tuple[int, int, tuple]:
    """sum_{lcm(s,t)=n} S(s; A) S(t; B)  vs  S(n; A kron B)."""
    index = pairs_with_lcm(n)
    conv = sum(mobius_trace_sum(s, traces_a) * mobius_trace_sum(t, traces_b) for s, t in index)
    return conv, mobius_trace_sum(n, traces_kron), index


def s_kron_multi_sides(
    trace_list: Sequence[Sequence[int]], traces_kron: Sequence[int], n: int
) -> tuple[int, int, tuple]:
    """sum over k-tuples with lcm n of prod S(s_i; A_i)  vs  S(n; kron of all)."""
    index = tuple(tuples_with_lcm(n, len(trace_list)))
    conv = 0
    for tup in index:
        term = 1
        for s, tr in zip(tup, trace_list):
            term *= mobius_trace_sum(s, tr)
            if term == 0:
                break
        conv += term
    return conv, mobius_trace_sum(n, traces_kron), index


def s_power_sides(
    traces_power: Sequence[int], traces_base: Sequence[int], l: int, n: int
) -> tuple[int, int, tuple]:
    """sum_{lcm(l,t)=n*l} S(t; A)  vs  S(n; A^l)."""
    index = tuple(t for t in divisors(n * l) if l * t // gcd(l, t) == n * l)
    conv = sum(mobius_trace_sum(t, traces_base) for t in index)
    return conv, mobius_trace_sum(n, traces_power), index


def s_mixed_powers_sides(
    traces_a: Sequence[int],
    traces_b: Sequence[int],
    traces_mixed: Sequence[int],
    r: int,
    s: int,
    n: int,
) -> tuple[int, int, tuple]:
    """sum_{lcm(r*p, s*q) = n*r*s} S(p; A) S(q; B)  vs  S(n; A^s kron B^r),
    for coprime r, s."""
    if gcd(r, s) != 1:
        raise ValueError(f"r and s must be coprime, got ({r}, {s})")
    index = tuple(
        (p, q)
        for p in divisors(n * s)
        for q in divisors(n * r)
        if (r * p) * (s * q) // gcd(r * p, s * q) == n * r * s
    )
    conv = sum(mobius_trace_sum(p, traces_a) * mobius_trace_sum(q, traces_b) for p, q in index)
    return conv, mobius_trace_sum(n, traces_mixed), index


def class_kron_pair_sides(
    traces_a: Sequence[int], traces_b: Sequence[int], traces_kron: Sequence[int], n: int
) -> tuple[int, int, tuple]:
    """sum_{lcm(s,t)=n} gcd(s,t) c(s; A) c(t; B)  vs  c(n; A kron B) for the
    class counts c."""
    index = pairs_with_lcm(n)
    conv = sum(
        gcd(s, t) * cycle_class_count(s, traces_a) * cycle_class_count(t, traces_b)
        for s, t in index
    )
    return conv, cycle_class_count(n, traces_kron), index


def class_power_sides(
    traces_power: Sequence[int], traces_base: Sequence[int], l: int, n: int
) -> tuple[int, int, tuple]:
    """sum_{lcm(l,t)=n*l} (t/n) c(t; A)  vs  c(n; A^l); every admissible t is
    a multiple of n."""
    index = tuple(t for t in divisors(n * l) if l * t // gcd(l, t) == n * l)
    conv = 0
    for t in index:
        if t % n:
            raise ExactnessError(f"lcm index t={t} is not a multiple of n={n}")
        conv += (t // n) * cycle_class_count(t, traces_base)
    return conv, cycle_class_count(n, traces_power), index


def class_mixed_powers_sides(
    traces_a: Sequence[int],
    traces_b: Sequence[int],
    traces_mixed: Sequence[int],
    r: int,
    s: int,
    n: int,
) -> tuple[int, int, tuple]:
    """sum over {p, q : p*q*d = n*gcd(p*r, q*s)} of gcd(r*p, s*q) c(p; A) c(q; B)
    vs  d * c(n; A^(s/d) kron B^(r/d)), where d = gcd(r, s).

    The constraint bounds p <= n*s/d and q <= n*r/d, so the index set is
    enumerated by scanning those ranges and filtering.
    """
    d = gcd(r, s)
    index = tuple(
        (p, q)
        for p in range(1, n * s // d + 1)
        for q in range(1, n * r // d + 1)
        if p * q * d == n * gcd(p * r, q * s)
    )
    conv = sum(
        gcd(r * p, s * q) * cycle_class_count(p, traces_a) * cycle_class_count(q, traces_b)
        for p, q in index
    )
    return conv, d * cycle_class_count(n, traces_mixed), index


IDENTITY_TOKENS = (
    "s-kron",
    "s-kron-multi",
    "s-power",
    "s-mixed-powers",
    "class-kron",
    "class-power",
    "class-mixed-powers",
)


def verify_identity(
    identity: str,
    params: Mapping[str, Any],
    max_dim: int = DEFAULT_LIMITS.max_matrix_dim,
) -> IdentityReport:
    """Check one convolution identity on concrete matrices.

    The composite side always powers/products the actual matrices and takes
    traces from them; the convolution side only sees the factor traces. The
    two routes share nothing, so agreement is informative.

    Expected params per identity:
      s-kron, class-kron:                 t1, t2, n
      s-kron-multi:                       factors (sequence of matrices), n
      s-power, class-power:               t, l, n
      s-mixed-powers, class-mixed-powers: t1, t2, r, s, n
    """
    n = int(params["n"])
    if identity in ("s-kron", "class-kron"):
        t1, t2 = params["t1"], params["t2"]
        kron = kronecker(t1, t2, max_dim=max_dim)
        tr1, tr2 = trace_powers(t1, n), trace_powers(t2, n)
        trk = trace_powers(kron, n)
        sides = s_kron_pair_sides if identity == "s-kron" else class_kron_pair_sides
        conv, comp, index = sides(tr1, tr2, trk, n)
        summary = {"n": n, "dims": (t1.dim, t2.dim)}
    elif identity == "s-kron-multi":
        factors: Sequence[IntMatrix] = params["factors"]
        if not factors:
            raise ValueError("s-kron-multi needs at least one factor")
        kron = factors[0]
        for f in factors[1:]:
            kron = kronecker(kron, f, max_dim=max_dim)
        trs = [trace_powers(f, n) for f in factors]
        conv, comp, index = s_kron_multi_sides(trs, trace_powers(kron, n), n)
        summary = {"n": n, "dims": tuple(f.dim for f in factors)}
    elif identity in ("s-power", "class-power"):
        t, l = params["t"], int(params["l"])
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        power = mat_pow(t, l)
        sides = s_power_sides if identity == "s-power" else class_power_sides
        conv, comp, index = sides(trace_powers(power, n), trace_powers(t, n * l), l, n)
        summary = {"n": n, "l": l, "dims": (t.dim,)}
    elif identity in ("s-mixed-powers", "class-mixed-powers"):
        t1, t2 = params["t1"], params["t2"]
        r, s = int(params["r"]), int(params["s"])
        if r < 1 or s < 1:
            raise ValueError(f"r and s must be >= 1, got ({r}, {s})")
        d = gcd(r, s)
        if identity == "s-mixed-powers":
            if d != 1:
                raise ValueError(f"r and s must be coprime, got ({r}, {s})")
            mixed = kronecker(mat_pow(t1, s), mat_pow(t2, r), max_dim=max_dim)
            conv, comp, index = s_mixed_powers_sides(
                trace_powers(t1, n * s), trace_powers(t2, n * r), trace_powers(mixed, n), r, s, n
            )
        else:
            mixed = kronecker(mat_pow(t1, s // d), mat_pow(t2, r // d), max_dim=max_dim)
            conv, comp, index = class_mixed_powers_sides(
                trace_powers(t1, n * s // d),
                trace_powers(t2, n * r // d),
                trace_powers(mixed, n),
                r,
                s,
                n,
            )
        summary = {"n": n, "r": r, "s": s, "dims": (t1.dim, t2.dim)}
    else:
        raise ValueError(f"unknown identity {identity!r}; expected one of {IDENTITY_TOKENS}")

    return IdentityReport(identity, summary, conv, comp, index)
