"""Truncated formal power series over exact rationals.

Everything is truncated at a fixed order K and never reads beyond it, so all
identities asserted elsewhere are congruences mod z^(K+1). exp and log use
the derivative recurrences; there are no convergence questions and equality
tests are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ExactnessError

_SIGNS = {"plus": 1, "minus": -1}


def sign_value(sign: str) -> int:
    """Map 'plus'/'minus' to +1/-1."""
    try:
        return _SIGNS[sign]
    except KeyError:
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}") from None


@dataclass(frozen=True)
class TruncSeries:
    """Coefficients c_0..c_K of a power series truncated at order K."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("series needs at least the constant coefficient")

    @classmethod
    def from_coefficients(cls, values: Sequence[int | Fraction], order: int) -> "TruncSeries":
        """Build from c_0, c_1, ... padding with zeros (or truncating) to order."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        coeffs = [Fraction(v) for v in values[: order + 1]]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.from_coefficients([1], order)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls.from_coefficients([], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i]

    def integer_coefficients(self) -> tuple[int, ...]:
        """All coefficients as ints; raises if any is non-integral."""
        for i, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise ExactnessError(f"coefficient of z^{i} is not integral: {c}")
        return tuple(int(c) for c in self.coeffs)


def _check_orders(a: TruncSeries, b: TruncSeries) -> int:
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    return a.order


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Cauchy product truncated at the common order."""
    k = _check_orders(a, b)
    out = [Fraction(0)] * (k + 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j in range(k + 1 - i):
            y = b.coeffs[j]
            if y != 0:
                out[i + j] += x * y
    return TruncSeries(tuple(out))


def series_inverse(a: TruncSeries) -> TruncSeries:
    """Multiplicative inverse mod z^(K+1); requires a nonzero constant term."""
    if a.coeffs[0] == 0:
        raise ValueError("series with zero constant term has no inverse")
    k = a.order
    inv = [Fraction(0)] * (k + 1)
    inv[0] = 1 / a.coeffs[0]
    for n in range(1, k + 1):
        acc = sum((a.coeffs[j] * inv[n - j] for j in range(1, n + 1)), Fraction(0))
        inv[n] = -acc / a.coeffs[0]
    return TruncSeries(tuple(inv))


def series_log(a: TruncSeries) -> TruncSeries:
    """log(a) for a with constant term 1, via n*g_n = n*a_n - sum k*g_k*a_{n-k}."""
    if a.coeffs[0] != 1:
        raise ValueError("series_log requires constant term 1")
    k = a.order
    g = [Fraction(0)] * (k + 1)
    for n in range(1, k + 1):
        acc = n * a.coeffs[n]
        for j in range(1, n):
            acc -= j * g[j] * a.coeffs[n - j]
        g[n] = acc / n
    return TruncSeries(tuple(g))


def series_exp(a: TruncSeries) -> TruncSeries:
    """exp(a) for a with constant term 0, via n*h_n = sum k*a_k*h_{n-k}."""
    if a.coeffs[0] != 0:
        raise ValueError("series_exp requires constant term 0")
    k = a.order
    h = [Fraction(0)] * (k + 1)
    h[0] = Fraction(1)
    for n in range(1, k + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            if a.coeffs[j] != 0:
                acc += j * a.coeffs[j] * h[n - j]
        h[n] = acc / n
    return TruncSeries(tuple(h))


def _binomial(e: int, j: int) -> int:
    """Generalized binomial coefficient C(e, j) for any integer e, j >= 0."""
    num = 1
    for step in range(j):
        num *= e - step
    den = 1
    for step in range(2, j + 1):
        den *= step
    q, r = divmod(num, den)
    if r:
        raise ExactnessError(f"binomial C({e}, {j}) is not integral: {num} / {den}")
    return q


def one_minus_power(step: int, exponent: int, order: int) -> TruncSeries:
    """(1 - z^step)^exponent mod z^(order+1) for any integer exponent."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    coeffs = [Fraction(0)] * (order + 1)
    for j in range(order // step + 1):
        coeffs[j * step] = Fraction(_binomial(exponent, j) * (-1) ** j)
    return TruncSeries(tuple(coeffs))


def product_power(exponents: Sequence[int], sign: str) -> TruncSeries:
    """prod_{N=1..K} (1 - z^N)^(sigma * e_N) truncated at K = len(exponents).

    Multiplies integer coefficient lists in place: the factor for N has only
    the K//N nonzero terms (-1)^j C(sigma*e_N, j) z^(jN) past its constant 1.
    """
    sigma = sign_value(sign)
    order = len(exponents)
    if order < 1:
        raise ValueError("exponent sequence must be nonempty")
    coeffs = [1] + [0] * order
    for n, e in enumerate(exponents, start=1):
        if e == 0:
            continue
        exponent = sigma * e
        # terms[j - 1] = (-1)^j C(exponent, j), built by
        # j*C(x, j) = (x - j + 1)*C(x, j - 1).
        terms = []
        binom = 1
        for j in range(1, order // n + 1):
            binom, rem = divmod(binom * (exponent - j + 1), j)
            if rem:
                raise ExactnessError(f"binomial C({exponent}, {j}) is not integral")
            terms.append(-binom if j % 2 else binom)
        # Top down, so coeffs[i - j*n] still holds the previous product.
        for i in range(order, n - 1, -1):
            acc = coeffs[i]
            for j, term in enumerate(terms[: i // n], start=1):
                acc += term * coeffs[i - j * n]
            coeffs[i] = acc
    return TruncSeries.from_coefficients(coeffs, order)


def trace_gen_function(traces: Sequence[int], order: int) -> TruncSeries:
    """sum_{N=1..K} (trace of T^N / N) z^N from a trace sequence."""
    if len(traces) < order:
        raise ValueError(f"need {order} traces, got {len(traces)}")
    coeffs = [Fraction(0)] + [Fraction(traces[n - 1], n) for n in range(1, order + 1)]
    return TruncSeries(tuple(coeffs))
