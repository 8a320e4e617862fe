import pytest
from hypothesis import given, settings

from strategies import binary_matrices, paired_binary_matrices
from wittcycles import (
    CapExceeded,
    DetPolynomial,
    ExactnessError,
    IntMatrix,
    det_poly_direct,
    det_poly_from_traces,
    kronecker,
    mat_mul,
    mat_pow,
    trace_powers,
)
from wittcycles.matrices import _interpolate


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_mat_mul_identity(corpus_matrices):
    t = corpus_matrices["theta"]
    assert mat_mul(IntMatrix.identity(t.dim), t) == t
    assert mat_mul(t, IntMatrix.identity(t.dim)) == t


def test_mat_mul_scalar_case():
    assert mat_mul(IntMatrix.from_rows([[3]]), IntMatrix.from_rows([[4]])) == (
        IntMatrix.from_rows([[12]])
    )


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(IntMatrix.identity(2), IntMatrix.identity(3))


def test_theta_matrix_squared_trace(corpus_matrices):
    t = corpus_matrices["theta"]
    assert mat_mul(t, t).trace() == 12


def test_trace_powers_rose2(corpus_matrices):
    assert trace_powers(corpus_matrices["rose2"], 3) == (4, 12, 28)


def test_trace_powers_theta(corpus_matrices):
    assert trace_powers(corpus_matrices["theta"], 4) == (0, 12, 0, 36)


def test_trace_powers_rose3_closed_form(corpus_matrices):
    # 3 + 2*(-1)^N + 5^N, checked by explicit matrix powers.
    got = trace_powers(corpus_matrices["rose3"], 6)
    assert got[2] == 126
    assert got == tuple(3 + 2 * (-1) ** n + 5**n for n in range(1, 7))


def test_mat_pow_additivity(corpus_matrices):
    t = corpus_matrices["rose2"]
    assert mat_pow(t, 5) == mat_mul(mat_pow(t, 2), mat_pow(t, 3))
    assert mat_pow(t, 0) == IntMatrix.identity(t.dim)


def test_kronecker_unit_and_scalars(corpus_matrices):
    t = corpus_matrices["rose2"]
    assert kronecker(t, IntMatrix.from_rows([[1]])) == t
    assert kronecker(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])) == (
        IntMatrix.from_rows([[6]])
    )


def test_kronecker_cap():
    with pytest.raises(CapExceeded):
        kronecker(IntMatrix.identity(9), IntMatrix.identity(9), max_dim=64)


@given(binary_matrices(), binary_matrices())
def test_kronecker_trace_multiplicativity(a, b):
    k_max = 6
    lhs = trace_powers(kronecker(a, b), k_max)
    tr_a, tr_b = trace_powers(a, k_max), trace_powers(b, k_max)
    assert lhs == tuple(x * y for x, y in zip(tr_a, tr_b))


def test_det_poly_rose2(corpus_matrices):
    t = corpus_matrices["rose2"]
    expected = (1, -4, 2, 4, -3)
    assert det_poly_from_traces(trace_powers(t, t.dim), t.dim).coefficients == expected
    assert det_poly_direct(t).coefficients == expected


def test_det_poly_theta(corpus_matrices):
    t = corpus_matrices["theta"]
    expected = (1, 0, -6, 0, 9, 0, -4)
    assert det_poly_from_traces(trace_powers(t, t.dim), t.dim).coefficients == expected
    assert det_poly_direct(t).coefficients == expected


def test_det_poly_zero_matrix():
    z = IntMatrix.from_rows([[0, 0], [0, 0]])
    assert det_poly_from_traces(trace_powers(z, 2), 2).coefficients == (1,)
    assert det_poly_direct(z).coefficients == (1,)


@pytest.mark.parametrize("c", [-3, 0, 1, 7])
def test_det_poly_scalar(c):
    m = IntMatrix.from_rows([[c]])
    expected = (1,) if c == 0 else (1, -c)
    assert det_poly_direct(m).coefficients == expected


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_det_poly_rose_product_form(r):
    """det(1 - zT) for the rose graph equals (1-z)(1-(2r-1)z)(1-z^2)^(r-1),
    expanded here with an independent polynomial multiplier."""
    from wittcycles import build_edge_matrix, rose, symmetrize

    t = build_edge_matrix(symmetrize(rose(r)))
    expected = poly_mul([1, -1], [1, -(2 * r - 1)])
    for _ in range(r - 1):
        expected = poly_mul(expected, [1, 0, -1])
    assert list(det_poly_direct(t).coefficients) == expected
    assert list(det_poly_from_traces(trace_powers(t, t.dim), t.dim).coefficients) == expected


@settings(max_examples=50)
@given(paired_binary_matrices())
def test_det_routes_agree(m):
    assert det_poly_direct(m) == det_poly_from_traces(trace_powers(m, m.dim), m.dim)


def test_det_routes_agree_on_corpus(corpus_matrices):
    for t in corpus_matrices.values():
        assert det_poly_direct(t) == det_poly_from_traces(trace_powers(t, t.dim), t.dim)


def test_det_from_traces_rejects_inconsistent_input():
    with pytest.raises(ExactnessError):
        det_poly_from_traces([1, 2], 2)  # no integer matrix has these traces


def test_det_polynomial_accessors():
    p = DetPolynomial((1, -4, 2, 4, -3))
    assert p.degree == 4
    assert p.coefficient(2) == 2
    assert p.coefficient(9) == 0
    assert p.negated_tail(6) == (4, -2, -4, 3, 0, 0)
    with pytest.raises(ValueError):
        DetPolynomial((2, 1))


def test_interpolate_integer_polynomial():
    # 1 + z + z^2 at z = 0, 1, 2, and -2z^3 + 5 at z = 0..3.
    assert _interpolate([1, 3, 7]) == [1, 1, 1]
    assert _interpolate([5, 3, -11, -49]) == [5, 0, 0, -2]
    assert _interpolate([4]) == [4]


@pytest.mark.parametrize("values", [[0, 0, 1], [0, 1, 0, 0]])
def test_interpolate_rejects_non_integral_difference(values):
    # z(z - 1)/2 and z(z - 2)(z - 3)/2 take integer values on the nodes but
    # have non-integral coefficients.
    with pytest.raises(ExactnessError):
        _interpolate(values)
