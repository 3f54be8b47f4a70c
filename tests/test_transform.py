import cmath
import math

import mpmath
import numpy as np
import pytest

from polygauss import (
    DimensionMismatch,
    GaussPoly,
    GaussTerm,
    Polynomial,
    LinearMap,
    SpdForm,
    coefficient_distance,
    convolve,
    default_spec,
    fourier_transform,
    function_to_json,
    inner_product,
    integral,
    inverse_transform,
    quad_convolve,
    quad_fourier,
    transform_rules_check,
)
from polygauss.quadrature import grid
from polygauss import multiindex as mi
from polygauss.testing import (
    random_gauss_poly,
    random_orthogonal,
    random_points,
    random_shift,
    random_spd_form,
)


# ---------------------------------------------------------------------------
# fourier_transform


def test_standard_gaussian_is_self_dual():
    g = GaussPoly.standard(1)
    assert coefficient_distance(g, fourier_transform(g)) <= 1e-12


def test_matrix_gaussian_closed_form():
    # quad = diag(4, 1): transform is (1/2) exp(-pi (xi1^2/4 + xi2^2))
    f = GaussPoly.gaussian(SpdForm([[4.0, 0.0], [0.0, 1.0]]))
    fhat = fourier_transform(f)
    expect = GaussPoly.gaussian(SpdForm([[0.25, 0.0], [0.0, 1.0]]), coeff=0.5)
    assert coefficient_distance(fhat, expect) <= 1e-12
    # determinant factor against quadrature of the defining integral at 0
    numeric = quad_fourier(f, np.zeros(2))
    assert abs(fhat.evaluate(np.zeros(2)) - numeric) <= 1e-6


def test_monomial_rule_1d():
    f = GaussPoly.standard(1).monomial_times((1,))
    fhat = fourier_transform(f)
    term = fhat.terms[0]
    assert term.poly.coeffs == {(1,): pytest.approx(-1j)}
    for xi in (0.0, 0.5, -0.5, 1.0, -1.0):
        numeric = quad_fourier(f, [xi])
        assert abs(fhat.evaluate([xi]) - numeric) <= 1e-7


def test_high_degree_transform_against_mpmath(rng):
    # degree-12 polynomial, complex shift: the defining integral at 30 digits
    q, b = 1.3, complex(0.4, -0.7)
    coeffs = [complex(rng.normal(), rng.normal()) for _ in range(13)]
    f = GaussPoly(1, (GaussTerm(Polynomial(1, {(k,): c for k, c in enumerate(coeffs)}),
                                SpdForm([[q]]), [b]),))
    fhat = fourier_transform(f)
    mpmath.mp.dps = 30
    for xi in (0.0, 0.35, -0.8, 1.5):
        def integrand(x):
            poly = mpmath.polyval([mpmath.mpc(c.real, c.imag) for c in reversed(coeffs)], x)
            return poly * mpmath.exp(-mpmath.pi * q * x * x + mpmath.mpc(b.real, b.imag) * x
                                     - 2j * mpmath.pi * x * xi)
        exact = complex(mpmath.quad(integrand, [-mpmath.inf, -4, -2, 0, 2, 4, mpmath.inf]))
        assert abs(fhat.evaluate([xi]) - exact) <= 1e-10 * abs(exact)


def test_transform_of_zero():
    assert fourier_transform(GaussPoly.zero(2)).is_zero


def test_transform_agrees_with_quadrature(rng):
    for dim in (1, 2):
        f = random_gauss_poly(rng, dim, n_terms=2, max_degree=2, eig_range=(0.5, 2.0))
        fhat = fourier_transform(f)
        for xi in random_points(rng, 10, dim):
            numeric = quad_fourier(f, xi)
            assert abs(fhat.evaluate(xi) - numeric) <= 1e-6


def test_transform_four_times_is_identity(rng):
    f = random_gauss_poly(rng, 2, n_terms=2, max_degree=3)
    g = f
    for _ in range(4):
        g = fourier_transform(g)
    assert coefficient_distance(f, g) <= 1e-8


def test_self_duality_all_dims():
    for dim in (1, 2, 3):
        g = GaussPoly.standard(dim)
        assert coefficient_distance(g, fourier_transform(g)) <= 1e-12


def test_magnitude_bound_on_real_axis(rng):
    # |Ff(xi)| <= integral |f| for real xi
    f = random_gauss_poly(rng, 1, n_terms=2, max_degree=2)
    fhat = fourier_transform(f)
    spec = default_spec(f)
    pts, wts = grid(spec)
    l1 = float(wts @ np.abs(f.evaluate_many(pts)))
    for xi in random_points(rng, 20, 1, scale=2.0):
        assert abs(fhat.evaluate(xi)) <= l1 + 1e-6


# ---------------------------------------------------------------------------
# inverse_transform


def test_inverse_on_gaussian():
    g = GaussPoly.standard(1)
    assert coefficient_distance(g, inverse_transform(g)) <= 1e-12


def test_inverse_of_forward_monomial_example():
    f = GaussPoly.standard(1).monomial_times((1,))
    assert coefficient_distance(inverse_transform(fourier_transform(f)), f) <= 1e-12


def test_round_trip_random(rng):
    for k in range(10):
        dim = 1 + k % 3
        f = random_gauss_poly(rng, dim, n_terms=2, max_degree=3)
        rt = inverse_transform(fourier_transform(f))
        assert coefficient_distance(f, rt) <= 1e-8


def test_inverse_is_the_forward_transform_of_the_reflection(rng):
    # F^-1 g (x) = F g (-x), to the byte: the inverse term rule at sign +1
    # is the forward one composed with x -> -x
    for k in range(200):
        dim = 1 + k % 3
        g = random_gauss_poly(rng, dim, n_terms=1 + k % 3, max_degree=k % 4)
        reflected = fourier_transform(g).compose_linear(LinearMap(-np.eye(dim)))
        assert function_to_json(inverse_transform(g)) == function_to_json(reflected)


# ---------------------------------------------------------------------------
# integral


def test_unit_gaussian_integral():
    assert integral(GaussPoly.standard(1)) == pytest.approx(1.0)


def test_complex_shift_integral():
    z = 1.0 + 1.0j
    f = GaussPoly.gaussian(SpdForm([[1.0]]), shift=[-2.0 * math.pi * z])
    assert integral(f) == pytest.approx(cmath.exp(math.pi * z * z), rel=1e-12)


def test_odd_integrand_vanishes():
    f = GaussPoly.standard(1).monomial_times((1,))
    assert abs(integral(f)) <= 1e-15


def test_round_trip_and_plancherel_at_degree_twelve_in_three_dimensions(rng):
    # Every monomial of degree <= 12 in 3-D: 455 coefficients.  Plancherel is
    # checked in its polarized form <f, g> = <Ff, Fg> against a low-degree g,
    # which keeps the products small.
    coeffs = {a: complex(rng.normal(), rng.normal()) for a in mi.indices_up_to(3, 12)}
    quad = random_spd_form(rng, 3, (0.7, 1.5))
    f = GaussPoly.from_term(Polynomial(3, coeffs), quad, random_shift(rng, 3, 0.5))
    g = random_gauss_poly(rng, 3, n_terms=2, max_degree=2, eig_range=(0.7, 1.5))
    fhat = fourier_transform(f)
    largest = max(abs(c) for c in f.terms[0].poly.coeffs.values())
    assert coefficient_distance(inverse_transform(fhat), f) <= 1e-9 * largest
    lhs = inner_product(f, g)
    assert abs(inner_product(fhat, fourier_transform(g)) - lhs) <= 1e-9 * abs(lhs)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(Polynomial, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(Polynomial, name, counting)
    return calls


def test_integral_and_inner_product_build_no_transform(rng, monkeypatch):
    # Each term costs one moment smoothing and one evaluation: no substituted
    # polynomial, and no product beyond the one per pair of terms.
    f = random_gauss_poly(rng, 2, n_terms=3, max_degree=4)
    g = random_gauss_poly(rng, 2, n_terms=2, max_degree=3)
    substitutions = _count_calls(monkeypatch, "substitute_affine")
    products = _count_calls(monkeypatch, "__mul__")
    integral(f)
    assert (substitutions, products) == ([], [])
    inner_product(f, g)
    assert substitutions == []
    assert len(products) == len(f.terms) * len(g.terms)


# ---------------------------------------------------------------------------
# inner_product


def test_gaussian_inner_product():
    g = GaussPoly.standard(1)
    value = inner_product(g, g)
    assert value == pytest.approx(2.0 ** -0.5, rel=1e-12)
    numeric = quad_fourier(g * g.conjugate(), [0.0])
    assert abs(value - numeric) <= 1e-7


def test_plancherel(rng):
    for _ in range(10):
        f = random_gauss_poly(rng, 2, n_terms=2, max_degree=2)
        g = random_gauss_poly(rng, 2, n_terms=2, max_degree=2)
        lhs = inner_product(f, g)
        rhs = inner_product(fourier_transform(f), fourier_transform(g))
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_inner_product_conjugate_symmetry(rng):
    f = random_gauss_poly(rng, 1, n_terms=2)
    g = random_gauss_poly(rng, 1, n_terms=2)
    assert inner_product(f, g) == pytest.approx(inner_product(g, f).conjugate(), rel=1e-10)


def test_inner_product_of_f_with_itself_is_positive(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    value = inner_product(f, f)
    assert value.real > 0
    assert abs(value.imag) <= 1e-10 * (1.0 + abs(value))


# ---------------------------------------------------------------------------
# convolve


def test_gaussian_convolution_closed_form():
    g = GaussPoly.standard(1)
    conv = convolve(g, g)
    expect = GaussPoly.gaussian(SpdForm([[0.5]]), coeff=2.0 ** -0.5)
    assert coefficient_distance(conv, expect) <= 1e-12
    for x in (0.0, 1.0):
        numeric = quad_convolve(g, g, [x])
        assert abs(conv.evaluate([x]) - numeric) <= 1e-7


def test_convolution_commutes(rng):
    f = random_gauss_poly(rng, 1, n_terms=2, max_degree=2)
    g = random_gauss_poly(rng, 1, n_terms=2, max_degree=2)
    assert coefficient_distance(convolve(f, g), convolve(g, f)) <= 1e-8


def test_convolution_associates(rng):
    f = random_gauss_poly(rng, 1, n_terms=1, max_degree=1, eig_range=(0.7, 1.5))
    g = random_gauss_poly(rng, 1, n_terms=1, max_degree=1, eig_range=(0.7, 1.5))
    h = random_gauss_poly(rng, 1, n_terms=1, max_degree=1, eig_range=(0.7, 1.5))
    lhs = convolve(convolve(f, g), h)
    rhs = convolve(f, convolve(g, h))
    assert coefficient_distance(lhs, rhs) <= 1e-8


def test_convolution_theorem_both_directions(rng):
    f = random_gauss_poly(rng, 1, n_terms=2, max_degree=1)
    g = random_gauss_poly(rng, 1, n_terms=2, max_degree=1)
    # forward: F(f*g) = Ff . Fg
    lhs = fourier_transform(convolve(f, g))
    rhs = fourier_transform(f) * fourier_transform(g)
    assert coefficient_distance(lhs, rhs) <= 1e-8
    # backward: the inverse transform of a spectral convolution is the
    # product of the inverse transforms
    lhs = inverse_transform(convolve(f, g))
    rhs = inverse_transform(f) * inverse_transform(g)
    assert coefficient_distance(lhs, rhs) <= 1e-8


# ---------------------------------------------------------------------------
# transform_rules_check


def test_rules_on_gaussian_first_derivative():
    g = GaussPoly.standard(1)
    report = transform_rules_check(
        g, (1,), np.zeros(1), np.zeros(1), LinearMap.identity(1)
    )
    assert report.derivative <= 1e-12
    # both routes equal 2 pi i xi exp(-pi xi^2)
    lhs = fourier_transform(g.differentiate((1,)))
    assert lhs.terms[0].poly.coeffs == {(1,): pytest.approx(2j * math.pi)}


def test_rules_identity_arguments_are_exact(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    report = transform_rules_check(
        f, (0, 0), np.zeros(2), np.zeros(2), LinearMap.identity(2)
    )
    assert report.derivative == 0.0
    assert report.translation == 0.0
    assert report.modulation == 0.0
    assert report.change_of_variables == 0.0


def test_rules_orthogonal_map(rng):
    # for orthogonal T the frequency-side map equals T itself
    f = random_gauss_poly(rng, 2, n_terms=2, max_degree=2)
    t = LinearMap(random_orthogonal(rng, 2))
    lhs = fourier_transform(f.compose_linear(t))
    rhs = fourier_transform(f).compose_linear(t)
    assert coefficient_distance(lhs, rhs) <= 1e-9


def test_rules_random_instance(rng):
    f = random_gauss_poly(rng, 2, n_terms=2, max_degree=2)
    report = transform_rules_check(
        f,
        (1, 1),
        np.array([0.3 - 0.2j, 0.1]),
        np.array([-0.4, 0.2 + 0.1j]),
        LinearMap(random_orthogonal(rng, 2) @ np.diag([1.3, 0.8])),
    )
    assert report.max_residual() <= 1e-9


def test_rule_check_report_as_dict(rng):
    f = random_gauss_poly(rng, 1, n_terms=2)
    report = transform_rules_check(
        f, (1,), np.array([0.3]), np.array([0.2]), LinearMap([[1.5]])
    )
    assert report.as_dict() == {
        "derivative": report.derivative,
        "translation": report.translation,
        "modulation": report.modulation,
        "change_of_variables": report.change_of_variables,
    }
    assert max(report.as_dict().values()) == report.max_residual()


@pytest.mark.parametrize("op", [inner_product, convolve], ids=["inner-product", "convolve"])
def test_functions_of_different_dimensions_are_refused(op):
    with pytest.raises(DimensionMismatch, match="function dimensions differ"):
        op(GaussPoly.standard(1), GaussPoly.standard(2))
