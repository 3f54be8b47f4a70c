import math

import numpy as np
import pytest

from polygauss import (
    DimensionMismatch,
    GaussPoly,
    QuadratureSpec,
    SpdForm,
    SpecRejected,
    compare,
    default_spec,
    finite_difference,
    quad_convolve,
    quad_fourier,
)
from polygauss.testing import random_gauss_poly


def gaussian():
    return GaussPoly.standard(1)


# ---------------------------------------------------------------------------
# quad_fourier


def test_total_mass():
    assert quad_fourier(gaussian(), [0.0]) == pytest.approx(1.0, abs=1e-9)


def test_transform_value_at_one():
    assert quad_fourier(gaussian(), [1.0]) == pytest.approx(math.exp(-math.pi), abs=1e-8)


def test_monomial_closed_form_cross_check():
    f = gaussian().monomial_times((1,))
    expect = -0.5j * math.exp(-math.pi / 4.0)
    assert quad_fourier(f, [0.5]) == pytest.approx(expect, abs=1e-7)


def test_linearity_of_quadrature(rng):
    f = random_gauss_poly(rng, 1, n_terms=1, max_degree=2)
    g = random_gauss_poly(rng, 1, n_terms=1, max_degree=2)
    xi = [0.4]
    spec = default_spec(f + g)
    lhs = quad_fourier(f + g, xi, spec)
    rhs = quad_fourier(f, xi, spec) + quad_fourier(g, xi, spec)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_doubling_points_is_a_plateau(rng):
    f = random_gauss_poly(rng, 1, n_terms=2, max_degree=2)
    spec = default_spec(f)
    fine = QuadratureSpec(1, spec.half_width, 2 * spec.points_per_axis)
    for xi in ([0.0], [0.7], [-1.2]):
        a = quad_fourier(f, xi, spec)
        b = quad_fourier(f, xi, fine)
        assert abs(a - b) < 1e-9


def test_default_box_from_smallest_eigenvalue(rng):
    # half-width 6 / sqrt(lambda_min) over the terms, as documented
    for dim in (1, 2, 3):
        f = random_gauss_poly(rng, dim, n_terms=2, eig_range=(0.1, 50.0))
        lam_min = min(float(np.linalg.eigvalsh(t.quad.entries)[0]) for t in f.terms)
        assert default_spec(f).half_width == pytest.approx(6.0 / math.sqrt(lam_min), rel=1e-12)


def test_spec_rejected_when_box_too_small():
    with pytest.raises(SpecRejected):
        quad_fourier(gaussian(), [0.0], QuadratureSpec(1, 1.0, 50))


def test_spec_rejected_for_wild_imaginary_frequency():
    with pytest.raises(SpecRejected):
        quad_fourier(gaussian(), [8.0j])


def test_small_imaginary_frequency_is_fine():
    value = quad_fourier(gaussian(), [0.5j])
    assert value == pytest.approx(math.exp(math.pi / 4.0), rel=1e-8)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        quad_fourier(gaussian(), [0.0, 1.0])
    with pytest.raises(SpecRejected):
        QuadratureSpec(4, 6.0, 40)


def test_dimension_beyond_the_oracle_reach_is_refused():
    g4 = GaussPoly.standard(4)
    with pytest.raises(SpecRejected, match=r"^quadrature supports dim 1\.\.3, got 4$"):
        default_spec(g4)
    with pytest.raises(SpecRejected, match=r"^quadrature supports dim 1\.\.3, got 4$"):
        quad_fourier(g4, np.zeros(4))


def test_zero_function_integral_is_zero():
    assert quad_fourier(GaussPoly.zero(1), [0.3]) == 0


def test_oracle_agrees_with_closed_forms_on_worked_corpus():
    from polygauss import fourier_transform

    corpus = [
        GaussPoly.standard(1),
        GaussPoly.standard(1).monomial_times((1,)),
        GaussPoly.gaussian(SpdForm([[1.0]]), shift=[-2.0 * math.pi * 0.8]),
        GaussPoly.gaussian(SpdForm([[4.0, 0.0], [0.0, 1.0]])),
        GaussPoly.standard(2).monomial_times((1, 1)),
    ]
    freqs = {1: ([0.0], [0.5], [-1.0]), 2: ([0.0, 0.0], [0.5, -0.5], [1.0, 0.25])}
    for f in corpus:
        fhat = fourier_transform(f)
        for xi in freqs[f.dim]:
            assert abs(fhat.evaluate(xi) - quad_fourier(f, xi)) <= 1e-6


# ---------------------------------------------------------------------------
# quad_convolve


def test_gaussian_convolution_value():
    assert quad_convolve(gaussian(), gaussian(), [0.0]) == pytest.approx(
        2.0 ** -0.5, abs=1e-7
    )


def test_convolution_symmetry(rng):
    f = random_gauss_poly(rng, 1, n_terms=1, max_degree=1)
    g = random_gauss_poly(rng, 1, n_terms=1, max_degree=1)
    lhs = quad_convolve(f, g, [0.0])
    rhs = quad_convolve(g, f, [0.0])
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_convolution_with_zero_is_exactly_zero():
    assert quad_convolve(gaussian(), GaussPoly.zero(1), [0.7]) == 0


def test_convolution_rejects_high_dimension():
    g3 = GaussPoly.standard(3)
    with pytest.raises(SpecRejected):
        quad_convolve(g3, g3, np.zeros(3))


# ---------------------------------------------------------------------------
# finite_difference


def test_even_function_has_flat_center():
    assert abs(finite_difference(gaussian(), 0, [0.0], 1e-5)) <= 1e-10


def test_gaussian_slope_at_one():
    expect = -2.0 * math.pi * math.exp(-math.pi)
    assert finite_difference(gaussian(), 0, [1.0], 1e-5) == pytest.approx(expect, abs=1e-6)


def test_product_rule_at_zero():
    f = gaussian().monomial_times((1,))
    assert finite_difference(f, 0, [0.0], 1e-5) == pytest.approx(1.0, abs=1e-8)


def test_step_must_be_positive():
    with pytest.raises(ValueError):
        finite_difference(gaussian(), 0, [0.0], 0.0)


# ---------------------------------------------------------------------------
# compare


def test_compare_passes_within_tolerance():
    assert compare(1.0, 1.0 + 1e-12, 1e-9, 1e-9).passed


def test_compare_fails_and_reports_residual():
    result = compare(1.0, 1.1, 1e-9, 1e-9)
    assert not result.passed
    assert result.residual == pytest.approx(0.1)


def test_compare_absolute_floor():
    assert compare(0.0, 1e-10, 1e-9, 1e-9).passed


def test_compare_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        compare(1.0, 1.0, 0.0, 1e-9)


# ---------------------------------------------------------------------------
# fourier_values


@pytest.mark.parametrize("dim, points", [(1, 200), (2, 60), (3, 16)])
def test_fourier_values_match_quad_fourier(dim, points):
    from polygauss.quadrature import fourier_values

    rng = np.random.default_rng(11 + dim)
    f = random_gauss_poly(rng, dim, n_terms=2, shift_scale=0.5)
    spec = QuadratureSpec(dim, default_spec(f).half_width, points)
    xis = [rng.normal(size=dim) + 0.05j * rng.normal(size=dim) for _ in range(3)]
    values = fourier_values(f, xis, spec)
    assert len(values) == 3
    for xi, value in zip(xis, values):
        expect = quad_fourier(f, xi, spec)
        assert abs(value - expect) <= 1e-14 * abs(expect)


def test_fourier_values_check_every_frequency():
    from polygauss.quadrature import fourier_values

    assert fourier_values(GaussPoly.zero(1), [[0.1], [0.2]]) == [0j, 0j]
    with pytest.raises(DimensionMismatch):
        fourier_values(gaussian(), [[0.0], [0.0, 1.0]])
    # the second frequency's imaginary part makes the tail too heavy
    with pytest.raises(SpecRejected):
        fourier_values(gaussian(), [[0.0], [5j]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: QuadratureSpec(1, 0.0, 10), SpecRejected, "half_width must be positive"),
        (lambda: QuadratureSpec(1, 1.0, 0), SpecRejected, "points_per_axis must be positive"),
        (lambda: QuadratureSpec(1, 1.0, 10).check_tail(0.0), SpecRejected, "no certified"),
        (lambda: default_spec(GaussPoly.zero(1)), SpecRejected, "the zero function"),
        (lambda: quad_fourier(gaussian(), [0.0], QuadratureSpec(2, 5.0, 10)),
         DimensionMismatch, "spec dimension"),
        (lambda: quad_convolve(gaussian(), gaussian(), [0.0], QuadratureSpec(2, 5.0, 10)),
         DimensionMismatch, "spec dimension"),
        (lambda: compare(1, 1, 0.0, 1e-9), ValueError, "tolerances must be positive"),
    ],
    ids=["zero-width", "no-points", "no-decay", "zero-function", "fourier-spec-dim",
         "convolve-spec-dim", "zero-tolerance"],
)
def test_malformed_specs_and_tolerances_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
