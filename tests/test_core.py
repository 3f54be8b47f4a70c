import cmath
import math
import warnings

import numpy as np
import pytest

from polygauss import (
    DimensionMismatch,
    GaussPoly,
    GaussTerm,
    LinearMap,
    Polynomial,
    RangeError,
    SingularMap,
    SpdForm,
    coefficient_distance,
)
from polygauss.testing import random_gauss_poly, random_invertible_map, random_points


def gaussian_1d():
    return GaussPoly.standard(1)


# ---------------------------------------------------------------------------
# canonicalize


def test_canonical_merges_duplicate_terms():
    g = gaussian_1d()
    doubled = GaussPoly(1, g.terms + g.terms).canonical()
    assert len(doubled.terms) == 1
    assert doubled.terms[0].poly.coeffs[(0,)] == pytest.approx(2.0)


def test_canonical_cancels_to_empty():
    g = gaussian_1d()
    diff = (g + (-1.0) * g).canonical()
    assert diff.is_zero
    assert diff.evaluate([0.3]) == 0


def test_canonical_merges_perturbed_keys(rng):
    # quads differing by 1e-15 merge; evaluation agrees with the two-term
    # original (the direct-evaluation oracle) at 10 random points.
    quad_a = SpdForm([[1.0]])
    quad_b = SpdForm([[1.0 + 1e-15]])
    t1 = GaussTerm(Polynomial.constant(1, 1.0), quad_a, [0.0])
    t2 = GaussTerm(Polynomial.constant(1, 0.5), quad_b, [0.0])
    raw = GaussPoly(1, (t1, t2))
    merged = raw.canonical()
    assert len(merged.terms) == 1
    scale = abs(raw.evaluate([0.0]))
    for x in random_points(rng, 10, 1):
        direct = t1.poly.evaluate(x) * math.exp(-math.pi * x[0] ** 2) + t2.poly.evaluate(
            x
        ) * math.exp(-(math.pi * (1 + 1e-15)) * x[0] ** 2)
        assert abs(merged.evaluate(x) - direct) <= 1e-12 * scale


def test_canonical_is_deterministic(rng):
    f = random_gauss_poly(rng, 2, n_terms=3)
    shuffled = GaussPoly(2, f.terms[::-1]).canonical()
    assert coefficient_distance(f, shuffled) == 0.0


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_at_zero():
    assert gaussian_1d().evaluate([0.0]) == pytest.approx(1.0)


def test_evaluate_holomorphic_extension():
    # exponent -pi*(i*i) = +pi, checked against the scalar exponential
    value = gaussian_1d().evaluate([1j])
    assert value == pytest.approx(cmath.exp(math.pi))


def test_evaluate_monomial_term():
    f = GaussPoly.standard(2).monomial_times((1, 0))
    assert f.evaluate([2.0, 0.0]) == pytest.approx(2.0 * math.exp(-4.0 * math.pi))


def test_evaluate_dimension_check():
    with pytest.raises(DimensionMismatch):
        gaussian_1d().evaluate([0.0, 1.0])


# ---------------------------------------------------------------------------
# multiply


def test_multiply_doubles_quad():
    g = gaussian_1d()
    prod = g * g
    assert len(prod.terms) == 1
    assert prod.terms[0].quad.entries[0, 0] == pytest.approx(2.0)


def test_multiply_monomials_add_degree():
    xg = gaussian_1d().monomial_times((1,))
    sq = xg * xg
    assert list(sq.terms[0].poly.coeffs) == [(2,)]


def test_multiply_is_pointwise(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    g = random_gauss_poly(rng, 2, n_terms=2)
    prod = f * g
    for z in random_points(rng, 10, 2):
        expect = f.evaluate(z) * g.evaluate(z)
        assert abs(prod.evaluate(z) - expect) <= 1e-10 * max(1.0, abs(expect))


# ---------------------------------------------------------------------------
# conjugate


def test_conjugate_coefficients():
    f = 1j * gaussian_1d()
    assert f.conjugate().terms[0].poly.coeffs[(0,)] == pytest.approx(-1j)


def test_conjugate_shift():
    f = GaussPoly.gaussian(SpdForm([[1.0]]), shift=[1.0 + 2.0j])
    assert f.conjugate().terms[0].shift[0] == pytest.approx(1.0 - 2.0j)


def test_conjugate_matches_pointwise_on_reals(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    conj = f.conjugate()
    for x in random_points(rng, 10, 2):
        assert abs(conj.evaluate(x) - f.evaluate(x).conjugate()) <= 1e-12


def test_conjugate_is_involution(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    assert coefficient_distance(f, f.conjugate().conjugate()) <= 1e-12


# ---------------------------------------------------------------------------
# translate


def test_translate_by_zero_is_identity(rng):
    f = random_gauss_poly(rng, 2)
    assert coefficient_distance(f, f.translate(np.zeros(2))) == 0.0


def test_translate_completes_the_square():
    # f(x-1) for the standard Gaussian: exp(-pi) * exp(-pi x^2 + 2 pi x)
    g = gaussian_1d().translate([1.0])
    term = g.terms[0]
    assert term.poly.coeffs[(0,)] == pytest.approx(math.exp(-math.pi))
    assert term.shift[0] == pytest.approx(2.0 * math.pi)
    assert g.evaluate([0.0]) == pytest.approx(math.exp(-math.pi))
    assert g.evaluate([1.0]) == pytest.approx(1.0)


def test_translate_pointwise_complex(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    a = np.array([0.4 - 0.2j, -0.1 + 0.3j])
    shifted = f.translate(a)
    for z in random_points(rng, 10, 2, complex_parts=True):
        expect = f.evaluate(z - a)
        assert abs(shifted.evaluate(z) - expect) <= 1e-10 * max(1.0, abs(expect))


def test_translate_group_law(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    a = np.array([0.3, -0.7 + 0.1j])
    b = np.array([-0.5 + 0.2j, 0.4])
    chained = f.translate(a).translate(b)
    direct = f.translate(a + b)
    assert coefficient_distance(chained, direct) <= 1e-9


# ---------------------------------------------------------------------------
# modulate


def test_modulate_by_zero_is_identity(rng):
    f = random_gauss_poly(rng, 1)
    assert coefficient_distance(f, f.modulate([0.0])) == 0.0


def test_modulate_writes_shift():
    f = gaussian_1d().modulate([1.0])
    assert f.terms[0].shift[0] == pytest.approx(-2j * math.pi)


def test_modulate_pointwise(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    b = rng.normal(size=2)
    mod = f.modulate(b)
    for x in random_points(rng, 10, 2):
        expect = f.evaluate(x) * cmath.exp(-2j * math.pi * float(x @ b))
        assert abs(mod.evaluate(x) - expect) <= 1e-10 * max(1.0, abs(expect))


# ---------------------------------------------------------------------------
# differentiate


def test_differentiate_zero_order(rng):
    f = random_gauss_poly(rng, 2)
    assert coefficient_distance(f, f.differentiate((0, 0))) == 0.0


def test_differentiate_gaussian():
    d = gaussian_1d().differentiate((1,))
    assert d.terms[0].poly.coeffs == {(1,): pytest.approx(-2.0 * math.pi)}


def test_differentiate_matches_finite_differences(rng):
    from polygauss import finite_difference

    for _ in range(5):
        f = random_gauss_poly(rng, 2, n_terms=2)
        axis = int(rng.integers(0, 2))
        alpha = tuple(1 if j == axis else 0 for j in range(2))
        sym = f.differentiate(alpha)
        for x in random_points(rng, 5, 2):
            fd = finite_difference(f, axis, x, 1e-5)
            s = sym.evaluate(x)
            assert abs(s - fd) <= 1e-6 * (1.0 + abs(s))


def test_mixed_partials_commute(rng):
    f = random_gauss_poly(rng, 3, n_terms=2)
    both = f.differentiate((1, 1, 0))
    ab = f.differentiate((1, 0, 0)).differentiate((0, 1, 0))
    ba = f.differentiate((0, 1, 0)).differentiate((1, 0, 0))
    assert coefficient_distance(both, ab) <= 1e-12
    assert coefficient_distance(ab, ba) <= 1e-12


# ---------------------------------------------------------------------------
# monomial_times


def test_monomial_times_identity(rng):
    f = random_gauss_poly(rng, 2)
    assert coefficient_distance(f, f.monomial_times((0, 0))) == 0.0


def test_monomial_times_square():
    f = gaussian_1d().monomial_times((2,))
    assert list(f.terms[0].poly.coeffs) == [(2,)]


def test_monomial_times_pointwise(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    alpha = (1, 2)
    g = f.monomial_times(alpha)
    for x in random_points(rng, 10, 2):
        expect = f.evaluate(x) * x[0] * x[1] ** 2
        assert abs(g.evaluate(x) - expect) <= 1e-12 * max(1.0, abs(expect))


# ---------------------------------------------------------------------------
# compose_linear


def test_compose_identity(rng):
    f = random_gauss_poly(rng, 2)
    assert coefficient_distance(f, f.compose_linear(LinearMap.identity(2))) == 0.0


def test_compose_negation_flips_odd_function():
    f = gaussian_1d().monomial_times((1,))
    flipped = f.compose_linear(LinearMap([[-1.0]]))
    assert coefficient_distance(flipped, (-1.0) * f) <= 1e-12


def test_compose_pointwise(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    t = random_invertible_map(rng, 2)
    g = f.compose_linear(t)
    for x in random_points(rng, 10, 2):
        expect = f.evaluate(t.apply(x))
        assert abs(g.evaluate(x) - expect) <= 1e-9 * max(1.0, abs(expect))


def test_compose_rejects_singular(rng):
    f = random_gauss_poly(rng, 2)
    with pytest.raises(SingularMap):
        f.compose_linear(LinearMap([[1.0, 1.0], [1.0, 1.0]]))


def test_compose_law(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    t = random_invertible_map(rng, 2)
    s = random_invertible_map(rng, 2)
    lhs = f.compose_linear(t).compose_linear(s)
    rhs = f.compose_linear(LinearMap(t.entries @ s.entries))
    assert coefficient_distance(lhs, rhs) <= 1e-9


# ---------------------------------------------------------------------------
# structural invariants


def test_closure_keeps_spd_terms(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    g = random_gauss_poly(rng, 2, n_terms=2)
    for result in (
        f * g,
        f + g,
        f.translate([0.2, -0.4]),
        f.differentiate((1, 1)),
        f.compose_linear(random_invertible_map(rng, 2)),
    ):
        for t in result.terms:
            # re-validating the entries is the SPD closure check
            SpdForm(t.quad.entries)
            assert t.poly


def test_linearity_of_evaluation(rng):
    f = random_gauss_poly(rng, 2, n_terms=2)
    g = random_gauss_poly(rng, 2, n_terms=2)
    total = f + g
    for z in random_points(rng, 10, 2, complex_parts=True):
        expect = f.evaluate(z) + g.evaluate(z)
        assert abs(total.evaluate(z) - expect) <= 1e-12 * max(1.0, abs(expect))


def test_zero_function_everywhere():
    zero = GaussPoly.zero(3)
    assert zero.is_zero
    assert zero.evaluate([1.0, 2.0, 3.0]) == 0
    assert (zero * GaussPoly.standard(3)).is_zero
    assert zero.translate(np.zeros(3)).is_zero
    assert zero.differentiate((1, 0, 0)).is_zero


def test_coefficient_distance_reports_unmatched_mass():
    g = gaussian_1d()
    wide = GaussPoly.gaussian(SpdForm([[2.0]]))
    assert coefficient_distance(g, g + wide) == pytest.approx(1.0)


def test_immutability_of_arrays(rng):
    f = random_gauss_poly(rng, 2)
    with pytest.raises(ValueError):
        f.terms[0].quad.entries[0, 0] = 5.0
    with pytest.raises(ValueError):
        f.terms[0].shift[0] = 1.0


def test_translate_constant_out_of_range_raises():
    # exp(-pi * 400^2) underflows; the zero function would be wrong
    with pytest.raises(RangeError):
        gaussian_1d().translate([400.0])


def test_non_finite_vectors_are_range_errors():
    g = GaussPoly.standard(1)
    with pytest.raises(RangeError):
        GaussTerm(Polynomial.constant(1, 1.0), SpdForm([[1.0]]), [np.nan])
    with pytest.raises(RangeError):
        g.translate([np.inf])
    with pytest.raises(RangeError):
        g.modulate([np.nan])


def test_non_finite_map_is_singular():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularMap):
            GaussPoly.standard(1).compose_linear([[np.nan]])


def test_derivative_order_above_the_cap_is_refused():
    from polygauss.core import DIFF_MAX_ORDER

    g = gaussian_1d()
    assert not g.differentiate((DIFF_MAX_ORDER,)).is_zero
    with pytest.raises(RangeError, match="derivative order 101 above the cap of 100"):
        g.differentiate((DIFF_MAX_ORDER + 1,))
    with pytest.raises(RangeError):
        GaussPoly.standard(2).differentiate((50, 51))


def test_negation_and_subtraction(rng):
    f = random_gauss_poly(rng, 2, n_terms=3)
    g = random_gauss_poly(rng, 2, n_terms=2)
    assert (f - f).is_zero
    x = random_points(rng, 1, 2)[0]
    assert (-f).evaluate(x) == -f.evaluate(x)
    assert coefficient_distance((f - g) + g, f) <= 1e-12
    with pytest.raises(DimensionMismatch):
        f - GaussPoly.standard(1)


@pytest.mark.parametrize(
    "call",
    [
        lambda f, g: g.evaluate_many(np.zeros((3, 3))),
        lambda f, g: g.compose_linear(np.eye(3)),
        coefficient_distance,
    ],
    ids=["evaluate-many", "compose-linear", "coefficient-distance"],
)
def test_operands_of_another_dimension_are_refused(call):
    with pytest.raises(DimensionMismatch):
        call(GaussPoly.standard(1), GaussPoly.standard(2))
