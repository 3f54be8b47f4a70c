import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygauss import DimensionMismatch, Polynomial
from polygauss import multiindex as mi


def test_zero_coefficients_are_not_stored():
    p = Polynomial(2, {(1, 0): 0.0, (0, 1): 2.0})
    assert list(p.coeffs) == [(0, 1)]


def test_degree_and_graded_order():
    p = Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})
    assert p.degree() == 2
    assert [a for a, _ in p.items_graded()] == [(0, 1), (1, 1), (2, 0)]


def test_product_adds_exponents():
    p = Polynomial.monomial(2, (1, 0), 2.0)
    q = Polynomial.monomial(2, (1, 2), 3.0)
    assert (p * q).coeffs == {(2, 2): pytest.approx(6.0)}


def test_pow_matches_repeated_product():
    p = Polynomial(1, {(0,): 1.0, (1,): 1.0})
    assert (p ** 3).coeffs == (p * p * p).coeffs


def test_differentiate():
    p = Polynomial(1, {(3,): 2.0})
    assert p.differentiate(0).coeffs == {(2,): pytest.approx(6.0)}
    assert not Polynomial.constant(1, 5.0).differentiate(0)


def test_substitute_affine_translation(rng):
    # p(x - a) checked against direct evaluation
    p = Polynomial(2, {(2, 1): 1.5 - 0.5j, (0, 1): 2.0, (0, 0): -1.0})
    a = np.array([0.7, -0.3 + 0.2j])
    q = p.substitute_affine(None, -a)
    for _ in range(10):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert q.evaluate(z) == pytest.approx(p.evaluate(z - a), abs=1e-12)


def test_substitute_affine_linear_map(rng):
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): -2.0j})
    m = np.array([[1.0, 2.0], [0.5, -1.0]])
    q = p.substitute_affine(m, None)
    for _ in range(10):
        z = rng.normal(size=2)
        assert q.evaluate(z) == pytest.approx(p.evaluate(m @ z), abs=1e-12)


def test_drop_small_is_relative():
    p = Polynomial(1, {(0,): 1.0, (1,): 1e-15})
    assert list(p.drop_small(1e-12).coeffs) == [(0,)]
    tiny = Polynomial(1, {(0,): 1e-15, (1,): 2e-15})
    assert len(tiny.drop_small(1e-12).coeffs) == 2  # both survive, scale-aware


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(DimensionMismatch):
        Polynomial(1, {(1,): 1.0}) + Polynomial(2, {(1, 0): 1.0})


def test_evaluate_many_matches_scalar(rng):
    p = Polynomial(3, {(1, 0, 2): 1.0 + 1j, (0, 0, 0): 0.5})
    pts = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    many = p.evaluate_many(pts)
    for k in range(6):
        assert many[k] == pytest.approx(p.evaluate(pts[k]), rel=1e-14)


def test_multiindex_enumeration():
    up_to = list(mi.indices_up_to(2, 2))
    assert up_to == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert mi.degree((2, 3, 1)) == 6
    assert mi.add((1, 0), (0, 2)) == (1, 2)


# ---------------------------------------------------------------------------
# gaussian_smooth: H_S = exp(1/2 grad . S grad)


def _random_poly(rng, dim, deg):
    return Polynomial(
        dim,
        {a: complex(rng.normal(), rng.normal()) for a in mi.indices_up_to(dim, deg)},
    )


def _random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2.0


def _distance(p, q):
    """Largest coefficient difference relative to the largest coefficient of p."""
    diff = (p - q).coeffs.values()
    return max(map(abs, diff), default=0.0) / max(map(abs, p.coeffs.values()))


SMOOTH_CASES = st.tuples(st.integers(1, 3), st.integers(0, 6), st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(SMOOTH_CASES)
def test_gaussian_smooth_is_a_semigroup(case):
    dim, deg, seed = case
    rng = np.random.default_rng(seed)
    p = _random_poly(rng, dim, deg)
    a = _random_symmetric(rng, dim)
    b = _random_symmetric(rng, dim)
    composed = p.gaussian_smooth(b).gaussian_smooth(a)
    assert _distance(p.gaussian_smooth(a + b), composed) <= 1e-12
    assert _distance(p, p.gaussian_smooth(a).gaussian_smooth(-a)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(SMOOTH_CASES)
def test_gaussian_smooth_fixes_degree_one(case):
    dim, _, seed = case
    rng = np.random.default_rng(seed)
    p = _random_poly(rng, dim, 1)
    assert p.gaussian_smooth(_random_symmetric(rng, dim)).coeffs == p.coeffs


def test_gaussian_smooth_second_moments():
    # H_S (x_j x_k) = x_j x_k + S_jk, the covariance of the Gaussian
    s = np.array([[2.0, 0.3, -0.5], [0.3, 1.0, 0.7], [-0.5, 0.7, 3.0]])
    for j in range(3):
        for k in range(3):
            alpha = mi.add(mi.unit(3, j), mi.unit(3, k))
            smooth = Polynomial.monomial(3, alpha).gaussian_smooth(s)
            assert smooth.coeffs == {alpha: 1.0, mi.zero(3): pytest.approx(s[j, k], abs=1e-15)}
    with pytest.raises(DimensionMismatch):
        Polynomial.monomial(3, (2, 0, 0)).gaussian_smooth(np.eye(2))
