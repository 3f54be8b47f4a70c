"""The reference evaluator against mpmath (n = 1) and closed forms (n <= 3)."""

import math

import mpmath
import numpy as np
import pytest

import reference as ref

DIGITS = 40


def _mp_integral(integrand):
    with mpmath.workdps(DIGITS):
        return complex(mpmath.quad(integrand, [-mpmath.inf, -3, 0, 3, mpmath.inf]))


def _mp_term(coeffs, q, b):
    """An mpmath callable for p(x) exp(-pi q x^2 + b x) in one variable."""

    def value(x):
        p = sum(mpmath.mpc(c) * x ** a[0] for a, c in coeffs.items())
        return p * mpmath.exp(-mpmath.pi * q * x * x + mpmath.mpc(b) * x)

    return value


def _random_term(rng, degree):
    coeffs = {(k,): complex(rng.normal(), rng.normal()) for k in range(degree + 1)}
    return coeffs, float(rng.uniform(0.4, 2.5)), complex(rng.normal(), rng.normal())


def _assert_close(got, want, magnitude, rtol=1e-12):
    assert abs(got - want) <= rtol * magnitude, (got, want)


@pytest.mark.parametrize("seed", range(4))
def test_integral_transform_and_inner_match_mpmath(seed):
    rng = np.random.default_rng(seed)
    coeffs, q, b = _random_term(rng, 4)
    f = [(coeffs, np.array([[q]]), np.array([b]))]
    term = _mp_term(coeffs, q, b)

    value, mag = ref.integral(f)
    _assert_close(value, _mp_integral(term), mag)

    xi = float(rng.normal())
    value, mag = ref.fourier(f, [xi])
    want = _mp_integral(lambda x: term(x) * mpmath.expj(-2 * mpmath.pi * x * xi))
    _assert_close(value, want, mag)

    value, mag = ref.inner(f, f)
    want = _mp_integral(lambda x: abs(term(x)) ** 2)
    _assert_close(value, want, mag)


@pytest.mark.parametrize("seed", range(3))
def test_convolution_and_derivative_match_mpmath(seed):
    rng = np.random.default_rng(10 + seed)
    cf, qf, bf = _random_term(rng, 2)
    cg, qg, bg = _random_term(rng, 3)
    f = [(cf, np.array([[qf]]), np.array([bf]))]
    g = [(cg, np.array([[qg]]), np.array([bg]))]
    tf, tg = _mp_term(cf, qf, bf), _mp_term(cg, qg, bg)
    x = float(rng.normal())

    value, mag = ref.convolve_at(f, g, [x])
    _assert_close(value, _mp_integral(lambda y: tf(y) * tg(x - y)), mag)

    with mpmath.workdps(DIGITS):
        want = complex(mpmath.diff(tf, x))
    got = ref.partial(f, 0, [[x]])[0]
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_standard_gaussian_is_self_dual(dim):
    f = [({(0,) * dim: 1.0}, np.eye(dim), np.zeros(dim))]
    rng = np.random.default_rng(dim)
    for xi in rng.normal(size=(4, dim)):
        value, _ = ref.fourier(f, xi)
        assert abs(value - math.exp(-math.pi * xi @ xi)) < 1e-14


def _moment(k):
    """int x^(2k) exp(-pi x^2) dx = (2k - 1)!! / (2 pi)^k."""
    return math.prod(range(1, 2 * k, 2)) / (2 * math.pi) ** k


@pytest.mark.parametrize("alpha", [(2,), (8,), (2, 4), (0, 6), (2, 2, 2), (4, 0, 2)])
def test_even_moments(alpha):
    dim = len(alpha)
    f = [({alpha: 1.0}, np.eye(dim), np.zeros(dim))]
    value, _ = ref.integral(f)
    want = math.prod(_moment(a // 2) for a in alpha)
    assert abs(value - want) <= 1e-13 * want


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_matrix_gaussian_with_complex_shift(dim):
    """int exp(-pi x.Qx + b.x) = det(Q)^(-1/2) exp(b.Q^-1 b / (4 pi))."""
    rng = np.random.default_rng(20 + dim)
    a = rng.normal(size=(dim, dim))
    q = a @ a.T + dim * np.eye(dim)
    b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    value, _ = ref.integral([({(0,) * dim: 1.0}, q, b)])
    want = np.linalg.det(q) ** -0.5 * np.exp(b @ np.linalg.solve(q, b) / (4 * math.pi))
    assert abs(value - want) <= 1e-13 * abs(want)


def test_odd_moments_vanish():
    f = [({(1, 2): 1.0, (3, 0): 1.0}, np.eye(2), np.zeros(2))]
    value, mag = ref.integral(f)
    assert abs(value) <= 1e-15 * mag
