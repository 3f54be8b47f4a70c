"""Closed-form Fourier analysis on the polynomial-Gaussian class.

Convention:  F f (xi) = integral of f(x) exp(-2 pi i x . xi) dx.  With the
storage convention of :mod:`polygauss.core` the standard Gaussian
exp(-pi x . x) is its own transform.  Completing the square turns the
transform of one term p(x) exp(-pi x.Qx + b.x) into a Gaussian
expectation:

    const * exp(-pi xi . Q^(-1) xi - i (Q^(-1) b) . xi)
        * (H_Sigma p)(Q^(-1) b / 2 pi - i Q^(-1) xi),

with const = det(Q)^(-1/2) exp(b . Q^(-1) b / (4 pi)), Sigma = Q^(-1) / 2 pi
and H_Sigma = exp(1/2 grad . Sigma grad) the moment operator of
:meth:`Polynomial.gaussian_smooth`.  Everything downstream (inversion, the
same rule with +i for -i, convolution, integrals, inner products) reduces
to this term rule; an integral is its value at xi = 0, one polynomial
evaluation per term.
"""

import cmath
import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

from . import multiindex as mi
from .core import (
    GaussPoly,
    GaussTerm,
    coefficient_distance,
    conjugate_terms,
    exact_sum,
    exp_in_range,
    product_terms,
)
from .errors import DimensionMismatch, RangeError
from .linalg import LinearMap


def _moments(term):
    """const, Q^(-1), the center Q^(-1) b / 2 pi and H_Sigma p of one term."""
    qinv = term.quad.inverse()
    shift = term.shift
    const = exp_in_range(
        complex(shift @ qinv.entries @ shift) / (4.0 * math.pi), term.quad.det ** -0.5
    )
    center = qinv.entries @ shift / (2.0 * math.pi)
    return const, qinv, center, term.poly.gaussian_smooth(qinv.entries / (2.0 * math.pi))


def _transform_term(term, sign=-1):
    """The transform of one term, one term at the transformed key: the
    forward one with sign -1, the inverse (kernel exp(+2 pi i x . xi))
    with sign +1."""
    const, qinv, center, smooth = _moments(term)
    poly = smooth.substitute_affine(sign * 1j * qinv.entries, center) * const
    return GaussTerm(poly, qinv, sign * 2j * math.pi * center)


def fourier_transform(f):
    """The transform of f, exact in closed form, in canonical shape."""
    return GaussPoly(f.dim, [_transform_term(t) for t in f.terms]).canonical()


def inverse_transform(g):
    """The inverse transform, by the term rule of the forward one at the
    opposite sign of the kernel."""
    return GaussPoly(g.dim, [_transform_term(t, 1) for t in g.terms]).canonical()


def _integral_of_terms(terms):
    # Each term's transform at xi = 0; integration is linear, so the terms
    # are neither merged nor ordered.
    values = []
    for t in terms:
        const, _, center, smooth = _moments(t)
        values.append(const * smooth.evaluate(center))
    if not all(map(cmath.isfinite, values)):
        raise RangeError("a term of the integral is outside the floating-point range")
    return exact_sum(values)


def integral(f):
    """integral of f over R^n, i.e. the transform evaluated at 0."""
    return _integral_of_terms(f.terms)


def inner_product(f, g):
    """The L2 pairing: integral of f times conj(g)."""
    if f.dim != g.dim:
        raise DimensionMismatch("function dimensions differ")
    return _integral_of_terms(product_terms(f.terms, conjugate_terms(g.terms)))


def convolve(f, g):
    """Convolution via the spectral product of the two transforms."""
    if f.dim != g.dim:
        raise DimensionMismatch("function dimensions differ")
    spectral = product_terms(
        [_transform_term(t) for t in f.terms], [_transform_term(t) for t in g.terms]
    )
    return GaussPoly(f.dim, [_transform_term(t, 1) for t in spectral]).canonical()


@dataclass(frozen=True)
class RuleCheckReport:
    """Max canonical-coefficient discrepancy for each transform rule."""

    derivative: float
    translation: float
    modulation: float
    change_of_variables: float

    def max_residual(self):
        return max(astuple(self))

    def as_dict(self):
        return asdict(self)


def transform_rules_check(f, alpha, a, b, mapping):
    """Check the four interaction rules symbolically on a concrete instance.

    Each rule is evaluated on both sides and the canonical coefficient
    distance is reported:

      derivative:          F(d^alpha f)     vs (2 pi i)^|alpha| xi^alpha Ff
      translation:         F(f(. - a))      vs exp(-2 pi i xi.a) Ff
      modulation:          F(f exp(-2pi i x.b)) vs Ff(. + b)
      change of variables: F(f o T)         vs |det T|^(-1) Ff o inv(T^t)
    """
    if not isinstance(mapping, LinearMap):
        mapping = LinearMap(mapping)
    fhat = fourier_transform(f)

    lhs = fourier_transform(f.differentiate(alpha))
    rhs = ((2j * math.pi) ** mi.degree(tuple(alpha))) * fhat.monomial_times(alpha)
    d_res = coefficient_distance(lhs, rhs)

    t_res = coefficient_distance(fourier_transform(f.translate(a)), fhat.modulate(a))

    b_arr = np.asarray(b, dtype=complex)
    m_res = coefficient_distance(fourier_transform(f.modulate(b)), fhat.translate(-b_arr))

    lhs = fourier_transform(f.compose_linear(mapping))
    rhs = (1.0 / abs(mapping.det)) * fhat.compose_linear(mapping.inverse_transpose())
    c_res = coefficient_distance(lhs, rhs)

    return RuleCheckReport(d_res, t_res, m_res, c_res)
