"""Reference evaluator for sums of polynomial-times-Gaussian terms.

This module does not import polygauss: it is the independent side of every
check the benchmark makes.  A function is a list of terms
``(coeffs, Q, b)``; ``coeffs`` maps exponent tuples to complex numbers,
``Q`` is a real symmetric positive-definite n-by-n array and ``b`` a complex
n-vector.  The term denotes

    x  |->  p(x) * exp(-pi * x.Qx + b.x)

with the bilinear dot product, so complex points give the holomorphic
extension.

Every integral is computed by completing the square and applying a tensor
Gauss-Hermite rule.  With ``m = Q^-1 b / (2 pi)`` and ``Q = L L^T``,

    int p(x) exp(-pi x.Qx + b.x) dx
        = exp(b.Q^-1 b / (4 pi)) / (pi^(n/2) det L)
          * int p(m + L^-T z / sqrt(pi)) exp(-|z|^2) dz,

and the last integral is a polynomial against the Hermite weight, which a
rule with ``deg // 2 + 1`` nodes per axis integrates exactly.  Moving the
contour to the complex centre ``m`` is valid because the integrand is entire
and decays in every real direction.  Each integral comes back with a
magnitude, the rule's sum with every monomial and weight taken in absolute
value: roundoff in any double-precision evaluation of the same integral
scales with it.
"""

import itertools
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def degree(coeffs):
    return max((sum(alpha) for alpha in coeffs), default=0)


def poly_eval(coeffs, points):
    """Evaluate a coefficient dict at an (m, n) array of points."""
    pts = np.asarray(points, dtype=complex)
    out = np.zeros(pts.shape[0], dtype=complex)
    for alpha, c in coeffs.items():
        mono = np.full(pts.shape[0], complex(c))
        for j, e in enumerate(alpha):
            if e:
                mono = mono * pts[:, j] ** e
        out += mono
    return out


def poly_abs(coeffs, points):
    """sum |c| |x^alpha|: the scale of roundoff in poly_eval at the points."""
    return poly_eval({a: abs(c) for a, c in coeffs.items()}, np.abs(points)).real


def evaluate(terms, points):
    """Values of a function at an (m, n) array of real or complex points."""
    pts = np.asarray(points, dtype=complex)
    out = np.zeros(pts.shape[0], dtype=complex)
    for coeffs, q, b in terms:
        expo = -math.pi * np.einsum("ij,jk,ik->i", pts, q, pts) + pts @ b
        out += poly_eval(coeffs, pts) * np.exp(expo)
    return out


def evaluate_abs(terms, points):
    """Sum of |c x^alpha exp(...)| over every monomial of every term.

    This is the scale of the roundoff in any double-precision evaluation of
    the same function at the same points.
    """
    pts = np.asarray(points, dtype=complex)
    out = np.zeros(pts.shape[0])
    for coeffs, q, b in terms:
        expo = -math.pi * np.einsum("ij,jk,ik->i", pts, q, pts) + pts @ b
        out += poly_abs(coeffs, pts) * np.abs(np.exp(expo))
    return out


def partial(terms, axis, points):
    """d f / d x_axis at (m, n) points: (d p + p * (b - 2 pi Q x)_axis) e."""
    pts = np.asarray(points, dtype=complex)
    out = np.zeros(pts.shape[0], dtype=complex)
    for coeffs, q, b in terms:
        dp = {}
        for alpha, c in coeffs.items():
            if alpha[axis]:
                lower = alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1:]
                dp[lower] = dp.get(lower, 0j) + alpha[axis] * c
        expo = -math.pi * np.einsum("ij,jk,ik->i", pts, q, pts) + pts @ b
        slope = b[axis] - TWO_PI * (pts @ q[axis])
        out += (poly_eval(dp, pts) + poly_eval(coeffs, pts) * slope) * np.exp(expo)
    return out


_RULES = {}


def _hermite_rule(dim, nodes):
    """Tensor Gauss-Hermite points (k^n, n) and weights for exp(-|z|^2)."""
    key = (dim, nodes)
    if key not in _RULES:
        z, w = np.polynomial.hermite.hermgauss(nodes)
        pts = np.array(list(itertools.product(z, repeat=dim)))
        wts = np.array([math.prod(c) for c in itertools.product(w, repeat=dim)])
        _RULES[key] = (pts, wts)
    return _RULES[key]


def gaussian_integral(poly, deg, q, b, size):
    """int poly(x) exp(-pi x.Qx + b.x) dx over R^n, as (value, magnitude).

    ``poly`` is a callable on an (m, n) complex array and must be a
    polynomial of total degree at most ``deg``; ``size`` bounds its
    monomials in absolute value at the same points (see poly_abs).
    """
    q = np.asarray(q, dtype=float)
    b = np.asarray(b, dtype=complex)
    n = q.shape[0]
    chol = np.linalg.cholesky(q)
    chol_inv = np.linalg.inv(chol)
    centre = np.linalg.solve(q, b) / TWO_PI
    z, w = _hermite_rule(n, deg // 2 + 1)
    points = centre[None, :] + (z @ chol_inv) / math.sqrt(math.pi)
    scale = np.exp(complex(b @ np.linalg.solve(q, b)) / (4.0 * math.pi)) / (
        math.pi ** (n / 2.0) * float(np.prod(np.diag(chol)))
    )
    value = complex(scale * (w * poly(points)).sum())
    return value, float(abs(scale) * (w * size(points)).sum())


def _sum(pairs):
    value = 0j
    magnitude = 0.0
    for v, m in pairs:
        value += v
        magnitude += m
    return value, magnitude


def _term_integral(coeffs, q, b):
    return gaussian_integral(
        lambda x: poly_eval(coeffs, x), degree(coeffs), q, b, lambda x: poly_abs(coeffs, x)
    )


def integral(terms):
    """int f over R^n."""
    return _sum(_term_integral(c, q, b) for c, q, b in terms)


def fourier(terms, xi):
    """(F f)(xi) = int f(x) exp(-2 pi i x.xi) dx; xi may be complex."""
    xi = np.asarray(xi, dtype=complex)
    return _sum(_term_integral(c, q, b - 2j * math.pi * xi) for c, q, b in terms)


def inverse_fourier(terms, x):
    """(F^-1 f)(x) = int f(xi) exp(+2 pi i x.xi) dxi."""
    return fourier(terms, -np.asarray(x, dtype=complex))


def conjugate(terms):
    """conj(f) on R^n: conjugated coefficients and shift, same form."""
    return [
        ({a: complex(c).conjugate() for a, c in coeffs.items()}, q, np.conj(b))
        for coeffs, q, b in terms
    ]


def inner(f, g):
    """<f, g> = int f(x) conj(g(x)) dx."""
    pieces = []
    for cf, qf, bf in f:
        for cg, qg, bg in conjugate(g):
            pieces.append(
                gaussian_integral(
                    lambda x, cf=cf, cg=cg: poly_eval(cf, x) * poly_eval(cg, x),
                    degree(cf) + degree(cg),
                    qf + qg,
                    bf + bg,
                    lambda x, cf=cf, cg=cg: poly_abs(cf, x) * poly_abs(cg, x),
                )
            )
    return _sum(pieces)


def convolve_at(f, g, x):
    """(f * g)(x) = int f(y) g(x - y) dy at one real or complex point."""
    x = np.asarray(x, dtype=complex)
    pieces = []
    for cf, qf, bf in f:
        for cg, qg, bg in g:
            outer = np.exp(-math.pi * complex(x @ qg @ x) + complex(bg @ x))
            v, m = gaussian_integral(
                lambda y, cf=cf, cg=cg: poly_eval(cf, y) * poly_eval(cg, x[None, :] - y),
                degree(cf) + degree(cg),
                qf + qg,
                bf - bg + TWO_PI * (qg @ x),
                lambda y, cf=cf, cg=cg: poly_abs(cf, y) * poly_abs(cg, x[None, :] - y),
            )
            pieces.append((outer * v, abs(outer) * m))
    return _sum(pieces)


def derivative_basis_fourier(q, b, coeffs, xi):
    """F(sum_beta c_beta d^beta e)(xi) for e = exp(-pi x.Qx + b.x).

    Uses F(d^beta e)(xi) = (2 pi i xi)^beta * F(e)(xi).
    """
    xi = np.asarray(xi, dtype=complex)
    one = lambda x: np.ones(x.shape[0])  # noqa: E731
    base, base_mag = gaussian_integral(one, 0, q, b - 2j * math.pi * xi, one)
    factor = poly_eval(coeffs, (2j * math.pi * xi)[None, :])[0]
    factor_mag = sum(
        abs(c) * math.prod(abs(2 * math.pi * xi[j]) ** e for j, e in enumerate(beta))
        for beta, c in coeffs.items()
    )
    return complex(factor * base), float(factor_mag * base_mag)


def monomial_count(terms):
    return sum(len(coeffs) for coeffs, _, _ in terms)
