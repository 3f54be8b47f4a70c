"""Direct numerical cross-checks, independent of the closed-form engine.

Fourier and convolution integrals are discretized with a tensor-product
composite Gauss-Legendre rule on a truncated box; a spec is accepted only
if the dominating Gaussian of the integrand certifies a truncation tail
below TAIL_TARGET.  Finite differences validate symbolic derivatives.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SpecRejected
from .linalg import as_vector

TAIL_TARGET = 1e-9
PANEL_ORDER = 20
DEFAULT_POINTS = {1: 200, 2: 120, 3: 60}


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncated-box quadrature parameters for dimensions 1 to 3."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise SpecRejected(f"quadrature supports dim 1..3, got {self.dim}")
        if self.half_width <= 0:
            raise SpecRejected("half_width must be positive")
        if self.points_per_axis < 1:
            raise SpecRejected("points_per_axis must be positive")

    def check_tail(self, decay, growth=0.0):
        """Accept only if the tail of a dominating integrand
        exp(-pi * decay * |x|^2 + growth * |x|) outside the box, bounded
        crudely by the box volume times its value at the edge, is below
        TAIL_TARGET."""
        if decay <= 0:
            raise SpecRejected("integrand has no certified Gaussian decay")
        h = self.half_width
        bound = (2.0 * h) ** self.dim * math.exp(-math.pi * decay * h * h + growth * h)
        if not bound < TAIL_TARGET:
            raise SpecRejected(
                f"truncation tail bound {bound:.3e} exceeds target {TAIL_TARGET:.0e}; "
                "enlarge half_width or reduce the argument's imaginary part"
            )


def _box(dim, decay, reach=0.0):
    """The default box: six decay lengths past the farthest point of interest.
    A dim without a default point count reaches QuadratureSpec, which refuses it."""
    return QuadratureSpec(dim, 6.0 / math.sqrt(decay) + reach, DEFAULT_POINTS.get(dim, 1))


def default_spec(f):
    """Spec sized from the slowest-decaying term of f."""
    lam = decay_floor(f)
    if lam <= 0:
        raise SpecRejected("cannot size a spec for the zero function")
    return _box(f.dim, lam)


def decay_floor(f):
    """The slowest Gaussian decay rate over all terms of f: the least eigenvalue of any Q."""
    return min((float(t.quad.eigenvalues()[0]) for t in f.terms), default=0.0)


def _growth_rate(f):
    return max((float(np.linalg.norm(t.shift.real)) for t in f.terms), default=0.0)


def axis_rule(spec):
    """Composite Gauss-Legendre nodes and weights on [-H, H]."""
    order = min(spec.points_per_axis, PANEL_ORDER)
    panels = -(-spec.points_per_axis // order)
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-spec.half_width, spec.half_width, panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * base_x).ravel(), (half[:, None] * base_w).ravel()


def mesh(axes):
    """Tensor-product points (m, len(axes)) of one array per axis, the last fastest."""
    return np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)


def grid(spec):
    """Tensor-product points (m, dim) and weights (m,) for the box."""
    x, w = axis_rule(spec)
    return mesh([x] * spec.dim), mesh([w] * spec.dim).prod(axis=1)


def fourier_values(f, frequencies, spec=None):
    """Direct quadrature of integral f(x) exp(-2 pi i x . xi) dx at each xi
    of a list: every tail is checked, then one grid serves them all."""
    xis = [as_vector(xi, f.dim, "xi") for xi in frequencies]
    if f.is_zero:
        return [0j] * len(xis)
    if spec is None:
        spec = default_spec(f)
    if spec.dim != f.dim:
        raise DimensionMismatch("spec dimension does not match function")
    decay, growth = decay_floor(f), _growth_rate(f)
    for xi in xis:
        spec.check_tail(decay, growth + 2.0 * math.pi * float(np.linalg.norm(xi.imag)))
    pts, wts = grid(spec)
    vals = f.evaluate_many(pts)
    return [complex(wts @ (vals * np.exp(-2j * math.pi * (pts @ xi)))) for xi in xis]


def quad_fourier(f, xi, spec=None):
    """Direct quadrature of integral f(x) exp(-2 pi i x . xi) dx."""
    return fourier_values(f, [xi], spec)[0]


def quad_convolve(f, g, x, spec=None):
    """Direct quadrature of the convolution integral at the point x."""
    if f.dim != g.dim:
        raise DimensionMismatch("function dimensions differ")
    if f.dim > 2:
        raise SpecRejected("convolution quadrature supports dim 1..2")
    x = as_vector(x, f.dim, "x")
    if f.is_zero or g.is_zero:
        return 0j
    decay = decay_floor(f) + decay_floor(g)
    # g(x - y) grows linearly in |y| through the cross term of its exponent.
    cross = max(
        2.0 * math.pi * float(np.linalg.norm(t.quad.entries @ x)) for t in g.terms
    )
    growth = _growth_rate(f) + _growth_rate(g) + cross
    if spec is None:
        spec = _box(f.dim, decay, float(np.linalg.norm(x)))
    if spec.dim != f.dim:
        raise DimensionMismatch("spec dimension does not match function")
    spec.check_tail(decay, growth)
    pts, wts = grid(spec)
    vals = f.evaluate_many(pts) * g.evaluate_many(x[None, :] - pts)
    return complex(wts @ vals)


def finite_difference(f, axis, x, h=1e-5):
    """Central difference along one axis at a real point."""
    if h <= 0:
        raise ValueError("step must be positive")
    x = as_vector(x, f.dim, "x", float)
    step = np.zeros(f.dim)
    step[axis] = h
    return (f.evaluate(x + step) - f.evaluate(x - step)) / (2.0 * h)


@dataclass(frozen=True)
class CompareResult:
    passed: bool
    residual: float

    def __bool__(self):
        return self.passed


def compare(symbolic, numeric, abs_tol, rel_tol):
    """Pass iff |symbolic - numeric| <= abs_tol + rel_tol * |symbolic|."""
    if abs_tol <= 0 or rel_tol <= 0:
        raise ValueError("tolerances must be positive")
    residual = abs(complex(symbolic) - complex(numeric))
    return CompareResult(residual <= abs_tol + rel_tol * abs(complex(symbolic)), residual)
