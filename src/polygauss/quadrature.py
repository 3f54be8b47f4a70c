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

    def tail_bound(self, decay, growth=0.0):
        """Crude bound on the discarded tail for a dominating integrand
        exp(-pi * decay * |x|^2 + growth * |x|) outside the box."""
        h = self.half_width
        vol = (2.0 * h) ** self.dim
        return vol * math.exp(-math.pi * decay * h * h + growth * h)

    def check_tail(self, decay, growth=0.0):
        if decay <= 0:
            raise SpecRejected("integrand has no certified Gaussian decay")
        bound = self.tail_bound(decay, growth)
        if not bound < TAIL_TARGET:
            raise SpecRejected(
                f"truncation tail bound {bound:.3e} exceeds target {TAIL_TARGET:.0e}; "
                "enlarge half_width or reduce the argument's imaginary part"
            )


def default_spec(f):
    """Spec sized from the slowest-decaying term of f."""
    lam = decay_floor(f)
    if lam <= 0:
        raise SpecRejected("cannot size a spec for the zero function")
    return QuadratureSpec(f.dim, 6.0 / math.sqrt(lam), DEFAULT_POINTS[f.dim])


def decay_floor(f):
    """The slowest Gaussian decay rate over all terms of f: the least eigenvalue of any Q."""
    if f.is_zero:
        return 0.0
    return min(float(t.quad.eigenvalues()[0]) for t in f.terms)


def _growth_rate(f):
    if f.is_zero:
        return 0.0
    return max(float(np.linalg.norm(t.shift.real)) for t in f.terms)


def axis_rule(spec):
    """Composite Gauss-Legendre nodes and weights on [-H, H]."""
    order = min(spec.points_per_axis, PANEL_ORDER)
    panels = -(-spec.points_per_axis // order)
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-spec.half_width, spec.half_width, panels + 1)
    nodes = []
    weights = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = (lo + hi) / 2.0
        half = (hi - lo) / 2.0
        nodes.append(mid + half * base_x)
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def grid(spec):
    """Tensor-product points (m, dim) and weights (m,) for the box."""
    x, w = axis_rule(spec)
    if spec.dim == 1:
        return x[:, None], w
    axes = np.meshgrid(*([x] * spec.dim), indexing="ij")
    wgts = np.meshgrid(*([w] * spec.dim), indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=1)
    wts = np.ones(pts.shape[0])
    for wg in wgts:
        wts *= wg.ravel()
    return pts, wts


def quad_fourier(f, xi, spec=None):
    """Direct quadrature of integral f(x) exp(-2 pi i x . xi) dx."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape == ():
        xi = xi.reshape(1)
    if xi.shape != (f.dim,):
        raise DimensionMismatch(f"xi has shape {xi.shape}, expected ({f.dim},)")
    if f.is_zero:
        return 0j
    if spec is None:
        spec = default_spec(f)
    if spec.dim != f.dim:
        raise DimensionMismatch("spec dimension does not match function")
    growth = _growth_rate(f) + 2.0 * math.pi * float(np.linalg.norm(xi.imag))
    spec.check_tail(decay_floor(f), growth)
    pts, wts = grid(spec)
    vals = f.evaluate_many(pts) * np.exp(-2j * math.pi * (pts @ xi))
    return complex(wts @ vals)


def quad_convolve(f, g, x, spec=None):
    """Direct quadrature of the convolution integral at the point x."""
    if f.dim != g.dim:
        raise DimensionMismatch("function dimensions differ")
    if f.dim > 2:
        raise SpecRejected("convolution quadrature supports dim 1..2")
    x = np.asarray(x, dtype=complex)
    if x.shape == ():
        x = x.reshape(1)
    if x.shape != (f.dim,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({f.dim},)")
    if f.is_zero or g.is_zero:
        return 0j
    decay = decay_floor(f) + decay_floor(g)
    # g(x - y) grows linearly in |y| through the cross term of its exponent.
    cross = max(
        2.0 * math.pi * float(np.linalg.norm(t.quad.entries @ x)) for t in g.terms
    )
    growth = _growth_rate(f) + _growth_rate(g) + cross
    if spec is None:
        spec = QuadratureSpec(
            f.dim,
            6.0 / math.sqrt(decay) + float(np.linalg.norm(x)),
            DEFAULT_POINTS[f.dim],
        )
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
    x = np.asarray(x, dtype=float)
    if x.shape == ():
        x = x.reshape(1)
    if x.shape != (f.dim,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({f.dim},)")
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
