"""The two equivalent families of building blocks.

Any term can be written with monomial blocks x^alpha e or with derivative
blocks d^beta e, where e = exp(-pi x.Qx + b.x).  Both directions apply
the Gaussian moment operator exp(1/2 grad.S grad) once per (Q, b) key,
with S = -2 pi Q to expand and S = +2 pi Q to convert, in the variable
y = b - 2 pi Q x.
"""

import math

import numpy as np

from polygauss import (
    DerivativeElement,
    GaussPoly,
    SpdForm,
    coefficient_distance,
    format_function,
    function_to_derivative_basis,
    to_derivative_basis,
)

quad = SpdForm([[1.0]])
zero = np.zeros(1, dtype=complex)

# Expanding derivative blocks of increasing order (Hermite-like polynomials):
for order in range(4):
    element = DerivativeElement((order,), quad, zero)
    print(f"d^{order} e  =", format_function(element.expand()))

# Converting a monomial block into derivative coordinates:
xg = GaussPoly.standard(1).monomial_times((1,))
expansion = to_derivative_basis(xg.terms[0])
print("\nx e in derivative coordinates:", dict(expansion.coeffs))
print("  (the single coefficient is -1/(2 pi) =", -1.0 / (2 * math.pi), ")")

# A degree-3 example: coefficients only involve orders up to 3 and the
# top order is always present (the triangular structure of the change).
cubic = GaussPoly.standard(1).monomial_times((3,))
expansion = to_derivative_basis(cubic.terms[0])
print("\nx^3 e coefficients by order:")
for beta, c in sorted(expansion.coeffs.items()):
    print(f"  order {beta}: {c:.12f}")

# Round trip: convert then expand reproduces the source exactly.
back = expansion.expand()
print("round trip residual:", coefficient_distance(cubic, back))

# A multi-term function expands termwise, one expansion per (Q, b) key:
f = GaussPoly.standard(1).monomial_times((2,)) + GaussPoly.gaussian(SpdForm([[2.0]]))
print("\nfunction:", format_function(f))
for k, e in enumerate(function_to_derivative_basis(f)):
    print(f"  expansion {k}: quad={e.quad.entries.tolist()} coeffs={dict(e.coeffs)}")
