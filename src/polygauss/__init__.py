"""polygauss: exact Fourier calculus on polynomial-times-Gaussian sums.

The core objects are :class:`GaussPoly` (a finite sum of terms
``p(x) * exp(-pi x.Qx + b.x)``) together with closed-form transforms,
convolution, Plancherel pairings, a derivative-basis conversion, an
independent quadrature oracle, and a textual expression language with a
JSON interchange format.
"""

from .basis import (
    DerivativeElement,
    DerivativeExpansion,
    expand_derivative_element,
    function_to_derivative_basis,
    to_derivative_basis,
)
from .core import GaussPoly, GaussTerm, coefficient_distance
from .errors import (
    DimensionMismatch,
    ParseError,
    PolyGaussError,
    RangeError,
    SchemaError,
    SingularMap,
    SolveFailure,
    SpdError,
    SpecRejected,
)
from .exprlang import evaluate_ast, format_function, lower, parse
from .linalg import LinearMap, SpdForm
from .polynomial import Polynomial
from .quadrature import (
    CompareResult,
    QuadratureSpec,
    compare,
    default_spec,
    finite_difference,
    quad_convolve,
    quad_fourier,
)
from .serialization import (
    expansions_to_json,
    function_from_json,
    function_to_json,
)
from .transform import (
    RuleCheckReport,
    convolve,
    fourier_transform,
    inner_product,
    integral,
    inverse_transform,
    transform_rules_check,
)

__version__ = "0.1.0"

__all__ = [
    "GaussPoly",
    "GaussTerm",
    "Polynomial",
    "SpdForm",
    "LinearMap",
    "coefficient_distance",
    "fourier_transform",
    "inverse_transform",
    "integral",
    "inner_product",
    "convolve",
    "transform_rules_check",
    "RuleCheckReport",
    "DerivativeElement",
    "DerivativeExpansion",
    "expand_derivative_element",
    "to_derivative_basis",
    "function_to_derivative_basis",
    "QuadratureSpec",
    "default_spec",
    "quad_fourier",
    "quad_convolve",
    "finite_difference",
    "compare",
    "CompareResult",
    "parse",
    "lower",
    "evaluate_ast",
    "format_function",
    "function_to_json",
    "function_from_json",
    "expansions_to_json",
    "PolyGaussError",
    "DimensionMismatch",
    "SpdError",
    "SingularMap",
    "SolveFailure",
    "SpecRejected",
    "ParseError",
    "SchemaError",
    "RangeError",
]
