"""Exception types shared across the package."""


class PolyGaussError(Exception):
    """Base class for every error raised by polygauss."""


class DimensionMismatch(PolyGaussError):
    """Operands live on spaces of different dimension."""


class SpdError(PolyGaussError):
    """A matrix meant to act as an SPD quadratic form failed validation."""


class SingularMap(PolyGaussError):
    """A linear change of variables is not invertible at working precision."""


class SolveFailure(PolyGaussError):
    """A quadratic form is too ill-conditioned for a derivative-basis conversion.

    Raised when (lambda_min / lambda_max) ** degree of the form falls below
    ``basis.TOP_BLOCK_PIVOT_REL``; the CLI reports it as ``error[solve]``.
    """


class SpecRejected(PolyGaussError):
    """A quadrature spec cannot certify its truncation error for the input."""


class RangeError(PolyGaussError):
    """A term constant or key falls outside the floating-point range."""


class SchemaError(PolyGaussError):
    """A JSON document does not match the interchange schema."""


class ParseError(PolyGaussError):
    """Syntax error in the expression language, with source position.

    Attributes:
        line, column: 1-based position of the offending token; 0 when the
            error has no position in a source text.
        expected: tuple of token descriptions that would have been legal.
    """

    def __init__(self, message, line=0, column=0, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} at {line}:{column}" if line else message
        if self.expected:
            detail += " (expected " + " | ".join(self.expected) + ")"
        super().__init__(detail)
