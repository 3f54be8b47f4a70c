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
    """A basis-conversion system was too ill-conditioned to solve reliably."""


class SpecRejected(PolyGaussError):
    """A quadrature spec cannot certify its truncation error for the input."""


class RangeError(PolyGaussError):
    """A term constant or key falls outside the floating-point range."""


class SchemaError(PolyGaussError):
    """A JSON document does not match the interchange schema."""


class ParseError(PolyGaussError):
    """Syntax error in the expression language, with source position.

    Attributes:
        line, column: 1-based position of the offending token.
        expected: tuple of token descriptions that would have been legal.
    """

    def __init__(self, message, line=0, column=0, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} at {line}:{column}"
        if self.expected:
            detail += " (expected " + " | ".join(self.expected) + ")"
        super().__init__(detail)
