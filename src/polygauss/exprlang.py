"""Textual expression language for polynomial-Gaussian functions.

Grammar (whitespace insensitive)::

    expr     := ["+"|"-"] term { ("+"|"-") term }
    term     := factor { "*" factor }
    factor   := scalar | "pi" | "i" | monomial
              | "exp" "(" exparg ")" | "(" expr ")"
    monomial := "x" INDEX [ "^" INT ]          e.g. x1, x2^3
    exparg   := ["+"|"-"] expterm { ("+"|"-") expterm }
    expterm  := expfactor { "*" expfactor }
    expfactor:= scalar | "pi" | "i"
              | matrix "[" "x" "," "x" "]"     quadratic form literal
              | vector "." "x"                 linear form literal
    matrix   := "[" "[" REAL {"," REAL} "]" {"," "[" ... "]"} "]"
    vector   := "[" element {"," element} "]"
    element  := signed complex literal         e.g. 1, -0.5, 2i, 1-2i, i
    scalar   := NUMBER [ "i" ]

Numbers accept integer, decimal and exponent forms.  Each expterm may
contain at most one quadratic or linear literal, so the exponent is at
most quadratic in x; the quadratic part must come out real symmetric
negative-pi-definite, i.e. equal to -pi * (x . Q x) with Q positive
definite, or lowering rejects the expression.
"""

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import GaussPoly, GaussTerm, exp_in_range
from .errors import DimensionMismatch, ParseError, SpdError
from .linalg import SpdForm
from .polynomial import Polynomial
from .serialization import format_float, matrix_text

# ---------------------------------------------------------------------------
# tokens


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
    | (?P<name>[A-Za-z]+\d*)
    | (?P<sym>[-+*^()\[\],.])
    """,
    re.VERBOSE,
)

@dataclass(slots=True)
class Token:
    kind: str
    value: object
    line: int
    col: int


def tokenize(text):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"illegal character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            if m.lastgroup == "number":
                value = float(lexeme)
                if not math.isfinite(value):
                    raise ParseError(f"number {lexeme} is out of range", line, col)
                tokens.append(Token("NUMBER", value, line, col))
            elif lexeme[0] == "x" and lexeme[1:].isdigit():
                tokens.append(Token("XVAR", int(lexeme[1:]), line, col))
            elif m.lastgroup == "sym" or lexeme in ("exp", "pi", "i", "x"):
                tokens.append(Token(lexeme, lexeme, line, col))  # its own kind
            else:
                raise ParseError(f"unknown name {lexeme!r}", line, col)
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("EOF", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST; every node's pos is the (line, col) of its first token


@dataclass(slots=True)
class Sum:
    pos: tuple
    parts: tuple  # (sign, node) pairs


@dataclass(slots=True)
class Product:
    pos: tuple
    factors: tuple


@dataclass(slots=True)
class Scalar:
    pos: tuple
    value: complex


@dataclass(slots=True)
class Monomial:
    pos: tuple
    index: int  # 1-based axis
    power: int


@dataclass(slots=True)
class ExpNode:
    pos: tuple
    arg: Sum  # over exp factors


@dataclass(slots=True)
class QuadApply:
    """A matrix literal applied as a quadratic form: [[...]][x,x]."""

    pos: tuple
    matrix: tuple


@dataclass(slots=True)
class DotApply:
    """A vector literal dotted with the variable: [...].x"""

    pos: tuple
    vector: tuple


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.k = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.k + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.k]
        if tok.kind != "EOF":
            self.k += 1
        return tok

    def error(self, expected):
        tok = self.peek()
        got = "end of input" if tok.kind == "EOF" else repr(tok.value)
        raise ParseError(f"unexpected {got}", tok.line, tok.col, expected)

    def expect(self, kind, description):
        if self.peek().kind != kind:
            self.error((description,))
        return self.advance()

    # expr level ---------------------------------------------------------

    def parse_expr(self):
        node = self.sum(in_exp=False)
        if self.peek().kind != "EOF":
            self.error(("operator", "end of input"))
        return node

    def sum(self, in_exp):
        start = self.peek()
        parts = [(self.sign(), self.product(in_exp))]
        while self.peek().kind in ("+", "-"):
            parts.append((self.sign(), self.product(in_exp)))
        return Sum((start.line, start.col), tuple(parts))

    def product(self, in_exp):
        start = self.peek()
        factors = [self.factor(in_exp)]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.factor(in_exp))
        return Product((start.line, start.col), tuple(factors))

    def factor(self, in_exp):
        tok = self.peek()
        pos = (tok.line, tok.col)
        if tok.kind in ("NUMBER", "i"):
            return Scalar(pos, self.element_part(1.0, allow_complex=True)[0])
        if tok.kind == "pi":
            self.advance()
            return Scalar(pos, complex(math.pi))
        if tok.kind == "XVAR":
            self.advance()
            power = 1
            if self.peek().kind == "^":
                self.advance()
                power = self.nonnegative_int("monomial exponent")
            if tok.value < 1:
                raise ParseError("variable indices start at x1", tok.line, tok.col)
            return Monomial(pos, tok.value, power)
        if tok.kind == "exp":
            self.advance()
            self.expect("(", "'('")
            arg = self.sum(in_exp=True)
            self.expect(")", "')'")
            return ExpNode(pos, arg)
        if tok.kind == "(" and not in_exp:
            self.advance()
            inner = self.sum(in_exp=False)
            self.expect(")", "')'")
            return inner
        if tok.kind == "[" and in_exp:
            return self.bracket_literal()
        expected = ["number", "'pi'", "'i'", "'exp('"]
        expected.append("matrix or vector literal" if in_exp else "'x<k>'")
        if not in_exp:
            expected.append("'('")
        self.error(tuple(expected))

    # literals -------------------------------------------------------------

    def bracket_literal(self):
        tok = self.peek()
        pos = (tok.line, tok.col)
        if self.peek(1).kind == "[":
            matrix = self.matrix_literal()
            self.expect("[", "'[x,x]'")
            self.expect("x", "'x'")
            self.expect(",", "','")
            self.expect("x", "'x'")
            self.expect("]", "']'")
            return QuadApply(pos, tuple(map(tuple, matrix)))
        vector = self.vector_literal(allow_complex=True)
        self.expect(".", "'.x'")
        self.expect("x", "'x'")
        return DotApply(pos, tuple(vector))

    def comma_list(self, read):
        values = [read()]
        while self.peek().kind == ",":
            self.advance()
            values.append(read())
        return values

    def matrix_literal(self):
        open_tok = self.expect("[", "'['")
        rows = self.comma_list(lambda: self.vector_literal(allow_complex=False))
        self.expect("]", "']'")
        if any(len(r) != len(rows) for r in rows):
            raise ParseError(
                f"matrix literal must be square, got rows of lengths "
                f"{[len(r) for r in rows]}",
                open_tok.line,
                open_tok.col,
            )
        return [[v.real for v in row] for row in rows]

    def vector_literal(self, allow_complex):
        self.expect("[", "'['")
        values = self.comma_list(lambda: self.element(allow_complex))
        self.expect("]", "']'")
        return values

    def sign(self):
        if self.peek().kind in ("+", "-"):
            return -1.0 if self.advance().kind == "-" else 1.0
        return 1.0

    def element(self, allow_complex):
        value, imaginary = self.element_part(self.sign(), allow_complex)
        if allow_complex and not imaginary and self.peek().kind in ("+", "-"):
            second, imaginary = self.element_part(self.sign(), allow_complex=True)
            if not imaginary:
                tok = self.peek()
                raise ParseError(
                    "second part of a complex element must be imaginary", tok.line, tok.col
                )
            value += second
        return value

    def element_part(self, sign, allow_complex):
        """One signed number or imaginary number, and whether it was imaginary."""
        tok = self.peek()
        num = 1.0 if tok.kind == "i" else self.expect("NUMBER", "number").value
        if self.peek().kind != "i":
            return complex(sign * num), False
        if not allow_complex:
            raise ParseError("number must be real", tok.line, tok.col)
        self.advance()
        return sign * num * 1j, True

    def nonnegative_int(self, description):
        """A NUMBER token with an integral value; NUMBER tokens carry no sign."""
        tok = self.expect("NUMBER", description)
        if tok.value != int(tok.value):
            raise ParseError(f"{description} must be a nonnegative integer", tok.line, tok.col)
        return int(tok.value)


def parse(text):
    """Parse source text into an AST; raises ParseError with position."""
    return _Parser(tokenize(text)).parse_expr()


def parse_literal(text, kind, single=False):
    """Read all of ``text`` as literal values of the language.

    ``kind`` is ``"matrix"`` (a square matrix literal, returned as real
    rows), ``"complex"`` or ``"real"`` (elements as in a vector literal,
    comma separated, without brackets) or ``"index"`` (nonnegative
    integers, as in a monomial exponent).  Returns the list of values, or
    with ``single`` the one value.  Raises ParseError with its position in
    ``text`` on anything else, trailing input included.
    """
    p = _Parser(tokenize(text))
    if kind == "matrix":
        value = p.matrix_literal()
    else:
        read = {
            "complex": lambda: p.element(allow_complex=True),
            "real": lambda: p.element(allow_complex=False).real,
            "index": lambda: p.nonnegative_int("index"),
        }[kind]
        value = read() if single else p.comma_list(read)
    p.expect("EOF", "end of input")
    return value


# ---------------------------------------------------------------------------
# direct AST interpretation (used to cross-check lowering)


def evaluate_ast(node, point):
    """Evaluate the parsed expression directly at a complex point."""
    z = np.asarray(point, dtype=complex)
    if isinstance(node, Sum):
        return sum(s * evaluate_ast(child, z) for s, child in node.parts)
    if isinstance(node, Product):
        out = 1.0 + 0j
        for child in node.factors:
            out *= evaluate_ast(child, z)
        return out
    if isinstance(node, Scalar):
        return node.value
    if isinstance(node, Monomial):
        if node.index > z.shape[0]:
            raise DimensionMismatch(f"x{node.index} exceeds dimension {z.shape[0]}")
        return z[node.index - 1] ** node.power
    if isinstance(node, ExpNode):
        return cmath.exp(evaluate_ast(node.arg, z))
    if isinstance(node, QuadApply):
        m = np.asarray(node.matrix, dtype=float)
        if m.shape[0] != z.shape[0]:
            raise DimensionMismatch("matrix literal does not match the point dimension")
        return complex(z @ m @ z)
    if isinstance(node, DotApply):
        v = np.asarray(node.vector, dtype=complex)
        if v.shape[0] != z.shape[0]:
            raise DimensionMismatch("vector literal does not match the point dimension")
        return complex(v @ z)
    raise TypeError(f"cannot evaluate node {node!r}")


# ---------------------------------------------------------------------------
# lowering


def _scan_dims(node, literal_dims, max_index):
    if isinstance(node, Sum):
        for _, child in node.parts:
            max_index = _scan_dims(child, literal_dims, max_index)
    elif isinstance(node, Product):
        for child in node.factors:
            max_index = _scan_dims(child, literal_dims, max_index)
    elif isinstance(node, ExpNode):
        max_index = _scan_dims(node.arg, literal_dims, max_index)
    elif isinstance(node, Monomial):
        max_index = max(max_index, node.index)
    elif isinstance(node, QuadApply):
        literal_dims.add(len(node.matrix))
    elif isinstance(node, DotApply):
        literal_dims.add(len(node.vector))
    return max_index


@dataclass(slots=True)
class _Piece:
    """One additive piece during lowering: polynomial times exp(x.Ex + l.x)."""

    poly: Polynomial
    equad: object = None  # complex (n, n) or None if no exp factor yet
    elin: object = None  # complex (n,) or None

    def times(self, other):
        poly = self.poly * other.poly
        present = [piece for piece in (self, other) if piece.equad is not None]
        if not present:
            return _Piece(poly)
        return _Piece(poly, sum(p.equad for p in present), sum(p.elin for p in present))


def _lower_exp_arg(arg, dim):
    """Collapse an exponent Sum into (quadratic matrix, linear vector, constant)."""
    equad = np.zeros((dim, dim), dtype=complex)
    elin = np.zeros(dim, dtype=complex)
    const = 0j
    for sign, item in arg.parts:
        coeff = complex(sign)
        structural = None
        for fac in item.factors:
            if isinstance(fac, Scalar):
                coeff *= fac.value
            elif isinstance(fac, (QuadApply, DotApply)):
                if structural is not None:
                    raise ParseError(
                        "exponent term may contain at most one [x,x] or .x factor",
                        fac.pos[0],
                        fac.pos[1],
                    )
                structural = fac
            else:
                raise ParseError(
                    "exponent must be a linear combination of scalars, [x,x] and .x terms",
                    fac.pos[0],
                    fac.pos[1],
                )
        if structural is None:
            const += coeff
        elif isinstance(structural, QuadApply):
            m = np.asarray(structural.matrix, dtype=float)
            if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
                raise SpdError("matrix literal in an exponent must be symmetric")
            equad = equad + coeff * m
        else:
            elin = elin + coeff * np.asarray(structural.vector, dtype=complex)
    return equad, elin, const


def _lower_node(node, dim):
    """Return the sum-of-pieces normal form of a node."""
    if isinstance(node, Sum):
        pieces = []
        for sign, child in node.parts:
            for piece in _lower_node(child, dim):
                if sign < 0:
                    piece = _Piece(piece.poly * -1.0, piece.equad, piece.elin)
                pieces.append(piece)
        return pieces
    if isinstance(node, Product):
        pieces = _lower_node(node.factors[0], dim)
        for child in node.factors[1:]:
            nxt = _lower_node(child, dim)
            pieces = [a.times(b) for a in pieces for b in nxt]
        return pieces
    if isinstance(node, Scalar):
        return [_Piece(Polynomial.constant(dim, node.value))]
    if isinstance(node, Monomial):
        alpha = tuple(node.power if j == node.index - 1 else 0 for j in range(dim))
        return [_Piece(Polynomial.monomial(dim, alpha))]
    # The parser admits [x,x] and .x literals only inside exp(...): node is an ExpNode.
    equad, elin, const = _lower_exp_arg(node.arg, dim)
    return [_Piece(Polynomial.constant(dim, exp_in_range(const)), equad, elin)]


def lower(ast, dim=None):
    """Lower a parsed expression to a canonical function.

    The dimension is inferred from matrix/vector literals when present;
    literals of different sizes in one expression are an error rather
    than broadcast.  Every additive piece must carry a Gaussian factor
    whose quadratic part is -pi times an SPD form.
    """
    literal_dims = set()
    max_index = _scan_dims(ast, literal_dims, 0)
    if len(literal_dims) > 1:
        raise DimensionMismatch(
            f"matrix/vector literals disagree on dimension: {sorted(literal_dims)}"
        )
    lit = literal_dims.pop() if literal_dims else None
    if dim is None:
        dim = lit if lit is not None else (max_index or None)
        if dim is None:
            raise DimensionMismatch("cannot infer dimension: no literals or variables")
    elif lit is not None and lit != dim:
        raise DimensionMismatch(f"literals have dimension {lit}, expected {dim}")
    if max_index > dim:
        raise DimensionMismatch(f"x{max_index} exceeds dimension {dim}")

    terms = []
    for piece in _lower_node(ast, dim):
        if not piece.poly:
            continue
        if piece.equad is None:
            raise SpdError(
                "every additive term needs a decaying Gaussian factor exp(-pi*Q[x,x] + ...)"
            )
        scale = max(1.0, float(np.max(np.abs(piece.equad))))
        if float(np.max(np.abs(piece.equad.imag))) > 1e-12 * scale:
            raise SpdError("quadratic part of an exponent must be real")
        quad = SpdForm(-piece.equad.real / math.pi)
        terms.append(GaussTerm(piece.poly, quad, piece.elin))
    return GaussPoly(dim, terms).canonical()


# ---------------------------------------------------------------------------
# formatting (pretty-printer; parses back to the same canonical form)


def format_complex(z, digits=6):
    """A scalar in literal syntax: 2, -0.5, 2i, 1+2i, 1-2i, i, -i."""
    z = complex(z)
    if z.imag == 0:
        return format_float(z.real, digits)
    mag = format_float(abs(z.imag), digits)
    imag = ("+" if z.imag > 0 else "-") + ("i" if mag == "1" else mag + "i")
    if z.real == 0:
        return imag.lstrip("+")
    return format_float(z.real, digits) + imag


def _format_monomial(alpha):
    parts = []
    for j, e in enumerate(alpha):
        if e == 1:
            parts.append(f"x{j + 1}")
        elif e > 1:
            parts.append(f"x{j + 1}^{e}")
    return "*".join(parts)


def _signed_piece(alpha, c, digits, tail=()):
    """(sign, text) of c * x^alpha * tail.  The minus of a real or
    pure-imaginary c is pulled out, a c that mixes both is parenthesized,
    and a unit coefficient is left out unless it is the whole piece."""
    z = complex(c)
    negative = (z.imag == 0 and z.real < 0) or (z.real == 0 and z.imag < 0)
    z = -z if negative else z
    coeff = format_complex(z, digits)
    if z.imag != 0 and z.real != 0:
        coeff = f"({coeff})"
    factors = [f for f in (_format_monomial(alpha), *tail) if f]
    if coeff != "1" or not factors:
        factors.insert(0, coeff)
    return -1 if negative else 1, "*".join(factors)


def _signed_sum(pieces):
    """Join (sign, text) pieces: a leading '-' only if the first is
    negative, then '+ ' or '- ' before each further piece."""
    out = []
    for k, (sign, text) in enumerate(pieces):
        if k == 0:
            out.append(text if sign > 0 else f"-{text}")
        else:
            out.append(("+ " if sign > 0 else "- ") + text)
    return " ".join(out)


def _format_exponent(term, digits):
    text = f"-pi*{matrix_text(term.quad.entries, digits)}[x,x]"
    if np.any(term.shift != 0):
        vec = ",".join(format_complex(v, digits) for v in term.shift)
        text += f" + [{vec}].x"
    return f"exp({text})"


def format_function(f, digits=6):
    """Canonical pretty-print; the output parses and lowers back to f."""
    fc = f.canonical()
    if fc.is_zero:
        return "0"
    rendered = []
    for term in fc.terms:
        expo = _format_exponent(term, digits)
        items = term.poly.items_graded()
        if len(items) == 1:
            rendered.append(_signed_piece(*items[0], digits, (expo,)))
        else:
            inner = _signed_sum([_signed_piece(alpha, c, digits) for alpha, c in items])
            rendered.append((1, f"({inner})*{expo}"))
    return _signed_sum(rendered)
