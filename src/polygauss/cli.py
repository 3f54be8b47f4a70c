"""Command-line front end.

Inputs may be JSON files in the interchange schema, ``-`` for stdin, or
inline expressions in the textual language (anything that is not an
existing path).  Option values are literals of the same language, read by
``exprlang.parse_literal``: ``--a``/``--b`` are comma-separated complex
elements (``1+2i,0``), ``--alpha`` nonnegative integers, ``--matrix`` a
matrix literal (or ``I`` / ``-I``), grid bounds and ``--tol`` real numbers
(``--tol`` > 0); ``nan``, ``inf`` and out-of-range numbers are not numbers.
Sample grids above ``SAMPLE_MAX_POINTS`` points and ``--alpha`` above order
``DIFF_MAX_ORDER`` are ``error[range]``, refused before any work on them.
Results are written as canonical JSON, CSV or expression text.  Exit
codes: 0 success, 1 verification failure, 2 usage or input errors, a
malformed option value included (``error[parse]``).  Errors carry a
machine-readable code on stderr: the ``code`` of the error's class, ``io``
for an operating-system error.

Every command is declared once, in ``_COMMANDS``; the argparse parser and
the dispatch are built from that table once per process.
"""

import argparse
import math
import os
import sys
from functools import partial

import numpy as np

from . import exprlang, quadrature, serialization, transform
from . import multiindex as mi
from .basis import function_to_derivative_basis
from .core import DIFF_MAX_ORDER, coefficient_distance
from .errors import DimensionMismatch, ParseError, PolyGaussError, RangeError, SchemaError
from .linalg import LinearMap

SAMPLE_MAX_POINTS = 1 << 18  # over all axes: 512 x 512 in 2-D, 64^3 in 3-D

_VERIFY_DEFAULT_TOL = {"ft": 1e-6, "conv": 1e-6, "plancherel": 1e-9, "deriv": 1e-6}


def _load_function(token):
    if token == "-":
        return serialization.function_from_json(sys.stdin.read())
    if os.path.exists(token):
        with open(token, "r", encoding="utf-8") as fh:
            return serialization.function_from_json(fh.read())
    if token.endswith(".json"):
        raise SchemaError(f"input file not found: {token}")
    return exprlang.lower(exprlang.parse(token))


def _write(text, destination):
    if destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _read(flag, kind, text, single=False):
    """An option value in the expression language's literal syntax.

    The option readers run as argparse ``type`` functions.  argparse turns
    a ValueError there into a usage error, but lets a ParseError through to
    ``main``, which reports it as ``error[parse]``.
    """
    try:
        return exprlang.parse_literal(text, kind, single)
    except ParseError as exc:
        raise ParseError(f"{flag} {text!r}: {exc}") from None


def _matrix(text):
    """A matrix literal, or I / -I as the signed identity (a 0-d array)."""
    if text in ("I", "-I"):
        return np.array(-1.0 if text == "-I" else 1.0)
    return np.array(_read("--matrix", "matrix", text))


def _grid(text, flag="--grid"):
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"{flag} {text!r}: grid must be lo:hi:steps")
    lo, hi = (_read(flag, "real", part, single=True) for part in parts[:2])
    steps = _read(flag, "index", parts[2], single=True)
    if steps < 1:
        raise ParseError(f"{flag} {text!r}: grid needs at least one step")
    _check_grid_points(steps)
    return np.linspace(lo, hi, steps)


def _check_grid_points(points):
    if points > SAMPLE_MAX_POINTS:
        raise RangeError(f"sample grid has {points} points, above the cap of {SAMPLE_MAX_POINTS}")


def _alpha(text):
    alpha = _read("--alpha", "index", text)
    if sum(alpha) > DIFF_MAX_ORDER:
        raise RangeError(f"--alpha {text!r}: order above the cap of {DIFF_MAX_ORDER}")
    return alpha


def _axis(text):
    """J=lo:hi:steps -> (J, grid); J is checked against the input's dimension later."""
    if "=" not in text:
        raise ParseError(f"--axis {text!r}: axis spec must be J=lo:hi:steps")
    axis_text, grid_text = text.split("=", 1)
    return _read("--axis", "index", axis_text, single=True), _grid(grid_text, "--axis")


def _tolerance(text):
    tol = _read("--tol", "real", text, single=True)
    if tol <= 0:
        raise ParseError(f"--tol {text!r}: tolerance must be > 0")
    return tol


# ---------------------------------------------------------------------------
# commands


def _on_input(op, render=serialization.function_to_json, inputs=("input",)):
    """The handler of a command on the inputs named: writes render(op(*functions, args))."""

    def handler(args):
        functions = [_load_function(getattr(args, name)) for name in inputs]
        _write(render(op(*functions, args)) + "\n", args.output)
        return 0

    return handler


def _compose(f, m):
    return f.compose_linear(LinearMap(m * np.eye(f.dim) if m.ndim == 0 else m))


def _cmd_sample(args):
    f = _load_function(args.input)
    grids = [args.grid] * f.dim
    for axis, grid in args.axis or ():
        if not 1 <= axis <= f.dim:
            raise DimensionMismatch(f"axis {axis} out of range 1..{f.dim}")
        grids[axis - 1] = grid
    if any(g is None for g in grids):
        raise ParseError("every axis needs a grid; pass --grid or --axis")
    _check_grid_points(math.prod(len(g) for g in grids))

    points = quadrature.mesh(grids)
    values = f.evaluate_many(points)
    header = [f"x{j + 1}" for j in range(f.dim)] + ["re", "im"]
    rows = []
    for k in range(points.shape[0]):
        row = [serialization.format_float(points[k, j].real) for j in range(f.dim)]
        row.append(serialization.format_float(values[k].real))
        row.append(serialization.format_float(values[k].imag))
        rows.append(row)
    _write(serialization.csv_grid(header, rows), args.output)
    return 0


def _sample_frequencies(dim):
    pts = [np.zeros(dim)]
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 0.5
        pts.extend([e, -e])
    pts.append(np.full(dim, 1.0 / np.sqrt(dim)))
    return pts


def _cmd_verify(args):
    f = _load_function(args.input)
    claim = _load_function(args.against) if args.against else None
    if claim is not None and claim.dim != f.dim:
        raise DimensionMismatch("function dimensions differ")
    tol = args.tol if args.tol is not None else _VERIFY_DEFAULT_TOL[args.rule]

    if args.rule == "ft":
        fhat = transform.fourier_transform(f)
        target = claim if claim is not None else fhat
        residual = coefficient_distance(fhat, target) if claim is not None else 0.0
        xis = _sample_frequencies(f.dim)
        for xi, numeric in zip(xis, quadrature.fourier_values(f, xis)):
            residual = max(residual, abs(target.evaluate(xi) - numeric))
    elif args.rule == "plancherel":
        lhs = transform.inner_product(f, f)
        fhat = claim if claim is not None else transform.fourier_transform(f)
        rhs = transform.inner_product(fhat, fhat)
        residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    elif args.rule == "deriv":
        if claim is not None:
            raise SchemaError("verify --rule deriv takes one input")
        residual = 0.0
        points = [np.full(f.dim, v) for v in (-0.75, 0.0, 0.5, 1.0)]
        for axis in range(f.dim):
            sym = f.differentiate(mi.unit(f.dim, axis))
            for x in points:
                fd = quadrature.finite_difference(f, axis, x)
                exact = sym.evaluate(x)
                residual = max(residual, abs(exact - fd) / (1.0 + abs(exact)))
    else:  # conv
        if claim is None:
            raise SchemaError("verify --rule conv needs two inputs")
        g = claim
        spectral = transform.convolve(f, g)
        residual = 0.0
        for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
            x = np.full(f.dim, v)
            numeric = quadrature.quad_convolve(f, g, x)
            residual = max(residual, abs(spectral.evaluate(x) - numeric))

    passed = residual <= tol
    print(f"rule={args.rule} residual={residual:.6e} tol={tol:.1e} status={'pass' if passed else 'fail'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# the command table: every command, its arguments and its handler, once


def _option(flag, reader, help):
    return (flag,), {"required": True, "type": reader, "help": help}


_INPUT = ("input",), {}
_OUTPUT = ("-o", "--output"), {"default": "-", "help": "output path, '-' for stdout"}
_UNARY = (_INPUT, _OUTPUT)
_BINARY = (("first",), {}), (("second",), {}), _OUTPUT
_PAIR = ("first", "second")

# name, help, arguments as (argparse flags, keywords), handler(args) -> exit code
_COMMANDS = (
    ("ft", "Fourier transform", _UNARY,
     _on_input(lambda f, a: transform.fourier_transform(f))),
    ("ift", "inverse Fourier transform", _UNARY,
     _on_input(lambda f, a: transform.inverse_transform(f))),
    ("diff", "mixed partial derivative",
     (_option("--alpha", _alpha, "multi-index, e.g. 2,0"),
      *_UNARY),
     _on_input(lambda f, a: f.differentiate(a.alpha))),
    ("translate", "shift the argument by a",
     (_option("--a", partial(_read, "--a", "complex"), "vector, e.g. 1,0 or 1+2i,0"),
      *_UNARY),
     _on_input(lambda f, a: f.translate(a.a))),
    ("modulate", "multiply by exp(-2 pi i x.b)",
     (_option("--b", partial(_read, "--b", "complex"), "vector, e.g. 1,0"), *_UNARY),
     _on_input(lambda f, a: f.modulate(a.b))),
    ("compose", "compose with a linear map",
     (_option("--matrix", _matrix, "matrix literal, e.g. [[0,1],[1,0]], or I / -I"),
      *_UNARY),
     _on_input(lambda f, a: _compose(f, a.matrix))),
    ("conv", "convolution", _BINARY,
     _on_input(lambda f, g, a: transform.convolve(f, g), inputs=_PAIR)),
    ("mul", "pointwise product", _BINARY, _on_input(lambda f, g, a: f * g, inputs=_PAIR)),
    ("inner", "L2 inner product", _BINARY,
     _on_input(lambda f, g, a: transform.inner_product(f, g), serialization.complex_to_json,
               _PAIR)),
    ("integral", "integral over R^n", _UNARY,
     _on_input(lambda f, a: transform.integral(f), serialization.complex_to_json)),
    ("to-deriv-basis", "derivative-basis expansion per term", _UNARY,
     _on_input(lambda f, a: function_to_derivative_basis(f),
               serialization.expansions_to_json)),
    ("verify", "check an identity; exit 1 on failure",
     ((("--rule",), {"required": True, "choices": tuple(_VERIFY_DEFAULT_TOL)}),
      (("--tol",), {"type": _tolerance, "default": None}),
      _INPUT,
      (("against",), {"nargs": "?", "default": None,
                      "help": "claimed transform (ft/plancherel) or second function (conv)"})),
     _cmd_verify),
    ("sample", "evaluate on a grid, emit CSV",
     ((("--grid",), {"type": _grid, "default": None, "help": "lo:hi:steps for every axis"}),
      (("--axis",), {"type": _axis, "action": "append", "default": None,
                     "help": "J=lo:hi:steps override"}),
      *_UNARY),
     _cmd_sample),
    ("fmt", "canonical pretty-print", _UNARY, _on_input(lambda f, a: f, exprlang.format_function)),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polygauss",
        description="Exact Fourier calculus on sums of polynomial-times-Gaussian terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc, arguments, handler in _COMMANDS:
        p = sub.add_parser(name, help=doc)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(handler=handler)
    return parser


# Built once per process: building costs far more than one parse.
_PARSER = _build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)  # option values are read here
        return args.handler(args)
    except PolyGaussError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect: still report a code, not a traceback
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
