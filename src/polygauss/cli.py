"""Command-line front end.

Inputs may be JSON files in the interchange schema, ``-`` for stdin, or
inline expressions in the textual language (anything that is not an
existing path).  Results are written as canonical JSON, CSV or expression
text.  Exit codes: 0 success, 1 verification failure, 2 usage or input
errors.  Errors carry a machine-readable code on stderr.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import exprlang, quadrature, serialization, transform
from .basis import function_to_derivative_basis
from .core import coefficient_distance
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
from .linalg import LinearMap

_ERROR_CODES = (
    (ParseError, "parse"),
    (SchemaError, "schema"),
    (DimensionMismatch, "dim"),
    (SpdError, "spd"),
    (SingularMap, "singular"),
    (SolveFailure, "solve"),
    (SpecRejected, "quadrature"),
    (RangeError, "range"),
)

_VERIFY_DEFAULT_TOL = {"ft": 1e-6, "conv": 1e-6, "plancherel": 1e-9, "deriv": 1e-6}


def _error_code(exc):
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "internal"


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


def _emit_function(f, destination):
    _write(serialization.function_to_json(f) + "\n", destination)


def _parse_scalar(text):
    """A complex scalar like 1, -2.5, 2i, 1-2i, i."""
    cleaned = text.strip().replace(" ", "")
    if not cleaned:
        raise ParseError("empty scalar", 1, 1)
    normalized = cleaned.replace("i", "j")
    if normalized in ("j", "+j"):
        normalized = "1j"
    elif normalized == "-j":
        normalized = "-1j"
    else:
        normalized = normalized.replace("+j", "+1j").replace("-j", "-1j")
    try:
        return complex(normalized)
    except ValueError:
        raise ParseError(f"cannot parse scalar {text!r}", 1, 1) from None


def _parse_vector(text):
    return np.array([_parse_scalar(part) for part in text.split(",")], dtype=complex)


def _parse_alpha(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"cannot parse multi-index {text!r}", 1, 1) from None


def _parse_matrix(text, dim):
    if text == "I":
        return LinearMap(np.eye(dim))
    if text == "-I":
        return LinearMap(-np.eye(dim))
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"cannot parse matrix: {exc}", 1, 1) from None
    return LinearMap(np.asarray(rows, dtype=float))


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be lo:hi:steps, got {text!r}", 1, 1)
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"grid must be lo:hi:steps, got {text!r}", 1, 1) from None
    if steps < 1:
        raise ParseError("grid needs at least one step", 1, 1)
    return np.linspace(lo, hi, steps)


# ---------------------------------------------------------------------------
# commands


def _cmd_unary(args):
    f = _load_function(args.input)
    if args.command == "ft":
        result = transform.fourier_transform(f)
    elif args.command == "ift":
        result = transform.inverse_transform(f)
    elif args.command == "diff":
        result = f.differentiate(_parse_alpha(args.alpha))
    elif args.command == "translate":
        result = f.translate(_parse_vector(args.a))
    elif args.command == "modulate":
        result = f.modulate(_parse_vector(args.b))
    elif args.command == "compose":
        result = f.compose_linear(_parse_matrix(args.matrix, f.dim))
    else:
        raise AssertionError(args.command)
    _emit_function(result, args.output)
    return 0


def _cmd_binary(args):
    f = _load_function(args.first)
    g = _load_function(args.second)
    if args.command == "conv":
        _emit_function(transform.convolve(f, g), args.output)
    elif args.command == "mul":
        _emit_function(f * g, args.output)
    else:  # inner
        value = transform.inner_product(f, g)
        _write(serialization.complex_to_json(value) + "\n", args.output)
    return 0


def _cmd_integral(args):
    value = transform.integral(_load_function(args.input))
    _write(serialization.complex_to_json(value) + "\n", args.output)
    return 0


def _cmd_to_deriv_basis(args):
    expansions = function_to_derivative_basis(_load_function(args.input))
    _write(serialization.expansions_to_json(expansions) + "\n", args.output)
    return 0


def _cmd_fmt(args):
    _write(exprlang.format_function(_load_function(args.input)) + "\n", args.output)
    return 0


def _cmd_sample(args):
    f = _load_function(args.input)
    grids = [None] * f.dim
    if args.grid:
        default = _parse_grid(args.grid)
        grids = [default] * f.dim
    for spec in args.axis or ():
        if "=" not in spec:
            raise ParseError(f"axis spec must be J=lo:hi:steps, got {spec!r}", 1, 1)
        axis_text, grid_text = spec.split("=", 1)
        try:
            axis = int(axis_text)
        except ValueError:
            raise ParseError(f"bad axis index {axis_text!r}", 1, 1) from None
        if not 1 <= axis <= f.dim:
            raise DimensionMismatch(f"axis {axis} out of range 1..{f.dim}")
        grids[axis - 1] = _parse_grid(grid_text)
    if any(g is None for g in grids):
        raise ParseError("every axis needs a grid; pass --grid or --axis", 1, 1)

    mesh = np.meshgrid(*grids, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
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
    tol = args.tol if args.tol is not None else _VERIFY_DEFAULT_TOL[args.rule]

    if args.rule == "ft":
        fhat = transform.fourier_transform(f)
        target = claim if claim is not None else fhat
        residual = coefficient_distance(fhat, target) if claim is not None else 0.0
        if f.dim <= 3 and not f.is_zero:
            for xi in _sample_frequencies(f.dim):
                numeric = quadrature.quad_fourier(f, xi)
                residual = max(residual, abs(target.evaluate(xi) - numeric))
    elif args.rule == "plancherel":
        lhs = transform.inner_product(f, f)
        fhat = claim if claim is not None else transform.fourier_transform(f)
        rhs = transform.inner_product(fhat, fhat)
        residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    elif args.rule == "deriv":
        residual = 0.0
        points = [np.full(f.dim, v) for v in (-0.75, 0.0, 0.5, 1.0)]
        for axis in range(f.dim):
            alpha = tuple(1 if j == axis else 0 for j in range(f.dim))
            sym = f.differentiate(alpha)
            for x in points:
                fd = quadrature.finite_difference(f, axis, x, 1e-5)
                residual = max(
                    residual, abs(sym.evaluate(x) - fd) / (1.0 + abs(sym.evaluate(x)))
                )
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
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polygauss",
        description="Exact Fourier calculus on sums of polynomial-times-Gaussian terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")

    for name, doc in (
        ("ft", "Fourier transform"),
        ("ift", "inverse Fourier transform"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("input")
        add_output(p)

    p = sub.add_parser("diff", help="mixed partial derivative")
    p.add_argument("--alpha", required=True, help="multi-index, e.g. 2,0")
    p.add_argument("input")
    add_output(p)

    p = sub.add_parser("translate", help="shift the argument by a")
    p.add_argument("--a", required=True, help="vector, e.g. 1,0 or 1+2i,0")
    p.add_argument("input")
    add_output(p)

    p = sub.add_parser("modulate", help="multiply by exp(-2 pi i x.b)")
    p.add_argument("--b", required=True, help="vector, e.g. 1,0")
    p.add_argument("input")
    add_output(p)

    p = sub.add_parser("compose", help="compose with a linear map")
    p.add_argument("--matrix", required=True, help="JSON rows, or I / -I")
    p.add_argument("input")
    add_output(p)

    for name, doc in (
        ("conv", "convolution"),
        ("mul", "pointwise product"),
        ("inner", "L2 inner product"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("first")
        p.add_argument("second")
        add_output(p)

    p = sub.add_parser("integral", help="integral over R^n")
    p.add_argument("input")
    add_output(p)

    p = sub.add_parser("to-deriv-basis", help="derivative-basis expansion per term")
    p.add_argument("input")
    add_output(p)

    p = sub.add_parser("verify", help="check an identity; exit 1 on failure")
    p.add_argument("--rule", required=True, choices=("ft", "conv", "plancherel", "deriv"))
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("input")
    p.add_argument(
        "against",
        nargs="?",
        default=None,
        help="claimed transform (ft/plancherel) or second function (conv)",
    )

    p = sub.add_parser("sample", help="evaluate on a grid, emit CSV")
    p.add_argument("--grid", default=None, help="lo:hi:steps for every axis")
    p.add_argument("--axis", action="append", help="J=lo:hi:steps override", default=None)
    p.add_argument("input")
    add_output(p)

    p = sub.add_parser("fmt", help="canonical pretty-print")
    p.add_argument("input")
    add_output(p)

    return parser


_DISPATCH = {
    "ft": _cmd_unary,
    "ift": _cmd_unary,
    "diff": _cmd_unary,
    "translate": _cmd_unary,
    "modulate": _cmd_unary,
    "compose": _cmd_unary,
    "conv": _cmd_binary,
    "mul": _cmd_binary,
    "inner": _cmd_binary,
    "integral": _cmd_integral,
    "to-deriv-basis": _cmd_to_deriv_basis,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "fmt": _cmd_fmt,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except PolyGaussError as exc:
        print(f"error[{_error_code(exc)}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect: still report a code, not a traceback
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
