"""JSON interchange and CSV emission.

Function schema::

    {"dim": n,
     "terms": [{"poly":  [{"alpha": [ints], "re": float, "im": float}],
                "quad":  [[row-major floats]],
                "shift": [{"re": float, "im": float}]}]}

Derivative-basis expansions serialize as
``{"quad": ..., "shift": ..., "coeffs": [{"beta": [ints], "re": ..., "im": ...}]}``.
All floats are written in decimal with 17 significant digits, which
round-trips IEEE-754 doubles exactly; output is a single line ended by LF.
"""

import cmath
import json

import numpy as np

from . import multiindex as mi
from .core import GaussPoly, GaussTerm
from .errors import SchemaError
from .linalg import SpdForm
from .polynomial import Polynomial


def format_float(x):
    x = float(x)
    if not np.isfinite(x):
        raise SchemaError(f"non-finite value {x!r} cannot be serialized")
    if x == 0.0:  # normalize -0.0
        return "0"
    return format(x, ".17g")


def _coeffs_json(key, items):
    """The list [{"<key>":[ints],"re":..,"im":..}, ...] of (multi-index, coefficient) items."""
    return "[" + ",".join(
        '{"%s":[%s],"re":%s,"im":%s}'
        % (key, ",".join(str(a) for a in alpha), format_float(c.real), format_float(c.imag))
        for alpha, c in items
    ) + "]"


def _matrix_json(entries):
    rows = []
    for row in entries:
        rows.append("[" + ",".join(format_float(v) for v in row) + "]")
    return "[" + ",".join(rows) + "]"


def _vector_json(vec):
    return "[" + ",".join(complex_to_json(v) for v in vec) + "]"


def function_to_json(f):
    """Serialize the canonical form of f."""
    fc = f.canonical()
    terms = []
    for t in fc.terms:
        poly = _coeffs_json("alpha", t.poly.items_graded())
        terms.append(
            '{"poly":%s,"quad":%s,"shift":%s}'
            % (poly, _matrix_json(t.quad.entries), _vector_json(t.shift))
        )
    return '{"dim":%d,"terms":[%s]}' % (fc.dim, ",".join(terms))


def complex_to_json(z):
    z = complex(z)
    return '{"re":%s,"im":%s}' % (format_float(z.real), format_float(z.imag))


def expansion_to_json(expansion):
    items = sorted(expansion.coeffs.items(), key=lambda kv: mi.grlex_key(kv[0]))
    return '{"quad":%s,"shift":%s,"coeffs":%s}' % (
        _matrix_json(expansion.quad.entries),
        _vector_json(expansion.shift),
        _coeffs_json("beta", items),
    )


def expansions_to_json(expansions):
    return "[" + ",".join(expansion_to_json(e) for e in expansions) + "]"


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _parse_complex_obj(obj, where):
    _require(isinstance(obj, dict), f"{where}: expected an object with re/im")
    _require(set(obj) == {"re", "im"}, f"{where}: expected exactly the keys re, im")
    _require(
        all(isinstance(obj[k], (int, float)) and not isinstance(obj[k], bool) for k in obj),
        f"{where}: re and im must be numbers",
    )
    try:
        value = complex(obj["re"], obj["im"])
    except OverflowError:  # an integer beyond the float range
        value = complex(cmath.inf)
    _require(cmath.isfinite(value), f"{where}: re and im must be finite")
    return value


def function_from_json(text):
    """Parse and validate a function document; result is canonical."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    _require(isinstance(doc, dict), "top level must be an object")
    _require(set(doc) == {"dim", "terms"}, "top level must have exactly dim and terms")
    dim = doc["dim"]
    _require(isinstance(dim, int) and dim >= 1, "dim must be a positive integer")
    _require(isinstance(doc["terms"], list), "terms must be a list")

    terms = []
    for k, entry in enumerate(doc["terms"]):
        where = f"terms[{k}]"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        _require(
            set(entry) == {"poly", "quad", "shift"},
            f"{where}: expected exactly poly, quad, shift",
        )
        _require(isinstance(entry["poly"], list) and entry["poly"], f"{where}: poly must be a nonempty list")
        coeffs = {}
        for i, item in enumerate(entry["poly"]):
            spot = f"{where}.poly[{i}]"
            _require(isinstance(item, dict), f"{spot}: expected an object")
            _require(set(item) == {"alpha", "re", "im"}, f"{spot}: expected alpha, re, im")
            alpha = item["alpha"]
            _require(
                isinstance(alpha, list)
                and len(alpha) == dim
                and all(isinstance(a, int) and a >= 0 for a in alpha),
                f"{spot}: alpha must be a list of {dim} nonnegative integers",
            )
            value = _parse_complex_obj({"re": item["re"], "im": item["im"]}, spot)
            coeffs[tuple(alpha)] = coeffs.get(tuple(alpha), 0j) + value
        quad = entry["quad"]
        _require(
            isinstance(quad, list)
            and len(quad) == dim
            and all(isinstance(r, list) and len(r) == dim for r in quad),
            f"{where}: quad must be a {dim}x{dim} matrix",
        )
        shift = entry["shift"]
        _require(
            isinstance(shift, list) and len(shift) == dim,
            f"{where}: shift must be a list of {dim} complex objects",
        )
        shift_vec = np.array(
            [_parse_complex_obj(z, f"{where}.shift[{i}]") for i, z in enumerate(shift)]
        )
        try:
            spd = SpdForm(quad)
        except Exception as exc:
            raise SchemaError(f"{where}: {exc}") from None
        terms.append(GaussTerm(Polynomial(dim, coeffs), spd, shift_vec))
    return GaussPoly(dim, terms).canonical()


def csv_grid(header, rows):
    """Assemble a CSV document with LF line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
