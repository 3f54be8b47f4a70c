"""Multi-index helpers.

A multi-index is a tuple of nonnegative integers, one entry per axis; it
doubles as the exponent vector of a monomial.  Orderings here are graded
lexicographic: first by total degree, then lexicographically.
"""

from operator import add as _add

from .errors import DimensionMismatch


def degree(alpha):
    """Total degree, the sum of the entries."""
    return sum(alpha)


def validate(alpha, dim):
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim:
        raise DimensionMismatch(f"multi-index has length {len(alpha)}, expected {dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be nonnegative: {alpha}")
    return alpha


def zero(dim):
    return (0,) * dim


def unit(dim, axis):
    """Multi-index with a single 1 on the given axis."""
    return tuple(1 if j == axis else 0 for j in range(dim))


def add(a, b):
    return tuple(map(_add, a, b))


def grlex_key(alpha):
    return (sum(alpha), alpha)


def indices_of_degree(dim, d):
    """Yield all multi-indices of exact degree d, lexicographically."""
    if dim == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in indices_of_degree(dim - 1, d - first):
            yield (first,) + rest


def indices_up_to(dim, max_degree):
    """Yield all multi-indices of degree <= max_degree in graded-lex order."""
    for d in range(max_degree + 1):
        yield from indices_of_degree(dim, d)
