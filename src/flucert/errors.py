"""Exception hierarchy shared across the toolkit, and its four argument checks.

Every size, count and index enters through ``whole``: Python and NumPy
integers only, never a bool or a float, not even a whole one such as 4.0.
Every scalar real parameter (a strength, an affinity, a confidence, a scale)
enters through ``real``: Python and NumPy reals only, never a bool, a str,
None, an array or NaN.  Every float array (points, costs, weights, a matrix)
enters through ``reals``: integer and float arrays only, never bool,
complex, str, object or ragged input, and never a NaN entry.  Every argument
of a library type (a ``PointSet``, a ``Density1D``) enters through ``typed``.
Anything else, and a number outside the interval the argument allows,
raises ``DomainError`` naming the argument and the interval (a misshapen
array raises ``ShapeError``), so no argument is truncated or coerced and none
fails deeper in.
The interval of ``reals`` carries each array's overflow bound, worked out from
its shape (and beta, for energies) so that no sum downstream tops ``SAFE_SUM``.
A stream ``rng`` stays duck-typed: entries only draw from it, so a stand-in
that replays fixed raw words serves as well.
"""

import math
import numbers
import operator
import sys

import numpy as np

#: the largest sum an entry check admits; the factor 2 leaves room for rounding
SAFE_SUM = sys.float_info.max / 2


class CertToolError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CertToolError):
    """Invalid experiment or model configuration."""


class DomainError(CertToolError, ValueError):
    """Argument outside the documented domain of an operation."""


class SizeError(ConfigError):
    """Instance size outside an exact solver's supported range."""


class ShapeError(CertToolError, ValueError):
    """Array argument has the wrong shape."""


class RankError(CertToolError):
    """Matrix is singular or rank deficient where full rank is required."""


class DegenerateRegionError(CertToolError):
    """A rejection sampler exhausted its probe budget on a too-small region."""


class InternalConsistencyError(CertToolError):
    """An identity that must hold exactly failed beyond tolerance."""


class InequalityViolationError(CertToolError):
    """A per-sample proof inequality failed; indicates an implementation bug."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


def whole(value, name, low=1, high=math.inf):
    """``operator.index(value)`` if ``value`` is an integer, not a bool, in [low, high).

    Anything else (a bool, any float, NaN, inf, a str, an integer outside the
    range) raises ``DomainError`` naming the argument ``name``.
    """
    if type(value) is not bool:
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if low <= n < high:
                return n
    span = f">= {low}" if high == math.inf else f"in [{low}, {high})"
    raise DomainError(f"need a whole {name} {span}, got {value!r}")


def typed(value, cls, name):
    """``value`` if it is a ``cls``, else ``DomainError`` naming ``name`` and the
    type of ``value``: not its ``repr``, so that no large array is formatted."""
    if isinstance(value, cls):
        return value
    raise DomainError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _inside(x, low, high, ends):
    """Whether ``x`` lies in the interval; NaN never does."""
    return (low < x or x == low and ends[0] == "[") and (
        x < high or x == high and ends[1] == "]"
    )


def real(value, name, low=-math.inf, high=math.inf, ends="()"):
    """``float(value)`` if ``value`` is a real number, not a bool, in the interval.

    ``ends`` holds the interval's brackets, "[" or "(" then "]" or ")"; the
    default interval is every finite real.  Anything else (a bool, a str,
    None, an array, NaN, a number outside the interval) raises
    ``DomainError`` naming the argument ``name``.
    """
    x = value
    if type(x) is not float:  # the hot callers pass Python floats
        is_real = isinstance(x, numbers.Real) and not isinstance(x, bool)
        try:
            x = float(x) if is_real else math.nan
        except OverflowError:  # an int beyond the float range
            x = math.nan
    if _inside(x, low, high, ends):
        return x
    span = f"{ends[0]}{low:g}, {high:g}{ends[1]}"
    raise DomainError(f"need a real {name} in {span}, got {value!r}")


def reals(value, name, shape=None, low=-math.inf, high=math.inf, ends="()"):
    """``value`` as a float64 ndarray (not a copy if it is one) in ``real``'s interval.

    ``shape``, if given, is the shape needed; a None in it admits any length.
    A bool, complex, str, object or ragged input, NaN or an entry outside the
    interval raises ``DomainError`` naming ``name``; a shape that does not
    match raises ``ShapeError``.
    """
    a = value
    if type(a) is not np.ndarray or a.dtype != float:  # the hot callers pass one
        try:
            a = np.asarray(a)
        except ValueError:  # numpy refuses a ragged nest
            raise DomainError(f"{name} must be finite reals, not ragged") from None
        if a.dtype.kind not in "iuf":
            raise DomainError(f"{name} must be finite reals, got dtype {a.dtype}")
        a = np.asarray(a, dtype=float)
    if shape is not None and a.shape != shape and (
        a.ndim != len(shape) or any(s not in (None, t) for s, t in zip(shape, a.shape))
    ):
        raise ShapeError(f"{name} must have shape {shape}, got {a.shape}")
    if a.size:
        # both reductions propagate NaN, so the two ends check every entry
        lo, hi = float(np.minimum.reduce(a, None)), float(np.maximum.reduce(a, None))
        if not (_inside(lo, low, high, ends) and _inside(hi, low, high, ends)):
            raise DomainError(
                f"{name} must be finite reals in {ends[0]}{low:g}, {high:g}{ends[1]}, "
                f"got entries in [{lo:g}, {hi:g}]"
            )
    return a
