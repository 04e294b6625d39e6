"""Exception hierarchy shared across the toolkit, and its two argument checks.

Every size, count and index a caller passes in enters through ``whole``.
It accepts Python and NumPy integers only: never a bool, and never a float,
not even a whole one such as 4.0.  Every scalar real parameter (a strength,
an affinity, a confidence, a scale) enters through ``real``.  It accepts
Python and NumPy real numbers only: never a bool, a str, None or an array,
and never NaN.  Anything else, and a number outside the interval the
argument allows, raises ``DomainError`` naming the argument and the
interval, so no argument is truncated or coerced and none fails deeper in.
"""

import math
import numbers
import operator


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


class NumericError(CertToolError):
    """A numerical result overflowed or lost its accuracy."""


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
    if (low < x or x == low and ends[0] == "[") and (
        x < high or x == high and ends[1] == "]"
    ):
        return x
    span = f"{ends[0]}{low:g}, {high:g}{ends[1]}"
    raise DomainError(f"need a real {name} in {span}, got {value!r}")
