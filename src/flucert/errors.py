"""Exception hierarchy shared across the toolkit, and its one count check.

Every size, count and index a caller passes in enters through ``whole``.
It accepts Python and NumPy integers only: never a bool, and never a float,
not even a whole one such as 4.0.  Anything else, and an integer outside the
range the argument allows, raises ``DomainError`` naming the argument, so no
count is truncated and none fails deeper in.
"""

import math
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
