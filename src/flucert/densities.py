"""Smooth one-dimensional densities exp(-potential) and their Hellinger affinities.

The densities handled here live on the full line or the half line, have a
smooth potential (negative log-density), and tails that decay faster than any
polynomial.  That decay is what justifies truncating every integral to a fixed
finite window before handing it to the adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtri

from .errors import ConfigError, DomainError, NumericError, whole
from .rng import uniform_open

FULL_LINE = "full-line"
HALF_LINE = "half-line"

#: quadrature error above this raises NumericError
QUAD_TOL = 1e-8
_QUAD_EPS = 1e-12
_TAIL = 40.0

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Density1D:
    """A probability density exp(-potential) on the line or half line.

    ``potential`` takes a float or a float array and returns the same kind:
    the quadrature integrands call it on plain floats, the tests on arrays.
    The built-in potentials are plain arithmetic, which gives the same IEEE
    results on both and avoids NumPy-scalar dispatch in the integrands.
    ``ppf`` is the inverse CDF behind ``sample_iid``.  Every
    integral runs over the fixed window ``quad_range()``: [-40, 40] on the
    line, [0, 41] on the half line.
    """

    name: str
    support: str
    potential: Callable
    ppf: Callable

    def __post_init__(self):
        if self.support not in (FULL_LINE, HALF_LINE):
            raise ConfigError(f"unknown support type {self.support!r}")

    def quad_range(self):
        if self.support == FULL_LINE:
            return (-_TAIL, _TAIL)
        return (0.0, _TAIL + 1.0)


@dataclass(frozen=True)
class AffinityResult:
    """Hellinger affinity with its quadrature error estimate (0 if exact)."""

    rho: float
    quadrature_error_estimate: float

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise DomainError(f"affinity {self.rho} outside [0, 1]")
        if not self.quadrature_error_estimate >= 0.0:  # NaN fails it too
            raise DomainError("error estimate must be nonnegative")


_HALF_GAUSS_CONST = 0.5 * math.log(math.pi / 2.0)

#: the built-in densities, one object per name
_STANDARD = {
    "std-gaussian": Density1D(
        name="std-gaussian",
        support=FULL_LINE,
        potential=lambda x: 0.5 * (x * x) + _HALF_LOG_2PI,
        ppf=ndtri,
    ),
    "exponential-rate-1": Density1D(
        name="exponential-rate-1",
        support=HALF_LINE,
        potential=lambda x: x + 0.0,
        ppf=lambda u: -np.log1p(-np.asarray(u, dtype=float)),
    ),
    # density sqrt(2/pi) * exp(-x^2/2) on [0, inf)
    "half-gaussian": Density1D(
        name="half-gaussian",
        support=HALF_LINE,
        potential=lambda x: 0.5 * (x * x) + _HALF_GAUSS_CONST,
        ppf=lambda u: ndtri(0.5 * (1.0 + np.asarray(u, dtype=float))),
    ),
}


def standard_density(name):
    """Return one of the built-in densities by name."""
    try:
        return _STANDARD[name]
    except KeyError:
        raise ConfigError(
            f"unknown density {name!r}; available: {', '.join(sorted(_STANDARD))}"
        ) from None


def sample_iid(f, n, rng):
    """n independent draws from f; draw i depends only on the stream key and i."""
    return f.ppf(uniform_open(rng, whole(n, "n")))


def integrate(what, *pieces):
    """(value, err) summed over adaptive quadratures of ``(integrand, lo, hi)``.

    Values and error estimates are each summed from 0.0.  The sum is accepted
    only if its error estimate is at most ``QUAD_TOL``, so NaN fails too;
    otherwise ``NumericError`` carries the summed value as ``partial``.
    """
    value = err = 0.0
    for integrand, lo, hi in pieces:
        v, e = quad(integrand, lo, hi, epsabs=_QUAD_EPS, epsrel=_QUAD_EPS, limit=200)
        value += v
        err += e
    if not err <= QUAD_TOL:
        raise NumericError(
            f"quadrature for {what}: error estimate {err:g} above {QUAD_TOL:g}",
            partial=value,
        )
    return value, err


@lru_cache(maxsize=None)
def scaled_affinity(f, eps):
    """Affinity between f and the law of X/(1+eps) for X ~ f.

    The perturbed density is (1+eps) * exp(-potential((1+eps) x)).  The result
    is 1 - O(eps^2) for every density in scope here.
    """
    eps = float(eps)
    if not -0.5 < eps < 0.5:
        raise DomainError(f"scaling eps must lie in (-1/2, 1/2), got {eps}")
    if eps == 0.0:
        return AffinityResult(1.0, 0.0)
    lo, hi = f.quad_range()
    scale = math.sqrt(1.0 + eps)

    def integrand(x):
        return scale * math.exp(
            -0.5 * (float(f.potential((1.0 + eps) * x)) + float(f.potential(x)))
        )

    value, err = integrate(f"scaled affinity({f.name}, {eps})", (integrand, lo, hi))
    return AffinityResult(min(value, 1.0), err)


def _check_positive(**values):
    for name, value in values.items():
        if not 0.0 < value < math.inf:  # NaN fails it too
            raise DomainError(f"{name} must be finite and positive, got {value}")


def gaussian_scale_affinity(sigma1, sigma2):
    """Closed form for centered Gaussians: sqrt(2 s1 s2 / (s1^2 + s2^2))."""
    _check_positive(sigma1=sigma1, sigma2=sigma2)
    rho = math.sqrt(2.0 * sigma1 * sigma2 / (sigma1**2 + sigma2**2))
    return AffinityResult(min(rho, 1.0), 0.0)


def exponential_rate_affinity(rate1, rate2):
    """Closed form for exponentials: 2 sqrt(r1 r2) / (r1 + r2)."""
    _check_positive(rate1=rate1, rate2=rate2)
    rho = 2.0 * math.sqrt(rate1 * rate2) / (rate1 + rate2)
    return AffinityResult(min(rho, 1.0), 0.0)
