"""The built-in densities, their samplers and their closed-form scale affinities.

Every certificate path draws its scalars from the standard Gaussian or the
rate-1 exponential.  Each is proportional to exp(-|x|^p / p) on its support,
with p = 2 on the line and p = 1 on the half line, so the Hellinger affinity
between X and X/(1+eps) has a closed form in p alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, real, typed, whole
from .rng import uniform_open


@dataclass(frozen=True)
class Density1D:
    """A density proportional to exp(-|x|^exponent / exponent) on its support.

    ``ppf`` is the inverse CDF behind ``sample_iid``; ``exponent`` is the p
    that fixes the scale affinity.
    """

    name: str
    ppf: Callable
    exponent: int


@dataclass(frozen=True)
class AffinityResult:
    """Hellinger affinity with an estimate of its numerical error (0: exact)."""

    rho: float
    quadrature_error_estimate: float

    def __post_init__(self):
        for key, high in (("rho", 1), ("quadrature_error_estimate", math.inf)):
            value = real(getattr(self, key), key, 0, high, "[]")
            object.__setattr__(self, key, value)


#: the built-in densities, one object per name
_STANDARD = {
    "std-gaussian": Density1D(name="std-gaussian", ppf=ndtri, exponent=2),
    "exponential-rate-1": Density1D(
        name="exponential-rate-1",
        ppf=lambda u: -np.log1p(-np.asarray(u, dtype=float)),
        exponent=1,
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
    return typed(f, Density1D, "f").ppf(uniform_open(rng, whole(n, "n")))


@lru_cache(maxsize=None, typed=True)  # typed: a bool key is not the int 0 or 1
def scaled_affinity(f, eps):
    """Affinity between f and the law of X/(1+eps) for X ~ f, in closed form.

    With s = 1 + eps it is rho = sqrt(s) (2 / (1 + s^p))^(1/p), which is
    1 - O(eps^2).  It is evaluated in logs, from log1p(eps) and
    expm1(p log1p(eps)) = s^p - 1, so rho comes out within an ulp.  The cache
    hashes the arguments first: an unhashable one raises its ``TypeError``.
    """
    p = typed(f, Density1D, "f").exponent
    eps = real(eps, "eps", -0.5, 0.5)
    log_s = math.log1p(eps)
    rho = math.exp(0.5 * log_s - math.log1p(0.5 * math.expm1(p * log_s)) / p)
    return AffinityResult(min(rho, 1.0), 0.0)
