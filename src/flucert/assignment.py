"""The random assignment problem and its nonlinear cost-deformation coupling.

Costs are deformed through y -> y + (alpha/n) * d(y), where the deformation
profile d is steep (slope sqrt(n)) below 1/n and unit-slope above.
The map is piecewise linear, so perturbed costs come from a closed-form
inversion rather than a root finder, and rows whose minimum cost is at least
1/n contribute a guaranteed per-entry gap to the optimal assignment cost.
For rate-1 exponential costs the deformation affinity and the chance that a
row's minimum reaches 1/n are closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import AffinityResult, checked_density
from .errors import SAFE_SUM, DomainError, real, reals, whole


@dataclass(frozen=True)
class CostMatrix:
    """Square matrix of assignment costs, each in [0, SAFE_SUM / (4 n)]."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", whole(self.n, "n"))
        # each of hungarian's n rounds moves a dual potential by at most one
        # cost, so no potential, reduced cost or path tops (2n + 2) costs
        bound = SAFE_SUM / (4 * self.n)
        a = reals(self.entries, "costs", (self.n, self.n), 0, bound, "[]")
        object.__setattr__(self, "entries", a)


@dataclass(frozen=True)
class AssignmentResult:
    """Optimal assignment as a row-to-column permutation with its cost."""

    permutation: np.ndarray
    cost: float

    def __post_init__(self):
        try:
            perm = np.asarray(self.permutation)
        except ValueError:  # numpy refuses a ragged nest
            perm = None
        if perm is None or perm.dtype.kind not in "iu":
            raise DomainError("permutation must be integers, not bool, float or ragged")
        perm = np.asarray(perm, dtype=int)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise DomainError("permutation must be a bijection")
        object.__setattr__(self, "permutation", perm)


def hungarian(cm):
    """Optimal assignment by ``scipy.optimize.linear_sum_assignment``.

    ``scipy.optimize`` is imported on the first call, so importing this module
    does not load it.
    """
    from scipy.optimize import linear_sum_assignment

    _rows, perm = linear_sum_assignment(cm.entries)
    cost = float(cm.entries[np.arange(cm.n), perm].sum())
    return AssignmentResult(permutation=perm, cost=cost)


def invert_perturbation(a, alpha, n):
    """Unique y >= 0 with y + (alpha/n) d(y) = a, in closed form.

    The forward map is piecewise linear with breakpoint image
    a* = (1/n)(1 + alpha n^-1/2), so each branch inverts exactly.
    """
    n = whole(n, "n")
    alpha = real(alpha, "alpha", 0, math.inf, "[)")
    a = reals(a, "perturbed costs", None, 0, math.inf, "[)")
    root_n = math.sqrt(n)
    eps = alpha / n
    breakpoint_image = (1.0 / n) * (1.0 + alpha / root_n)
    low = a / (1.0 + alpha / root_n)
    high = (a - eps * (1.0 / root_n - 1.0 / n)) / (1.0 + eps)
    out = np.where(a <= breakpoint_image, low, high)
    return float(out) if out.ndim == 0 else out


def perturb_costs(cm, alpha):
    """Entrywise application of the inverse deformation map."""
    return CostMatrix(cm.n, invert_perturbation(cm.entries, alpha, cm.n))


def _check_exponential(f):
    if checked_density(f).name != "exponential-rate-1":
        raise DomainError(f"need the rate-1 exponential cost law, got {f.name!r}")


def perturbation_affinity(f, alpha, n):
    """Affinity between the rate-1 exponential cost law and its deformed version.

    With eps = alpha/n the deformation has slope k = 1 + eps sqrt(n) below the
    breakpoint 1/n and slope 1 + eps above it, so the affinity is a sum of two
    exponential integrals:

        (2 sqrt(k) / (1 + k)) (1 - exp(-(1 + k) / (2n)))
        + (2 sqrt(1 + eps) / (2 + eps))
          exp(-((2 + eps)/n + eps (n^-1/2 - n^-1)) / 2).
    """
    _check_exponential(f)
    n = whole(n, "n")
    eps = real(real(alpha, "alpha") / n, "alpha / n", 0, 0.5, "[)")
    if eps == 0.0:
        return AffinityResult(1.0, 0.0)
    root_n = math.sqrt(n)
    slope = 1.0 + eps * root_n
    low_mass = -math.expm1(-(1.0 + slope) / (2.0 * n))
    high_mass = math.exp(-0.5 * ((2.0 + eps) / n + eps * (1.0 / root_n - 1.0 / n)))
    low = 2.0 * math.sqrt(slope) / (1.0 + slope) * low_mass
    high = 2.0 * math.sqrt(1.0 + eps) / (2.0 + eps) * high_mass
    return AffinityResult(min(low + high, 1.0), 0.0)


def row_tail_probability(f, n):
    """P(min of n i.i.d. rate-1 exponential costs >= 1/n) = (exp(-1/n))^n."""
    _check_exponential(f)
    n = whole(n, "n")
    return math.exp(-1.0 / n) ** n


@dataclass(frozen=True)
class GapCertificate:
    """Per-instance gap between base and deformed optimal costs."""

    cost: float
    cost_perturbed: float
    lower_bound: float
    holds: bool


def gap_certificate(cm, alpha):
    """Solve both assignment problems and check the guaranteed cost gap.

    Rows with minimum cost >= 1/n give deformed entries >= 1/(n + alpha
    sqrt(n)), hence per-entry gaps >= alpha / (n^(3/2) + alpha n); evaluating
    the base-optimal permutation on the deformed costs turns that into the
    certified lower bound on cost - cost_perturbed.
    """
    n = cm.n
    alpha = real(alpha, "alpha")
    perturbed = perturb_costs(cm, alpha)
    base = hungarian(cm)
    prime = hungarian(perturbed)
    row_min = cm.entries.min(axis=1)
    big_rows = int(np.sum(row_min >= 1.0 / n))
    lower = alpha * big_rows / (n**1.5 + alpha * n)
    holds = base.cost - prime.cost >= lower - 1e-10
    return GapCertificate(
        cost=base.cost,
        cost_perturbed=prime.cost,
        lower_bound=lower,
        holds=bool(holds),
    )
