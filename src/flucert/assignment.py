"""The random assignment problem and its nonlinear cost-deformation coupling.

Costs are deformed through y -> y + (alpha/n) * deformation(y), where the
deformation profile is steep (slope sqrt(n)) below 1/n and unit-slope above.
The map is piecewise linear, so perturbed costs come from a closed-form
inversion rather than a root finder, and rows whose minimum cost is at least
1/n contribute a guaranteed per-entry gap to the optimal assignment cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .densities import QUAD_TOL, AffinityResult, _quad_or_raise
from .errors import DomainError, NumericError, ShapeError


@dataclass(frozen=True)
class CostMatrix:
    """Square matrix of nonnegative assignment costs."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.shape != (self.n, self.n):
            raise ShapeError(f"expected {(self.n, self.n)} cost matrix, got {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise DomainError("costs must be finite and nonnegative")
        object.__setattr__(self, "entries", a)

    def to_csv(self, path):
        np.savetxt(path, self.entries, delimiter=",")

    @classmethod
    def from_csv(cls, path):
        a = np.atleast_2d(np.loadtxt(path, delimiter=","))
        return cls(a.shape[0], a)


@dataclass(frozen=True)
class AssignmentResult:
    """Optimal assignment as a row-to-column permutation with its cost."""

    permutation: np.ndarray
    cost: float

    def __post_init__(self):
        perm = np.asarray(self.permutation, dtype=int)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise DomainError("permutation must be a bijection")
        object.__setattr__(self, "permutation", perm)


def hungarian(cm):
    """Optimal assignment by ``scipy.optimize.linear_sum_assignment``."""
    _rows, perm = linear_sum_assignment(cm.entries)
    cost = float(cm.entries[np.arange(cm.n), perm].sum())
    return AssignmentResult(permutation=perm, cost=cost)


def brute_force_assignment(cm):
    """Factorial-enumeration oracle for small matrices."""
    from itertools import permutations

    n = cm.n
    if n > 9:
        raise DomainError("brute force is capped at n = 9")
    a = cm.entries
    rows = np.arange(n)
    best_cost = math.inf
    best_perm = None
    for perm in permutations(range(n)):
        cost = float(a[rows, perm].sum())
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    return AssignmentResult(permutation=np.array(best_perm), cost=best_cost)


def deformation(x, n):
    """Piecewise-linear profile: sqrt(n) x below 1/n, x + n^-1/2 - n^-1 above."""
    n = int(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("the deformation profile is defined on x >= 0")
    root_n = math.sqrt(n)
    out = np.where(x <= 1.0 / n, root_n * x, x + 1.0 / root_n - 1.0 / n)
    return float(out) if out.ndim == 0 else out


def invert_perturbation(a, alpha, n):
    """Unique y >= 0 with y + (alpha/n) deformation(y) = a, in closed form.

    The forward map is piecewise linear with breakpoint image
    a* = (1/n)(1 + alpha n^-1/2), so each branch inverts exactly.
    """
    n = int(n)
    alpha = float(alpha)
    if alpha < 0.0:
        raise DomainError(f"need alpha >= 0, got {alpha}")
    a = np.asarray(a, dtype=float)
    if np.any(a < 0.0):
        raise DomainError("perturbed costs must be nonnegative")
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


def perturbation_affinity(f, alpha, n):
    """Affinity between the cost law and its deformed version by quadrature.

    Integrates sqrt((1 + eps d'(x)) exp(-(V(x + eps d(x)) + V(x)))) over the
    half line with eps = alpha/n, splitting at the deformation breakpoint 1/n
    where the slope jumps.
    """
    if f.support != "half-line":
        raise DomainError("cost densities live on the half line")
    n = int(n)
    alpha = float(alpha)
    eps = alpha / n
    if eps == 0.0:
        return AffinityResult(1.0, 0.0, "closed-form")
    if not 0.0 < eps < 0.5:
        raise DomainError(f"alpha/n = {eps} must lie in (0, 1/2)")
    root_n = math.sqrt(n)
    lo, hi = f.quad_range()

    def integrand_low(x):
        slope = 1.0 + eps * root_n
        shifted = x * slope  # x + eps sqrt(n) x
        return math.sqrt(slope) * math.exp(
            -0.5 * (float(f.potential(shifted)) + float(f.potential(x)))
        )

    def integrand_high(x):
        shifted = x + eps * (x + 1.0 / root_n - 1.0 / n)
        return math.sqrt(1.0 + eps) * math.exp(
            -0.5 * (float(f.potential(shifted)) + float(f.potential(x)))
        )

    break_x = 1.0 / n
    what = f"deformation affinity({f.name}, alpha={alpha}, n={n})"
    v1, e1 = _quad_or_raise(integrand_low, lo, break_x, what)
    v2, e2 = _quad_or_raise(integrand_high, break_x, hi, what)
    value, err = v1 + v2, e1 + e2
    if err > QUAD_TOL:
        raise NumericError(
            f"quadrature for {what} did not converge below {QUAD_TOL:g} "
            f"(summed error estimate {err:g})",
            partial=value,
        )
    return AffinityResult(min(value, 1.0), err, "adaptive-quadrature")


def row_tail_probability(f, n):
    """P(min of n i.i.d. costs >= 1/n) = (upper-tail mass above 1/n)^n."""
    if f.support != "half-line":
        raise DomainError("cost densities live on the half line")
    n = int(n)
    hi = f.quad_range()[1]
    tail, _err = _quad_or_raise(
        lambda x: math.exp(-float(f.potential(x))),
        1.0 / n,
        hi,
        f"row tail({f.name}, n={n})",
    )
    return min(tail, 1.0) ** n


@dataclass(frozen=True)
class GapCertificate:
    """Per-instance gap between base and deformed optimal costs."""

    cost: float
    cost_perturbed: float
    big_row_count: int  # rows whose minimum cost is at least 1/n
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
    alpha = float(alpha)
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
        big_row_count=big_rows,
        lower_bound=lower,
        holds=bool(holds),
    )
