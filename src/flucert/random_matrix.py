"""Random matrix ensembles built from i.i.d. scalars, and the log-determinant
scaling coupling.

Both builders are homogeneous in their scalar inputs: a Wigner fill has
degree 1, a mean-centered sample covariance degree 2.  Shrinking every input
by 1/(1 + eps) therefore shifts log |det| by exactly -(degree * order *
log(1 + eps)), which is the deterministic gap the certificates use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import PerturbationPlan, product_tv_bound
from .densities import sample_iid, scaled_affinity
from .errors import DomainError, RankError, ShapeError
from .rng import seed_stream

ENSEMBLE_KINDS = ("wigner", "sample-covariance")


@dataclass(frozen=True)
class MatrixEnsembleSpec:
    """Shape data for one ensemble: order, input count, homogeneity degree."""

    kind: str
    order: int  # N for wigner, p for sample covariance
    n_inputs: int
    degree: int
    sample_count: int = 0  # number of data vectors (covariance only)

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise DomainError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "wigner":
            expected = self.order * (self.order + 1) // 2
            if self.n_inputs != expected or self.degree != 1:
                raise DomainError(
                    f"wigner of order {self.order} needs n_inputs = {expected}, degree 1"
                )
        else:
            if self.n_inputs != self.sample_count * self.order or self.degree != 2:
                raise DomainError(
                    "sample covariance needs n_inputs = sample_count * order, degree 2"
                )
            if self.order > self.sample_count - 1:
                raise DomainError(
                    "mean centering drops one rank: need order <= sample_count - 1"
                )


def wigner_spec(order):
    if order < 1:
        raise DomainError("order must be positive")
    return MatrixEnsembleSpec(
        kind="wigner", order=order, n_inputs=order * (order + 1) // 2, degree=1
    )


def covariance_spec(order, sample_count):
    if order < 1 or sample_count < 2:
        raise DomainError("need order >= 1 and sample_count >= 2")
    return MatrixEnsembleSpec(
        kind="sample-covariance",
        order=order,
        n_inputs=sample_count * order,
        degree=2,
        sample_count=sample_count,
    )


def build(spec, inputs):
    """Assemble the matrix from the flat input vector."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (spec.n_inputs,):
        raise ShapeError(
            f"{spec.kind} of order {spec.order} needs {spec.n_inputs} inputs, "
            f"got shape {inputs.shape}"
        )
    if spec.kind == "wigner":
        n = spec.order
        mat = np.zeros((n, n))
        iu = np.triu_indices(n)
        mat[iu] = inputs
        lower = np.tril(mat.T, k=-1)
        return mat + lower
    data = inputs.reshape(spec.sample_count, spec.order)
    centered = data - data.mean(axis=0)
    return (centered.T @ centered) / spec.sample_count


@dataclass(frozen=True)
class LogDetResult:
    """log |det| with the determinant sign; rank deficiency is flagged."""

    log_abs_det: float
    sign: int
    rank_deficient: bool

    def __post_init__(self):
        if self.rank_deficient and (self.sign != 0 or self.log_abs_det != -math.inf):
            raise DomainError(
                "rank-deficient results must carry sign 0 and -inf magnitude"
            )


def log_abs_det(matrix):
    """log |det| and its sign by ``np.linalg.slogdet`` (an LU factorization).

    slogdet reports sign 0 when a pivot is exactly zero; that marks the
    matrix as rank deficient.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"need a square matrix, got shape {mat.shape}")
    sign, value = np.linalg.slogdet(mat)
    if sign == 0.0:
        return LogDetResult(-math.inf, 0, True)
    return LogDetResult(float(value), int(sign), False)


def scaling_shift_check(spec, inputs, alpha):
    """Verify the deterministic log-determinant shift under input shrinking.

    With inputs divided by (1 + eps), eps = alpha / sqrt(n_inputs), the
    determinant magnitude shrinks by exactly degree * order * log(1 + eps):
    the base log-determinant minus the scaled one equals that shift.
    Returns (base, scaled, shift, exact).
    """
    eps = float(alpha) / math.sqrt(spec.n_inputs)
    if not 0.0 <= eps < 0.5:
        raise DomainError(f"alpha n^-1/2 = {eps} must lie in [0, 1/2)")
    base = log_abs_det(build(spec, inputs))
    if base.rank_deficient:
        raise RankError("base matrix is singular")
    scaled = log_abs_det(build(spec, np.asarray(inputs, dtype=float) / (1.0 + eps)))
    if scaled.rank_deficient:
        raise RankError("scaled matrix is singular")
    shift = spec.degree * spec.order * math.log1p(eps)
    exact = abs(base.log_abs_det - scaled.log_abs_det - shift) <= 1e-9
    return base.log_abs_det, scaled.log_abs_det, shift, bool(exact)


def covariance_gap(order, sample_count, alpha):
    """Deterministic log-det gap 2 p log(1 + alpha (n p)^-1/2)."""
    eps = float(alpha) / math.sqrt(order * sample_count)
    return 2.0 * order * math.log1p(eps)


@dataclass(frozen=True)
class CovarianceExperiment:
    """Certificate inputs from repeated sample-covariance draws."""

    log_dets: np.ndarray
    gap: float  # deterministic, identical across seeds
    tv_bound: float
    per_coordinate_affinity: float
    coordinate_count: int
    shift_violations: int


def covariance_fluctuation_experiment(p, n, density, alpha, seeds, base_seed=0):
    """Repeat the covariance scaling coupling across independent seeds.

    Each seed draws n p scalars, builds the covariance matrix, and verifies
    the deterministic shift identity; the gap per seed equals the shift, of
    order 2 alpha sqrt(p/n).  The TV bound multiplies one scaled affinity
    over all n p coordinates.
    """
    spec = covariance_spec(p, n)
    eps = float(alpha) / math.sqrt(spec.n_inputs)
    log_dets = np.empty(int(seeds))
    violations = 0
    for rep in range(int(seeds)):
        inputs = sample_iid(density, spec.n_inputs, seed_stream(base_seed, rep, 0))
        base, _scaled, _shift, exact = scaling_shift_check(spec, inputs, alpha)
        log_dets[rep] = base
        if not exact:
            violations += 1
    rho = scaled_affinity(density, eps).rho
    plan = PerturbationPlan(
        "scale", np.full(spec.n_inputs, eps), np.full(spec.n_inputs, rho)
    )
    return CovarianceExperiment(
        log_dets=log_dets,
        gap=covariance_gap(p, n, alpha),
        tv_bound=product_tv_bound(plan),
        per_coordinate_affinity=rho,
        coordinate_count=spec.n_inputs,
        shift_violations=violations,
    )
