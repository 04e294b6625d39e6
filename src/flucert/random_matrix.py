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

from .errors import DomainError, RankError, ShapeError, whole

ENSEMBLE_KINDS = ("wigner", "sample-covariance")


@dataclass(frozen=True)
class MatrixEnsembleSpec:
    """Shape data for one ensemble; the kind fixes the input count and degree.

    A Wigner matrix of order N has N (N + 1) / 2 inputs and degree 1; a sample
    covariance of order p has sample_count * p inputs and degree 2.
    """

    kind: str
    order: int  # N for wigner, p for sample covariance
    sample_count: int = 0  # number of data vectors (covariance only)

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise DomainError(f"unknown ensemble kind {self.kind!r}")
        object.__setattr__(self, "order", whole(self.order, "order"))
        count = whole(self.sample_count, "sample_count", 0)
        object.__setattr__(self, "sample_count", count)
        if self.kind == "sample-covariance" and self.order > self.sample_count - 1:
            raise DomainError(
                "mean centering drops one rank: need order <= sample_count - 1"
            )

    @property
    def n_inputs(self):
        if self.kind == "wigner":
            return self.order * (self.order + 1) // 2
        return self.sample_count * self.order

    @property
    def degree(self):
        return 1 if self.kind == "wigner" else 2


def covariance_spec(order, sample_count):
    return MatrixEnsembleSpec("sample-covariance", order, sample_count)


def build(spec, inputs):
    """Assemble the matrix from the flat input vector."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (spec.n_inputs,):
        raise ShapeError(
            f"{spec.kind} of order {spec.order} needs {spec.n_inputs} inputs, "
            f"got shape {inputs.shape}"
        )
    if not np.all(np.isfinite(inputs)):
        raise DomainError("inputs must be finite")
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
    """log |det| with the determinant sign; sign 0 marks a rank-deficient
    matrix, whose log |det| is -inf."""

    log_abs_det: float
    sign: int


def log_abs_det(matrix):
    """log |det| and its sign by ``np.linalg.slogdet`` (an LU factorization).

    slogdet reports sign 0 when a pivot is exactly zero; that marks the
    matrix as rank deficient.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"need a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise DomainError("matrix must be finite")
    sign, value = np.linalg.slogdet(mat)
    if sign == 0.0:
        return LogDetResult(-math.inf, 0)
    return LogDetResult(float(value), int(sign))


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
    if base.sign == 0:
        raise RankError("base matrix is singular")
    scaled = log_abs_det(build(spec, np.asarray(inputs, dtype=float) / (1.0 + eps)))
    if scaled.sign == 0:
        raise RankError("scaled matrix is singular")
    shift = spec.degree * spec.order * math.log1p(eps)
    exact = abs(base.log_abs_det - scaled.log_abs_det - shift) <= 1e-9
    return base.log_abs_det, scaled.log_abs_det, shift, bool(exact)
