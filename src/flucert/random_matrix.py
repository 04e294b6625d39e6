"""The sample-covariance log-determinant and its scaling coupling.

A mean-centered sample covariance is homogeneous of degree 2 in its scalar
inputs.  Shrinking every input by 1/(1 + eps) therefore shifts log |det| by
exactly -(2 * order * log(1 + eps)), which is the deterministic gap the
certificates use.  ``scaling_shift_check`` builds and factors the base
matrix only, and reads the shrunk log-determinant off it by that identity;
the tests check the identity against a re-solve of the shrunk inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SAFE_SUM, RankError, ShapeError, real, reals, whole


@dataclass(frozen=True)
class MatrixEnsembleSpec:
    """Shape data of a sample covariance of order p from sample_count vectors.

    It has sample_count * p inputs, one data vector per row.
    """

    order: int  # p
    sample_count: int  # number of data vectors

    def __post_init__(self):
        order = whole(self.order, "order")
        object.__setattr__(self, "order", order)
        # mean centering drops one rank, so full rank needs order + 1 vectors
        count = whole(self.sample_count, "sample_count", order + 1)
        object.__setattr__(self, "sample_count", count)

    @property
    def n_inputs(self):
        return self.sample_count * self.order


def covariance_spec(order, sample_count):
    return MatrixEnsembleSpec(order, sample_count)


def build(spec, inputs):
    """Assemble the covariance matrix from the flat input vector, each input
    in [-b, b], b = sqrt(SAFE_SUM / (4 n_inputs)), so that nothing overflows."""
    # a centered input is at most 2 b, so a Gram entry sums sample_count
    # products of at most 4 b^2 = SAFE_SUM / n_inputs each
    bound = math.sqrt(SAFE_SUM / (4 * spec.n_inputs))
    inputs = reals(inputs, "inputs", (spec.n_inputs,), -bound, bound, "[]")
    data = inputs.reshape(spec.sample_count, spec.order)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered
    cov /= spec.sample_count
    return cov


def log_abs_det(matrix):
    """log |det| by ``np.linalg.slogdet`` (an LU factorization).

    slogdet reports log |det| = -inf, with sign 0, when a pivot is exactly
    zero; that marks the matrix as rank deficient.
    """
    mat = reals(matrix, "matrix", (None, None))
    if mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"need a square matrix, got shape {mat.shape}")
    return float(np.linalg.slogdet(mat)[1])


def scaling_shift_check(spec, inputs, alpha):
    """The log-determinant shift under input shrinking, from one solve.

    With inputs divided by (1 + eps), eps = alpha / sqrt(n_inputs), the
    determinant magnitude shrinks by exactly shift = 2 * order * log(1 + eps),
    since the covariance is homogeneous of degree 2.  So only the base matrix
    is built and factored, and scaled = base - shift; the certified gap is
    the constant shift either way.  ``exact`` tests |base - scaled - shift|
    <= 1e-9, that is, that rounding in the subtraction did not swallow the
    shift.  The identity itself is checked by re-solving the shrunk inputs,
    in the tests and in the benchmark's check pass.
    Returns (base, scaled, shift, exact); a singular base raises ``RankError``.
    """
    root = math.sqrt(spec.n_inputs)
    eps = real(real(alpha, "alpha") / root, "alpha / sqrt(n_inputs)", 0, 0.5, "[)")
    base = log_abs_det(build(spec, inputs))
    if base == -math.inf:
        raise RankError("base matrix is singular")
    shift = 2 * spec.order * math.log1p(eps)
    scaled = base - shift
    exact = abs(base - scaled - shift) <= 1e-9
    return base, scaled, shift, bool(exact)
