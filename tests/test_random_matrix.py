"""Tests for the sample-covariance ensemble and the log-determinant coupling."""

import math

import numpy as np
import pytest

from flucert import random_matrix
from flucert.densities import sample_iid, standard_density
from flucert.errors import DomainError, RankError, ShapeError
from flucert.random_matrix import (
    build,
    covariance_spec,
    log_abs_det,
    scaling_shift_check,
)
from flucert.rng import seed_stream
from oracles import lu_log_abs_det

GAUSS = standard_density("std-gaussian")


def random_inputs(spec, seed):
    return sample_iid(GAUSS, spec.n_inputs, seed_stream(seed, spec.order, 0))


def wigner(order, seed):
    """A symmetric Gaussian matrix: indefinite, so its determinant takes both signs."""
    inputs = sample_iid(GAUSS, order * (order + 1) // 2, seed_stream(seed, order, 0))
    mat = np.zeros((order, order))
    mat[np.triu_indices(order)] = inputs
    return mat + np.tril(mat.T, k=-1)


def assert_matches_oracle(mat):
    value, sign = lu_log_abs_det(mat)
    assert sign != 0
    assert log_abs_det(mat) == pytest.approx(value, rel=1e-11, abs=1e-11)


class TestLogAbsDet:
    @pytest.mark.parametrize("seed", range(20))
    def test_wigner_matches_lu_oracle(self, seed):
        assert_matches_oracle(wigner(1 + 3 * seed, seed))

    @pytest.mark.parametrize("seed", range(20))
    def test_covariance_matches_lu_oracle(self, seed):
        p = 1 + 2 * seed
        spec = covariance_spec(p, 2 * p + 3)
        assert_matches_oracle(build(spec, random_inputs(spec, seed)))

    def test_sign_of_a_permutation(self):
        swap = np.array([[0.0, 2.0], [3.0, 0.0]])  # det = -6
        assert log_abs_det(swap) == pytest.approx(math.log(6.0))

    def test_zero_column_is_rank_deficient(self):
        mat = wigner(5, 1)
        mat[:, 2] = 0.0
        assert log_abs_det(mat) == -math.inf
        assert lu_log_abs_det(mat) == (-math.inf, 0)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ShapeError):
            log_abs_det(np.ones(shape))


#: (order, sample count) pairs no covariance spec accepts
INVALID_SPECS = [
    (0, 5),
    (4, 4),
    (1, 1),
    (2.5, 10),
    (math.nan, 10),
    (3, 10.0),
    (3, math.inf),
]


class TestSpec:
    @pytest.mark.parametrize("order, samples", [(1, 2), (6, 20), (160, 320)])
    def test_covariance_sizes(self, order, samples):
        assert covariance_spec(order, samples).n_inputs == order * samples

    @pytest.mark.parametrize(
        "order, samples",
        INVALID_SPECS,
        ids=[f"sample-covariance-{o}-{s}" for o, s in INVALID_SPECS],
    )
    def test_invalid_specs_rejected(self, order, samples):
        with pytest.raises(DomainError):
            covariance_spec(order, samples)

    def test_numpy_integer_sizes_accepted(self):
        spec = covariance_spec(np.int64(4), np.int32(9))
        assert spec.n_inputs == 36


#: (order, sample count) of the covariance drawn from each seed, up to the
#: benchmark's p = 160 from 320 samples
SHIFT_SPECS = [(2, 9), (3, 8), (6, 20), (40, 90), (160, 320)]


class TestScalingShift:
    @pytest.mark.parametrize("seed", range(len(SHIFT_SPECS)))
    def test_shift_is_exact(self, seed):
        # scaling_shift_check reads the shrunk log-determinant off the base
        # one; the re-solve of the shrunk inputs is the oracle for it
        order, samples = SHIFT_SPECS[seed]
        spec = covariance_spec(order, samples)
        inputs = random_inputs(spec, seed)
        for alpha in (0.5, 1.0, 2.0):
            base, scaled, shift, exact = scaling_shift_check(spec, inputs, alpha)
            eps = alpha / math.sqrt(spec.n_inputs)
            value, sign = lu_log_abs_det(build(spec, inputs / (1 + eps)))
            assert sign != 0
            assert exact
            assert abs(scaled - value) <= 1e-9, (alpha, scaled, value)
            assert base - scaled == pytest.approx(shift, abs=1e-12)
            assert shift == pytest.approx(2 * order * math.log1p(eps), rel=1e-15)

    def test_singular_input_raises_rank_error(self):
        spec = covariance_spec(4, 10)
        data = random_inputs(spec, 2).reshape(10, 4)
        data[:, 1] = 0.0  # a zero coordinate gives a zero row and column
        with pytest.raises(RankError):
            scaling_shift_check(spec, data.ravel(), 1.0)

    def test_builds_and_solves_once(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(random_matrix, "build", counting("build", build))
        monkeypatch.setattr(
            random_matrix, "log_abs_det", counting("log_abs_det", log_abs_det)
        )
        spec = covariance_spec(3, 8)
        scaling_shift_check(spec, random_inputs(spec, 0), 1.0)
        assert calls == ["build", "log_abs_det"]

    def test_wrong_input_count(self):
        with pytest.raises(ShapeError):
            build(covariance_spec(3, 5), np.ones(16))
