"""Tests for the random matrix ensembles and the log-determinant coupling."""

import math

import numpy as np
import pytest

from flucert import random_matrix
from flucert.densities import sample_iid, standard_density
from flucert.errors import DomainError, RankError, ShapeError
from flucert.random_matrix import (
    LogDetResult,
    build,
    covariance_fluctuation_experiment,
    covariance_gap,
    covariance_spec,
    log_abs_det,
    scaling_shift_check,
    wigner_spec,
)
from flucert.rng import seed_stream
from oracles import lu_log_abs_det

GAUSS = standard_density("std-gaussian")


def random_inputs(spec, seed):
    return sample_iid(GAUSS, spec.n_inputs, seed_stream(seed, spec.order, 0))


def assert_matches_oracle(mat):
    got = log_abs_det(mat)
    value, sign = lu_log_abs_det(mat)
    assert not got.rank_deficient
    assert got.sign == sign
    assert got.log_abs_det == pytest.approx(value, rel=1e-11, abs=1e-11)


class TestLogAbsDet:
    @pytest.mark.parametrize("seed", range(20))
    def test_wigner_matches_lu_oracle(self, seed):
        spec = wigner_spec(1 + 3 * seed)
        assert_matches_oracle(build(spec, random_inputs(spec, seed)))

    @pytest.mark.parametrize("seed", range(20))
    def test_covariance_matches_lu_oracle(self, seed):
        p = 1 + 2 * seed
        spec = covariance_spec(p, 2 * p + 3)
        assert_matches_oracle(build(spec, random_inputs(spec, seed)))

    def test_sign_of_a_permutation(self):
        swap = np.array([[0.0, 2.0], [3.0, 0.0]])
        got = log_abs_det(swap)
        assert got.sign == -1 and got.log_abs_det == pytest.approx(math.log(6.0))

    def test_zero_column_is_rank_deficient(self):
        spec = wigner_spec(5)
        mat = build(spec, random_inputs(spec, 1))
        mat[:, 2] = 0.0
        got = log_abs_det(mat)
        assert got.rank_deficient and got.sign == 0 and got.log_abs_det == -math.inf
        assert lu_log_abs_det(mat) == (-math.inf, 0)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ShapeError):
            log_abs_det(np.ones(shape))

    def test_result_consistency(self):
        with pytest.raises(DomainError):
            LogDetResult(0.0, 1, True)


class TestScalingShift:
    @pytest.mark.parametrize("seed", range(5))
    def test_shift_is_exact(self, seed):
        spec = covariance_spec(6, 20)
        base, scaled, shift, exact = scaling_shift_check(
            spec, random_inputs(spec, seed), 1.0
        )
        assert exact
        assert base - scaled == pytest.approx(shift, abs=1e-9)
        assert shift == pytest.approx(covariance_gap(6, 20, 1.0))

    def test_wigner_shift_has_degree_one(self):
        spec = wigner_spec(7)
        _base, _scaled, shift, exact = scaling_shift_check(
            spec, random_inputs(spec, 3), 0.5
        )
        assert exact
        assert shift == pytest.approx(7 * math.log1p(0.5 / math.sqrt(spec.n_inputs)))

    def test_singular_input_raises_rank_error(self):
        spec = covariance_spec(4, 10)
        data = random_inputs(spec, 2).reshape(10, 4)
        data[:, 1] = 0.0  # a zero coordinate gives a zero row and column
        with pytest.raises(RankError):
            scaling_shift_check(spec, data.ravel(), 1.0)

    def test_builds_and_solves_twice(self, monkeypatch):
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
        assert sorted(calls) == ["build", "build", "log_abs_det", "log_abs_det"]

    def test_wrong_input_count(self):
        with pytest.raises(ShapeError):
            build(wigner_spec(3), np.ones(5))

    def test_experiment_has_no_violations(self):
        exp = covariance_fluctuation_experiment(4, 12, GAUSS, 1.0, seeds=6)
        assert exp.shift_violations == 0
        assert np.all(np.isfinite(exp.log_dets))
        assert 0.0 < exp.tv_bound < 1.0
