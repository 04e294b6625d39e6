"""Tests for the built-in densities, samplers, and closed-form scale affinities."""

import math

import numpy as np
import pytest

from flucert.densities import (
    AffinityResult,
    sample_iid,
    scaled_affinity,
    standard_density,
)
from flucert.errors import ConfigError, DomainError
from flucert.rng import seed_stream
from oracles import POTENTIALS, integrate, quad_scaled_affinity

ALL_NAMES = ("std-gaussian", "exponential-rate-1")


@pytest.fixture(params=ALL_NAMES)
def density(request):
    return standard_density(request.param)


def test_unknown_name_rejected():
    with pytest.raises(ConfigError, match="available: exponential-rate-1, std-gaussian"):
        standard_density("cauchy")


def test_one_object_per_name(density):
    assert standard_density(density.name) is density
    assert density.exponent == {"std-gaussian": 2, "exponential-rate-1": 1}[density.name]


def test_normalization(density):
    """The oracle potential is a normalized density."""
    potential, lo = POTENTIALS[density.name]
    value = integrate((lambda x: math.exp(-potential(x)), lo, math.inf))
    assert abs(value - 1.0) <= 1e-14


@pytest.mark.parametrize("u", [0.05, 0.5, 0.9])
def test_oracle_potential_is_the_sampled_law(density, u):
    """The CDF of the oracle potential at ppf(u) is u."""
    potential, lo = POTENTIALS[density.name]
    x = float(density.ppf(u))
    value = integrate((lambda t: math.exp(-potential(t)), lo, x))
    assert value == pytest.approx(u, abs=1e-13)


def test_sampler_support_and_determinism(density):
    draws = sample_iid(density, 512, seed_stream(7, 3, 1))
    again = sample_iid(density, 512, seed_stream(7, 3, 1))
    np.testing.assert_array_equal(draws, again)
    assert np.all(np.isfinite(draws))
    if density.name == "exponential-rate-1":
        assert np.all(draws >= 0.0)


def test_sample_iid_rejects_zero():
    f = standard_density("exponential-rate-1")
    with pytest.raises(DomainError):
        sample_iid(f, 0, seed_stream(1))
    single = sample_iid(f, 1, seed_stream(1))
    assert single.shape == (1,)


def test_exponential_sampler_mean():
    # CLT check at 6 sigma / sqrt(N): mean of 1e5 draws within 1 +/- 0.02
    f = standard_density("exponential-rate-1")
    draws = sample_iid(f, 10**5, seed_stream(42, 0, 0))
    assert abs(draws.mean() - 1.0) < 0.02


def test_gaussian_sampler_moments():
    f = standard_density("std-gaussian")
    draws = sample_iid(f, 10**5, seed_stream(42, 0, 1))
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


@pytest.mark.parametrize("eps", [-0.45, -0.1, -1e-3, 1e-4, 0.01, 0.2, 0.45])
def test_scaled_affinity_matches_quadrature(density, eps):
    res = scaled_affinity(density, eps)
    assert abs(res.rho - quad_scaled_affinity(density.name, eps)) <= 2e-15
    assert res.quadrature_error_estimate == 0.0


def test_scaled_affinity_exponential_closed_form():
    f = standard_density("exponential-rate-1")
    res = scaled_affinity(f, 0.2)
    # X/(1+eps) is exponential with rate 1+eps: 2 sqrt(r1 r2) / (r1 + r2)
    assert res.rho == pytest.approx(2 * math.sqrt(1.2) / 2.2, rel=1e-15)


def test_scaled_affinity_gaussian_closed_form():
    f = standard_density("std-gaussian")
    res = scaled_affinity(f, 0.1)
    # X/(1+eps) has sigma 1/1.1: sqrt(2 s1 s2 / (s1^2 + s2^2))
    s2 = 1.0 / 1.1
    assert res.rho == pytest.approx(math.sqrt(2.0 * s2 / (1.0 + s2**2)), rel=1e-15)
    assert res.rho == pytest.approx(0.997735, abs=1e-6)


def test_scaled_affinity_identity():
    for name in ALL_NAMES:
        assert scaled_affinity(standard_density(name), 0.0) == AffinityResult(1.0, 0.0)


def test_scaled_affinity_domain():
    f = standard_density("std-gaussian")
    for eps in (-0.5, 0.5, 0.75, math.nan):
        with pytest.raises(DomainError):
            scaled_affinity(f, eps)


@pytest.mark.parametrize("false", [False, np.False_], ids=["bool", "numpy bool"])
def test_cached_zero_does_not_admit_a_bool(false):
    # False == 0 and hashes like it: an untyped cache key would return the
    # cached result at eps = 0 without checking the argument
    f = standard_density("std-gaussian")
    assert scaled_affinity(f, 0).rho == 1.0
    with pytest.raises(DomainError, match="need a real eps "):
        scaled_affinity(f, false)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_quadratic_affinity_law(name):
    # (1 - rho(eps)) / eps^2 stays within 10% across a dyadic eps grid
    f = standard_density(name)
    ratios = [
        (1.0 - scaled_affinity(f, eps).rho) / eps**2
        for eps in (0.005, 0.01, 0.02, 0.04)
    ]
    assert max(ratios) <= 1.10 * min(ratios)
    assert min(ratios) > 0.0


def test_negative_eps_also_quadratic():
    f = standard_density("exponential-rate-1")
    res = scaled_affinity(f, -0.2)
    assert res.rho == pytest.approx(2 * math.sqrt(0.8) / 1.8, rel=1e-15)


def test_affinity_result_validation():
    with pytest.raises(DomainError):
        AffinityResult(1.2, 0.0)
    with pytest.raises(DomainError):
        AffinityResult(0.5, -1e-9)
    with pytest.raises(DomainError):
        AffinityResult(0.5, math.nan)
