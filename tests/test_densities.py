"""Tests for the density zoo, samplers, and Hellinger affinities."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from flucert import densities
from flucert.assignment import perturbation_affinity, row_tail_probability
from flucert.densities import (
    QUAD_TOL,
    AffinityResult,
    exponential_rate_affinity,
    gaussian_scale_affinity,
    integrate,
    sample_iid,
    scaled_affinity,
    standard_density,
)
from flucert.errors import ConfigError, DomainError, NumericError
from flucert.rng import seed_stream
from oracles import NUMPY_FORM_POTENTIALS

ALL_NAMES = ("std-gaussian", "exponential-rate-1", "half-gaussian")


@pytest.fixture(params=ALL_NAMES)
def density(request):
    return standard_density(request.param)


def test_unknown_name_rejected():
    with pytest.raises(ConfigError, match="exponential-rate-1, half-gaussian"):
        standard_density("cauchy")


def test_one_object_per_name(density):
    assert standard_density(density.name) is density
    expected = (-40.0, 40.0) if density.support == "full-line" else (0.0, 41.0)
    assert density.quad_range() == expected


def test_std_gaussian_potential_at_mode():
    f = standard_density("std-gaussian")
    assert f.potential(0.0) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)
    assert f.support == "full-line"


def test_exponential_potential_is_linear():
    f = standard_density("exponential-rate-1")
    x = np.linspace(0.0, 10.0, 7)
    np.testing.assert_allclose(f.potential(x), x)
    assert f.support == "half-line"


def normalization(f):
    """Integral of exp(-potential) over the density's quadrature window."""
    lo, hi = f.quad_range()
    return integrate(f.name, (lambda x: math.exp(-float(f.potential(x))), lo, hi))


def test_normalization(density):
    value, err = normalization(density)
    assert abs(value - 1.0) <= 1e-6
    assert err < 1e-8


def test_integrate_sums_values_and_errors():
    pieces = [(lambda x: math.exp(-x), 0.0, 0.5), (lambda x: math.exp(-x), 0.5, 3.0)]
    value, err = integrate("exp", *pieces)
    parts = [quad(*p, epsabs=1e-12, epsrel=1e-12, limit=200) for p in pieces]
    assert value == 0.0 + parts[0][0] + parts[1][0]
    assert err == 0.0 + parts[0][1] + parts[1][1]
    assert value == pytest.approx(-math.expm1(-3.0), rel=1e-12)


@pytest.mark.parametrize(
    "reported, accepted",
    [(QUAD_TOL, True), (1.01 * QUAD_TOL, False), (math.nan, False), (math.inf, False)],
)
def test_integrate_accepts_only_errors_within_tol(monkeypatch, reported, accepted):
    monkeypatch.setattr(densities, "quad", lambda *args, **kwargs: (0.25, reported))
    if accepted:
        assert integrate("stub", (math.exp, 0.0, 1.0)) == (0.25, reported)
        return
    with pytest.raises(NumericError, match="stub") as info:
        integrate("stub", (math.exp, 0.0, 1.0))
    assert info.value.partial == 0.25


def test_nan_error_estimate_fails_every_integral(monkeypatch):
    monkeypatch.setattr(densities, "quad", lambda *args, **kwargs: (0.5, math.nan))
    expo = standard_density("exponential-rate-1")
    for call in (
        lambda: scaled_affinity(expo, 0.123456789),
        lambda: perturbation_affinity(expo, 1.0, 100),
        lambda: row_tail_probability(expo, 100),
    ):
        with pytest.raises(NumericError):
            call()


def test_sampler_support_and_determinism(density):
    draws = sample_iid(density, 512, seed_stream(7, 3, 1))
    again = sample_iid(density, 512, seed_stream(7, 3, 1))
    np.testing.assert_array_equal(draws, again)
    assert np.all(np.isfinite(draws))
    if density.support == "half-line":
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


def test_scaled_affinity_exponential_closed_form():
    f = standard_density("exponential-rate-1")
    res = scaled_affinity(f, 0.2)
    # X/(1+eps) is exponential with rate 1+eps
    closed = exponential_rate_affinity(1.0, 1.2)
    assert res.rho == pytest.approx(closed.rho, abs=1e-7)
    assert res.rho == pytest.approx(2 * math.sqrt(1.2) / 2.2, abs=1e-7)
    assert 0.0 < res.quadrature_error_estimate < 1e-8


def test_scaled_affinity_gaussian_closed_form():
    f = standard_density("std-gaussian")
    res = scaled_affinity(f, 0.1)
    closed = gaussian_scale_affinity(1.0, 1.0 / 1.1)
    assert res.rho == pytest.approx(closed.rho, abs=1e-7)
    assert res.rho == pytest.approx(0.997735, abs=1e-6)


def test_scaled_affinity_identity():
    f = standard_density("half-gaussian")
    res = scaled_affinity(f, 0.0)
    assert res == AffinityResult(1.0, 0.0)


def test_scaled_affinity_domain():
    f = standard_density("std-gaussian")
    for eps in (-0.5, 0.5, 0.75):
        with pytest.raises(DomainError):
            scaled_affinity(f, eps)


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
    closed = exponential_rate_affinity(1.0, 0.8)
    assert res.rho == pytest.approx(closed.rho, abs=1e-7)


def test_affinity_result_validation():
    with pytest.raises(DomainError):
        AffinityResult(1.2, 0.0)
    with pytest.raises(DomainError):
        AffinityResult(0.5, -1e-9)
    with pytest.raises(DomainError):
        AffinityResult(0.5, math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "affinity, name, position",
    [
        (gaussian_scale_affinity, "sigma1", 0),
        (gaussian_scale_affinity, "sigma2", 1),
        (exponential_rate_affinity, "rate1", 0),
        (exponential_rate_affinity, "rate2", 1),
    ],
)
def test_closed_form_parameters_checked_at_entry(affinity, name, position, bad):
    args = [1.0, 1.0]
    args[position] = bad
    with pytest.raises(DomainError, match=f"{name} must be finite and positive"):
        affinity(*args)


def numpy_form(f):
    """The same density with its potential in the earlier NumPy form."""
    return dataclasses.replace(f, potential=NUMPY_FORM_POTENTIALS[f.name])


HALF_LINE_NAMES = ("exponential-rate-1", "half-gaussian")


class TestPlainArithmeticPotentials:
    """The plain-arithmetic potentials give every quadrature bit for bit."""

    def test_same_values_on_floats_and_arrays(self, density):
        x = np.concatenate([sample_iid(density, 64, seed_stream(8, 1, 2)), [0.0, 39.5]])
        old = NUMPY_FORM_POTENTIALS[density.name]
        np.testing.assert_array_equal(density.potential(x), old(x))
        for v in x.tolist():
            assert type(density.potential(v)) is float
            assert density.potential(v) == old(v)

    def test_normalization(self, density):
        assert normalization(density) == normalization(numpy_form(density))

    @pytest.mark.parametrize("eps", [-0.4, -0.1, -1e-3, 1e-4, 0.01, 0.07, 0.2, 0.45])
    def test_scaled_affinity(self, density, eps):
        assert scaled_affinity(density, eps) == scaled_affinity(
            numpy_form(density), eps
        )

    @pytest.mark.parametrize("name", HALF_LINE_NAMES)
    @pytest.mark.parametrize(
        "alpha, n", [(0.5, 10), (1.0, 10), (1.0, 100), (3.0, 100), (1.0, 6400)]
    )
    def test_perturbation_affinity(self, name, alpha, n):
        f = standard_density(name)
        assert perturbation_affinity(f, alpha, n) == perturbation_affinity(
            numpy_form(f), alpha, n
        )

    @pytest.mark.parametrize("name", HALF_LINE_NAMES)
    @pytest.mark.parametrize("n", [1, 10, 100, 1600, 6400])
    def test_row_tail_probability(self, name, n):
        f = standard_density(name)
        assert row_tail_probability(f, n) == row_tail_probability(numpy_form(f), n)
