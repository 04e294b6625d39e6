"""Tests for the certificate algebra and the Bernoulli coupling."""

import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from flucert.coupling import (
    CouplingCertificate,
    PerturbationPlan,
    bernoulli_exact_tv,
    bernoulli_mixing_coupling,
    certify,
    hoeffding_slack,
    product_tv_bound,
    tv_upper_from_affinity,
)
from flucert.densities import scaled_affinity, standard_density
from flucert.errors import DomainError
from flucert.rng import seed_stream
from oracles import (
    bernoulli_coordinate_affinity,
    bernoulli_exact_tv_in_order,
    bernoulli_two_draws,
)


def exact_scale_tv(density, n, eps):
    """Exact TV between n i.i.d. draws of ``density`` and the same divided by
    1 + eps, from its law at the density crossing.  The likelihood ratio
    depends only on r = sum x^2 (chi-square, n degrees) for the Gaussian and
    s = sum x (Gamma(n)) for the exponential, and it crosses 1 once."""
    if density.name == "std-gaussian":
        r = 2 * n * math.log1p(eps) / ((1 + eps) ** 2 - 1)
        return abs(gammainc(n / 2, r * (1 + eps) ** 2 / 2) - gammainc(n / 2, r / 2))
    s = n * math.log1p(eps) / eps
    return abs(gammainc(n, s * (1 + eps)) - gammainc(n, s))


def certified_bound(p_close, tv):
    """The certificate's bound when the closeness probability is known exactly."""
    return CouplingCertificate(0.0, p_close, 0.0, tv, 0.95).bound


class TestAntiConcentrationBound:
    def test_degenerate_cases(self):
        assert certified_bound(1.0, 0.0) == 1.0
        assert certified_bound(0.0, 0.0) == 0.5

    def test_worked_example(self):
        # closeness 1/3 and TV 1/2 certify 11/12
        assert certified_bound(1 / 3, 1 / 2) == pytest.approx(11 / 12)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_range(self, p, tv):
        b = certified_bound(p, tv)
        assert 0.5 <= b <= 1.0


class TestTvFromAffinity:
    def test_endpoints(self):
        assert tv_upper_from_affinity(1.0) == 0.0
        assert tv_upper_from_affinity(0.0) == 1.0

    def test_three_four_five(self):
        assert tv_upper_from_affinity(0.6) == pytest.approx(0.8, abs=1e-15)


class TestProductTvBound:
    def test_all_one(self):
        for count in (5, 0):  # the empty plan too
            plan = PerturbationPlan("scale", np.zeros(count), np.ones(count))
            assert product_tv_bound(plan) == 0.0
            assert math.copysign(1.0, product_tv_bound(plan)) == 1.0  # not -0.0

    def test_single_coordinate_matches_scalar_form(self):
        plan = PerturbationPlan("mixing", np.zeros(1), np.array([0.6]))
        assert product_tv_bound(plan) == pytest.approx(
            tv_upper_from_affinity(0.6), abs=1e-15
        )

    def test_hundred_coordinates(self):
        plan = PerturbationPlan("scale", np.zeros(100), np.full(100, 1 - 1e-4))
        expected = math.sqrt(-math.expm1(200 * math.log(1 - 1e-4)))
        value = product_tv_bound(plan)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.14071, abs=2e-5)

    def test_zero_affinity_gives_one(self):
        plan = PerturbationPlan("mixing", np.zeros(2), np.array([0.5, 0.0]))
        assert product_tv_bound(plan) == 1.0

    def test_limit(self):
        # the affinity product (1 - c/n)^n tends to e^-c
        n, c = 10**6, 1.0
        plan = PerturbationPlan("mixing", np.zeros(n), np.full(n, 1.0 - c / n))
        expected = math.sqrt(1.0 - math.exp(-2.0 * c))
        assert product_tv_bound(plan) == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("name", ["std-gaussian", "exponential-rate-1"])
    def test_brackets_exact_scale_tv(self, name):
        # 1 - rho^n is the squared Hellinger distance, a lower bound on the TV
        density = standard_density(name)
        for n in (20, 80, 320, 1280, 5120, 20480, 51200):
            for size in (0.01, 0.03, 0.1, 0.2, 0.3, 0.45):
                for eps in (size, -size):
                    rho = scaled_affinity(density, eps).rho
                    plan = PerturbationPlan("scale", np.full(n, eps), np.full(n, rho))
                    exact = exact_scale_tv(density, n, eps)
                    assert -math.expm1(n * math.log(rho)) <= exact, (n, eps)
                    assert exact <= product_tv_bound(plan), (n, eps)

    @pytest.mark.parametrize(
        "name, n, eps, expected",
        [
            ("std-gaussian", 20, 0.3, 0.5885),  # the Monte-Carlo gate's value
            ("std-gaussian", 66, -1 / 12, 0.3819),  # SK, n = 12
            ("std-gaussian", 20, 10**-0.5, 0.6102),  # TSP, n = 10
            ("exponential-rate-1", 10**4, 0.01, 0.3812),
            ("std-gaussian", 51200, 51200**-0.5, 0.5195),  # covariance
        ],
    )
    def test_exact_scale_tv_values(self, name, n, eps, expected):
        assert exact_scale_tv(standard_density(name), n, eps) == pytest.approx(
            expected, abs=5e-5
        )


class TestPerturbationPlan:
    def test_scale_eps_range(self):
        with pytest.raises(DomainError):
            PerturbationPlan("scale", np.array([0.6]), np.ones(1))

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            PerturbationPlan("twist", np.zeros(1), np.ones(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, bad):
        with pytest.raises(DomainError):
            PerturbationPlan("mixing", [0.1, bad], [0.9, 0.9])


class _RawWords:
    """A generator stub whose bit generator returns fixed raw words."""

    def __init__(self, words):
        self.bit_generator = self
        self._words = words

    def random_raw(self, size):
        assert size == self._words.size
        return self._words


class TestBernoulliMixing:
    def test_alpha_zero_identity(self):
        x, xp = bernoulli_mixing_coupling(64, 0.0, seed_stream(5))
        np.testing.assert_array_equal(x, xp)

    def test_never_decreases(self):
        x, xp = bernoulli_mixing_coupling(256, 0.5, seed_stream(6))
        assert np.all(xp >= x)
        assert set(np.unique(x)) <= {0, 1}

    @pytest.mark.parametrize("n", [1, 2, 100, 6400])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.3, 0.9])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_two_draw_oracle(self, n, eps, seed):
        alpha = eps * math.sqrt(n)
        stream = seed_stream(seed, n, 3)
        x, xp = bernoulli_mixing_coupling(n, alpha, stream)
        oracle = seed_stream(seed, n, 3)
        ox, oxp = bernoulli_two_draws(n, alpha, oracle)
        assert x.dtype == xp.dtype == np.int8
        np.testing.assert_array_equal(x, ox)
        np.testing.assert_array_equal(xp, oxp)
        assert stream.random() == oracle.random()  # same words consumed

    @pytest.mark.parametrize(
        "eps",
        [0.0]
        # eps equal to the uniform of k, including ties rounded up or down
        + [k * 2.0**-53 + 2.0**-54 for k in (0, 1, 12345, 2**52 - 1, 2**52)]
        + [k * 2.0**-53 + 2.0**-54 for k in (2**52 + 1, 2**52 + 2, 2**53 - 2)]
        + [k * 2.0**-53 for k in (1, 3, 2**52 + 1, 2**52 + 2, 2**53 - 3)]
        # eps between two uniforms, below and above their midpoint
        + [(k + f) * 2.0**-53 for k in (0, 12345, 2**50) for f in (0.25, 0.75)]
        + [0.05, 0.5, math.nextafter(1.0, 0.0), 1.0 - 2.0**-52],
    )
    def test_raw_word_threshold_edges(self, eps):
        # words on each side of the integer bounds, with the 11 bits that the
        # conversion to a double drops all 0 and all 1; the other half holds
        # the top word, which sets no coin and forces nothing, so every
        # comparison shows in the output; at n = 4, alpha = 2 eps is exact
        def uniform(k):
            return k * 2.0**-53 + 2.0**-54

        top = 2**53
        bound = bisect.bisect_left(range(top), True, key=lambda k: uniform(k) >= eps)

        def near(edge):
            return [
                k << 11 | low
                for k in (edge - 1, edge, edge + 1)
                if 0 <= k < top
                for low in (0, 2**11 - 1)
            ]

        quiet = [2**64 - 1] * 4
        coins, forces = near(2**52), near(bound)
        cases = [(coins[i : i + 4] + quiet)[:4] + quiet for i in (0, 4)]
        cases += [quiet + (forces[i : i + 4] + quiet)[:4] for i in (0, 4)]
        for raw in cases:
            w = np.array(raw, dtype=np.uint64)
            x, xp = bernoulli_mixing_coupling(4, 2.0 * eps, _RawWords(w))
            u = (w >> np.uint64(11)) * 2.0**-53 + 2.0**-54
            ox = (u[:4] < 0.5).astype(np.int8)
            np.testing.assert_array_equal(x, ox)
            np.testing.assert_array_equal(xp, ox | (u[4:] < eps))
            assert x.dtype == xp.dtype == np.int8

    def test_flip_probability(self):
        # X'_i = X_i + 1 fires with probability eps/2 per coordinate
        n, alpha, runs = 400, 0.3, 2000
        eps = alpha / math.sqrt(n)
        flips = 0
        for rep in range(runs):
            x, xp = bernoulli_mixing_coupling(n, alpha, seed_stream(99, rep, 0))
            flips += int((xp - x).sum())
        total = runs * n
        p_hat = flips / total
        sigma = math.sqrt((eps / 2) * (1 - eps / 2) / total)
        assert abs(p_hat - eps / 2) < 4 * sigma

    def test_gap_mean(self):
        # sum of X' - X is Binomial(n, eps/2); check the mean at 3 sigma
        n, alpha, runs = 400, 0.3, 10**5
        eps = alpha / math.sqrt(n)
        gaps = np.empty(runs)
        for rep in range(runs):
            x, xp = bernoulli_mixing_coupling(n, alpha, seed_stream(37, rep, 0))
            gaps[rep] = (xp - x).sum()
        mean = n * eps / 2
        sigma = math.sqrt(n * (eps / 2) * (1 - eps / 2) / runs)
        assert abs(gaps.mean() - mean) < 3 * sigma
        assert mean == pytest.approx(3.0)
        assert 3 * sigma < 0.05


class TestBernoulliExactTv:
    def test_eps_zero(self):
        assert bernoulli_exact_tv(10, 0.0) == 0.0

    def test_two_point_enumeration(self):
        assert bernoulli_exact_tv(1, 0.2) == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("eps", [1.0, -0.1, math.nan, math.inf])
    def test_eps_domain(self, eps):
        with pytest.raises(DomainError):
            bernoulli_exact_tv(100, eps)

    def test_matches_positive_part_form(self):
        # the expectation form E(1 - (1+eps)^S (1-eps)^(n-S))_+ agrees
        n, eps = 12, 0.07
        k = np.arange(n + 1)
        from scipy.special import comb

        pmf = comb(n, k) * 0.5**n
        ratio = (1 + eps) ** k * (1 - eps) ** (n - k)
        expected = float(np.sum(pmf * np.clip(1 - ratio, 0.0, None)))
        assert bernoulli_exact_tv(n, eps) == pytest.approx(expected, abs=1e-12)

    def test_dominated_by_hellinger_product(self):
        for n in (1, 10, 100, 400):
            for eps in (0.01, 0.05, 0.1):
                rho = bernoulli_coordinate_affinity(eps)
                plan = PerturbationPlan("mixing", np.full(n, eps), np.full(n, rho))
                hell = product_tv_bound(plan)
                assert bernoulli_exact_tv(n, eps) <= hell + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 100, 1600, 6400, 100000])
    @pytest.mark.parametrize("eps", [1e-3, 0.0125, 0.1, 0.5, 0.99])
    def test_matches_in_order_sum(self, n, eps):
        # fsum is correctly rounded, so the order of the terms cannot matter
        assert bernoulli_exact_tv(n, eps) == bernoulli_exact_tv_in_order(n, eps)

    def test_large_n_stable(self):
        value = bernoulli_exact_tv(100000, 0.001)
        assert 0.0 < value < 1.0


class TestCertify:
    def test_slack_value(self):
        assert hoeffding_slack(20000, 0.95) == pytest.approx(0.009603, abs=1e-6)

    def test_all_ones_bound_is_one(self):
        cert = certify(np.ones(500), 0.7, 0.95)
        assert cert.bound == 1.0

    def test_all_zero_large_n_tends_to_half(self):
        cert = certify(np.zeros(10**6), 0.0, 0.95)
        assert cert.bound == pytest.approx(0.5, abs=1e-3)
        assert cert.bound >= 0.5

    def test_bound_formula(self):
        ind = np.array([1, 0, 0, 1, 0, 0, 0, 0, 1, 0], dtype=float)
        cert = certify(ind, 0.25, 0.9, delta=1.5)
        slack = hoeffding_slack(10, 0.9)
        expected = min(1.0, 0.5 * (1 + min(1.0, 0.3 + slack) + 0.25))
        assert cert.bound == pytest.approx(expected, abs=1e-15)
        assert cert.delta == 1.5

    def test_covers_exact_bernoulli_closeness(self):
        # the gap S' - S is exactly Bin(n, eps/2): with n = 100 and alpha = 1,
        # P(gap <= 2.5) = P(Bin(100, 0.05) <= 2), about 0.118
        n, delta, seeds, replicates = 100, 2.5, range(1, 201), 60
        p = Fraction(1, 20)
        pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
        cdf = np.cumsum([float(q) for q in pmf])
        exact = float(sum(pmf[:3]))
        assert exact == pytest.approx(0.1183, abs=1e-4)
        gaps = np.empty((len(seeds), replicates), dtype=int)
        for i, seed in enumerate(seeds):
            for rep in range(replicates):
                stream = seed_stream(seed, rep, 0)
                x, x_prime = bernoulli_mixing_coupling(n, 1.0, stream)
                gaps[i, rep] = int(x_prime.sum()) - int(x.sum())
        covered = 0
        for row in gaps:
            cert = certify(row <= delta, 0.0, 0.95, delta)
            covered += cert.p_close_hat + cert.p_close_slack >= exact
        assert covered >= 190
        # the Hoeffding slack at 60 replicates (0.175) alone exceeds the exact
        # value, so the pooled gaps must also follow Bin(n, eps/2) itself: a
        # two-sided DKW band at 99.9 % around their empirical CDF
        empirical = np.bincount(gaps.ravel(), minlength=n + 1).cumsum() / gaps.size
        band = math.sqrt(math.log(2 / 0.001) / (2 * gaps.size))
        assert np.max(np.abs(empirical - cdf)) <= band

    @pytest.mark.parametrize(
        "indicators",
        [[[1], [1, 0]], ["1", "0"], [1, None], [1 + 0j, 0], [1, 0.5], [1, math.nan]],
    )
    def test_ragged_or_non_numeric_indicators_rejected(self, indicators):
        with pytest.raises(DomainError, match="^indicators must be 0/1"):
            certify(indicators, 0.0, 0.95)

    @pytest.mark.parametrize("to_array", [list, np.array])
    def test_bool_and_int_indicators_accepted(self, to_array):
        for indicators in ([True, False, True, True], [1, 0, 1, 1]):
            assert certify(to_array(indicators), 0.0, 0.95).p_close_hat == 0.75

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="need a whole indicator count >= 1"):
            certify(np.array([]), 0.0, 0.95)

    @pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf, -math.inf])
    def test_delta_must_be_finite_and_nonnegative(self, delta):
        with pytest.raises(DomainError):
            certify(np.ones(4), 0.0, 0.95, delta=delta)
        with pytest.raises(DomainError):
            CouplingCertificate(delta, 0.5, 0.0, 0.5, 0.95)

    @pytest.mark.parametrize("slack", [-0.1, math.nan])
    def test_slack_must_be_nonnegative(self, slack):
        with pytest.raises(DomainError):
            CouplingCertificate(1.0, 0.5, slack, 0.5, 0.95)

    @given(
        st.integers(1, 200),
        st.floats(0, 1),
        st.floats(0.5, 0.999),
    )
    @settings(max_examples=60)
    def test_bound_always_in_range(self, n, tv, conf):
        rng = np.random.default_rng(n)
        ind = (rng.random(n) < 0.3).astype(float)
        cert = certify(ind, tv, conf)
        assert 0.5 <= cert.bound <= 1.0


def _exact_tv_discrete(px, py):
    return 0.5 * float(np.abs(px - py).sum())


class TestCouplingLemmaOracle:
    """Exhaustive verification of the coupling inequality on finite grids."""

    def test_random_joint_tables(self):
        rng = seed_stream(2718, 0, 0)
        for _ in range(200):
            support = np.sort(rng.random(5) * 10)
            joint = rng.exponential(size=(5, 5))
            joint /= joint.sum()
            px = joint.sum(axis=1)
            py = joint.sum(axis=0)
            tv = _exact_tv_discrete(px, py)
            gaps = np.abs(support[:, None] - support[None, :])
            # intervals with endpoints at support points dominate all others
            for i in range(5):
                for j in range(i, 5):
                    lhs = px[i : j + 1].sum()
                    length = support[j] - support[i]
                    p_close = joint[gaps <= length].sum()
                    rhs = 0.5 * (1 + p_close + tv)
                    assert lhs <= rhs + 1e-12

    def test_integer_grid_tables(self):
        rng = seed_stream(2719, 0, 0)
        support = np.arange(5.0)
        for _ in range(100):
            joint = rng.dirichlet(np.ones(25)).reshape(5, 5)
            px = joint.sum(axis=1)
            py = joint.sum(axis=0)
            tv = _exact_tv_discrete(px, py)
            gaps = np.abs(support[:, None] - support[None, :])
            for i in range(5):
                for j in range(i, 5):
                    lhs = px[i : j + 1].sum()
                    p_close = joint[gaps <= support[j] - support[i]].sum()
                    assert lhs <= 0.5 * (1 + p_close + tv) + 1e-12
