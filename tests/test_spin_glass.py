"""Tests for exact spin-glass thermodynamics and the disorder scaling."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from flucert.densities import sample_iid, standard_density
from flucert.errors import DomainError, ShapeError, SizeError
from flucert.rng import seed_stream
from flucert.spin_glass import (
    MAX_SPINS,
    SKDisorder,
    enumerate_energies,
    jensen_gap_check,
    result_from_energies,
    scale_disorder,
)
from oracles import gray_code_energies, hamiltonian


def random_disorder(n, seed):
    return SKDisorder(n, seed_stream(seed).standard_normal(n * (n - 1) // 2))


def free_energy_slope(energies, beta):
    """Central difference, step 1e-4, of the free energy logsumexp(beta E) in beta."""
    up = float(logsumexp((beta + 1e-4) * energies))
    down = float(logsumexp((beta - 1e-4) * energies))
    return (up - down) / 2e-4


def jensen(dis, alpha, beta):
    """``jensen_gap_check`` with the two energy tables it needs."""
    energies = enumerate_energies(dis)
    scaled = enumerate_energies(scale_disorder(dis, alpha))
    return jensen_gap_check(dis, alpha, beta, energies, scaled)


def naive_energies(dis):
    """Independent oracle: batch-matrix enumeration, no incremental updates."""
    n = dis.n
    mat = dis.coupling_matrix()
    configs = np.arange(1 << n)[:, None]
    spins = 1.0 - 2.0 * ((configs >> np.arange(n)) & 1)
    return 0.5 * np.einsum("ci,ij,cj->c", spins, mat, spins) / math.sqrt(n)


class TestDisorder:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            SKDisorder(4, np.zeros(5))

    def test_matrix_symmetric_zero_diag(self):
        dis = random_disorder(5, 1)
        mat = dis.coupling_matrix()
        np.testing.assert_array_equal(mat, mat.T)
        np.testing.assert_array_equal(np.diag(mat), np.zeros(5))


class TestHamiltonian:
    def test_two_spins(self):
        dis = SKDisorder(2, np.array([1.0]))
        assert hamiltonian(dis, [1, 1]) == pytest.approx(1 / math.sqrt(2))

    def test_global_flip_invariance(self):
        dis = random_disorder(6, 3)
        sigma = np.sign(seed_stream(4).standard_normal(6))
        assert hamiltonian(dis, sigma) == pytest.approx(
            hamiltonian(dis, -sigma), abs=1e-12
        )

    def test_matches_direct_sum(self):
        dis = random_disorder(3, 5)
        sigma = np.array([1.0, -1.0, 1.0])
        g01, g02, g12 = dis.couplings
        direct = (
            g01 * sigma[0] * sigma[1]
            + g02 * sigma[0] * sigma[2]
            + g12 * sigma[1] * sigma[2]
        ) / math.sqrt(3)
        assert hamiltonian(dis, sigma) == pytest.approx(direct, abs=1e-12)

    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            hamiltonian(random_disorder(4, 0), [1, -1, 1])


class TestEnumeration:
    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_gray_code_matches_naive(self, n):
        dis = random_disorder(n, 10 + n)
        np.testing.assert_allclose(
            enumerate_energies(dis), naive_energies(dis), atol=1e-10
        )

    def test_size_cap(self):
        with pytest.raises(SizeError):
            enumerate_energies(random_disorder(21, 0))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_oracles(self, n):
        # odd n and n = 2, 3 give unequal halves and a one-spin low half
        for seed in (0, 1):
            dis = random_disorder(n, 1000 + 10 * n + seed)
            energies = enumerate_energies(dis)
            np.testing.assert_allclose(
                energies, naive_energies(dis), rtol=0, atol=1e-10
            )
            np.testing.assert_allclose(
                energies, gray_code_energies(dis), rtol=0, atol=1e-10
            )

    def test_spot_check_at_max_spins(self):
        # the einsum oracle would need 160 MiB at this size
        n = MAX_SPINS
        dis = random_disorder(n, 1200)
        energies = enumerate_energies(dis)
        assert energies.shape == (1 << n,)
        for b in seed_stream(1201).integers(0, 1 << n, size=256):
            spins = 1.0 - 2.0 * ((int(b) >> np.arange(n)) & 1)
            assert energies[b] == pytest.approx(hamiltonian(dis, spins), abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_global_flip_symmetry(self, n):
        energies = enumerate_energies(random_disorder(n, 1300 + n))
        # b ^ (2^n - 1) = 2^n - 1 - b, so flipping every spin reverses the table
        np.testing.assert_allclose(energies, energies[::-1], rtol=0, atol=1e-12)


class TestFreeEnergy:
    def test_infinite_temperature(self):
        res = result_from_energies(enumerate_energies(random_disorder(7, 6)), 0.0)
        assert res.free_energy == pytest.approx(7 * math.log(2), abs=1e-10)

    def test_two_spin_closed_form(self):
        dis = SKDisorder(2, np.array([1.0]))
        res = result_from_energies(enumerate_energies(dis), 1.0)
        assert res.free_energy == pytest.approx(
            math.log(4 * math.cosh(1 / math.sqrt(2))), abs=1e-12
        )

    def test_matches_naive_logsumexp(self):
        dis = random_disorder(10, 7)
        res = result_from_energies(enumerate_energies(dis), 1.3)
        energies = naive_energies(dis)
        shifted = 1.3 * energies
        expected = math.log(np.exp(shifted - shifted.max()).sum()) + shifted.max()
        assert res.free_energy == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.0, 2.5])
    def test_one_exp_pass_matches_logsumexp_and_two_pass_weights(self, beta):
        energies = enumerate_energies(random_disorder(12, 16))
        res = result_from_energies(energies, beta)
        assert res.free_energy == pytest.approx(
            float(logsumexp(beta * energies)), rel=1e-14
        )
        # the Gibbs average as the earlier two-pass form computed it, bit for bit
        shifted = beta * energies - np.max(beta * energies)
        weights = np.exp(shifted)
        weights /= weights.sum()
        assert res.gibbs_energy == float(weights @ energies)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_tables_unchanged(self, beta):
        # the weights are one temporary worked in place, never a caller's table
        dis = random_disorder(8, 17)
        energies = enumerate_energies(dis)
        scaled = enumerate_energies(scale_disorder(dis, 0.5))
        before = energies.tobytes(), scaled.tobytes()
        result_from_energies(energies, beta)
        jensen_gap_check(dis, 0.5, beta, energies, scaled)
        assert (energies.tobytes(), scaled.tobytes()) == before

    def test_free_energy_lower_bounds(self):
        energies = enumerate_energies(random_disorder(9, 8))
        for beta in (0.0, 0.7, 1.5):
            res = result_from_energies(energies, beta)
            assert res.free_energy >= 9 * math.log(2) + beta * energies.min() - 1e-9
            assert res.free_energy >= beta * energies.max() - 1e-9

    def test_convex_in_beta(self):
        dis = random_disorder(10, 9)
        energies = enumerate_energies(dis)
        betas = [0.0, 0.5, 1.0, 1.5, 2.0]
        values = [result_from_energies(energies, b).free_energy for b in betas]
        second = np.diff(values, 2)
        assert np.all(second >= -1e-8)

    def test_gibbs_average_zero_at_infinite_temperature(self):
        dis = random_disorder(8, 11)
        res = result_from_energies(enumerate_energies(dis), 0.0)
        assert res.gibbs_energy == pytest.approx(0.0, abs=1e-10)

    def test_spin_relabeling_invariance(self):
        n = 7
        dis = random_disorder(n, 12)
        perm = seed_stream(13).permutation(n)
        mat = dis.coupling_matrix()[np.ix_(perm, perm)]
        relabeled = SKDisorder(n, mat[np.triu_indices(n, k=1)])
        energies, relabeled_energies = map(enumerate_energies, (dis, relabeled))
        a = result_from_energies(energies, 1.2)
        b = result_from_energies(relabeled_energies, 1.2)
        assert a.free_energy == pytest.approx(b.free_energy, abs=1e-10)
        assert energies.max() == pytest.approx(relabeled_energies.max(), abs=1e-10)


class TestEnergyTableChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            result_from_energies(np.array([0.0, bad, 1.0, 2.0]), 1.0)

    def test_overflowing_beta_energy_rejected(self):
        # beta * E is +-inf here; the exp pass would give SKResult(nan, nan)
        with pytest.raises(DomainError, match="^energies must be finite reals in"):
            result_from_energies(np.array([1e308, -1e308]), 10.0)

    @pytest.mark.parametrize("table", [np.array([]), np.zeros((2, 2)), 1.0])
    def test_not_a_non_empty_vector_rejected(self, table):
        with pytest.raises(ShapeError):
            result_from_energies(table, 1.0)

    def test_jensen_table_length(self):
        dis = random_disorder(5, 1400)
        energies = enumerate_energies(dis)
        scaled = enumerate_energies(scale_disorder(dis, 0.5))
        with pytest.raises(ShapeError):
            jensen_gap_check(dis, 0.5, 1.0, energies[:-1], scaled)
        with pytest.raises(ShapeError):
            jensen_gap_check(dis, 0.5, 1.0, energies, np.r_[scaled, 0.0])


class TestParameterChecks:
    @pytest.mark.parametrize("beta", [np.nan, np.inf, -1.0])
    def test_free_energy_needs_finite_nonnegative_beta(self, beta):
        with pytest.raises(DomainError):
            result_from_energies(enumerate_energies(random_disorder(6, 1402)), beta)

    def test_jensen_alpha_checked_before_the_tables(self):
        dis = random_disorder(6, 1405)
        energies = enumerate_energies(dis)
        with pytest.raises(DomainError):
            jensen_gap_check(dis, 10.0, 1.0, energies, energies)
        with pytest.raises(DomainError):
            jensen_gap_check(dis, 10.0, 1.0, energies[:1], energies[:1])


class TestScaling:
    def test_identity_at_zero(self):
        dis = random_disorder(6, 14)
        np.testing.assert_array_equal(scale_disorder(dis, 0.0).couplings, dis.couplings)

    def test_eps_value(self):
        dis = random_disorder(8, 15)
        expected = dis.couplings / (1 - 0.5 / 8)
        np.testing.assert_array_equal(scale_disorder(dis, 0.5).couplings, expected)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            scale_disorder(random_disorder(4, 0), 2.1)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_ground_state_scales_exactly(self, alpha):
        for seed in range(5):
            dis = random_disorder(10, 20 + seed)
            base = enumerate_energies(dis).max()
            scaled = enumerate_energies(scale_disorder(dis, alpha)).max()
            expected = base / (1 - alpha / 10)
            assert abs(scaled - expected) <= 1e-12 * abs(expected)


class TestJensenGap:
    def test_alpha_zero(self):
        lhs, rhs, holds = jensen(random_disorder(6, 30), 0.0, 1.0)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_beta_zero(self):
        lhs, rhs, holds = jensen(random_disorder(6, 31), 0.8, 0.0)
        assert rhs == 0.0
        assert lhs >= -1e-12
        assert holds

    def test_holds_on_random_disorders(self):
        for seed in range(30):
            dis = random_disorder(8, 100 + seed)
            for beta in (0.5, 1.5):
                lhs, rhs, holds = jensen(dis, 0.5, beta)
                assert holds, (seed, beta, lhs, rhs)

    def test_holds_at_large_coupling_scale(self):
        # the inequality is exact convexity, so only rounding can break it, and
        # rounding grows with |F|: an absolute 1e-10 flagged 74 of these 200
        gauss = standard_density("std-gaussian")
        for rep in range(200):
            couplings = 1e6 * sample_iid(gauss, 66, seed_stream(1, rep))
            lhs, rhs, holds = jensen(SKDisorder(12, couplings), 1.0, 1.0)
            assert holds, (rep, lhs, rhs)

    def test_violation_detected(self):
        # the base table in place of the scaled one gives lhs = 0 < rhs
        dis = random_disorder(6, 32)
        energies = enumerate_energies(dis)
        lhs, rhs, holds = jensen_gap_check(dis, 0.8, 1.0, energies, energies)
        assert lhs == 0.0 < rhs and not holds


class TestDerivative:
    """The Gibbs energy, which feeds the Jensen bound, is dF/dbeta."""

    def test_two_spin_closed_form(self):
        # F(beta) = log(4 cosh(beta g / sqrt 2)) so F' = (g/sqrt 2) tanh(beta g / sqrt 2)
        energies = enumerate_energies(SKDisorder(2, np.array([1.0])))
        gibbs = result_from_energies(energies, 1.0).gibbs_energy
        expected = (1 / math.sqrt(2)) * math.tanh(1 / math.sqrt(2))
        assert gibbs == pytest.approx(expected, abs=1e-12)
        fd = free_energy_slope(energies, 1.0)
        assert abs(fd - gibbs) <= 1e-5 * max(1.0, abs(gibbs))

    def test_agrees_on_random_disorders(self):
        for seed in range(10):
            energies = enumerate_energies(random_disorder(9, 200 + seed))
            gibbs = result_from_energies(energies, 1.4).gibbs_energy
            fd = free_energy_slope(energies, 1.4)
            assert abs(fd - gibbs) <= 1e-5 * max(1.0, abs(gibbs)), (seed, fd, gibbs)
