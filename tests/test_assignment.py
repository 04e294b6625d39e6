"""Tests for the random assignment model and its cost-deformation coupling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flucert import assignment
from flucert.assignment import (
    AssignmentResult,
    CostMatrix,
    gap_certificate,
    hungarian,
    invert_perturbation,
    perturb_costs,
    perturbation_affinity,
    row_tail_probability,
)
from flucert.densities import sample_iid, standard_density
from flucert.errors import DomainError, ShapeError
from flucert.rng import seed_stream
from oracles import (
    brute_force_assignment,
    deformation,
    hungarian_loop,
    quad_perturbation_affinity,
    quad_row_tail_probability,
)

EXPO = standard_density("exponential-rate-1")


def random_costs(n, seed):
    return CostMatrix(n, sample_iid(EXPO, n * n, seed_stream(seed, n, 0)).reshape(n, n))


class TestHungarian:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_loop_oracle(self, seed):
        n = 1 + 7 * seed % 60
        cm = random_costs(n, seed)
        got = hungarian(cm)
        perm, cost = hungarian_loop(cm.entries)
        assert got.cost == pytest.approx(cost, rel=1e-12)
        np.testing.assert_array_equal(got.permutation, perm)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        n = 1 + seed % 8
        cm = random_costs(n, 100 + seed)
        got = hungarian(cm)
        perm, cost = brute_force_assignment(cm.entries)
        assert got.cost == pytest.approx(cost, rel=1e-12)
        np.testing.assert_array_equal(got.permutation, perm)

    def test_result_is_cost_of_its_permutation(self):
        cm = random_costs(30, 7)
        got = hungarian(cm)
        assert got.cost == float(cm.entries[np.arange(30), got.permutation].sum())

    def test_ties_give_an_optimal_bijection(self):
        cm = CostMatrix(4, np.ones((4, 4)))
        got = hungarian(cm)
        assert sorted(got.permutation.tolist()) == [0, 1, 2, 3]
        assert got.cost == 4.0

    def test_permutation_must_be_a_bijection(self):
        with pytest.raises(DomainError):
            AssignmentResult(permutation=[0, 0, 2], cost=1.0)

    @pytest.mark.parametrize(
        "perm",
        [
            # [0.5, 1.2] used to be truncated to the bijection [0, 1]
            [0.5, 1.2],
            [0.0, 1.0],
            np.array([1.0, 0.0]),
            [True, False],
            # numpy used to raise its own ValueError on a ragged nest
            [[0], [1, 2]],
            ["0", "1"],
            None,
        ],
    )
    def test_permutation_must_be_integers(self, perm):
        with pytest.raises(DomainError, match="^permutation must be integers"):
            AssignmentResult(permutation=perm, cost=1.0)

    @pytest.mark.parametrize(
        "perm", [[1, 0, 2], np.array([2, 0, 1], dtype=np.uint8), (0,)]
    )
    def test_integer_permutations_accepted(self, perm):
        result = AssignmentResult(permutation=perm, cost=1.0)
        assert result.permutation.tolist() == list(perm)
        assert result.permutation.dtype == int

    def test_non_square_costs_rejected(self):
        with pytest.raises(ShapeError):
            CostMatrix(3, np.ones((3, 4)))

    def test_negative_costs_rejected(self):
        with pytest.raises(DomainError):
            CostMatrix(2, -np.ones((2, 2)))


class TestDeformation:
    @given(
        st.floats(0.0, 10.0),
        st.floats(0.0, 5.0),
        st.integers(1, 10_000),
    )
    @settings(max_examples=200)
    def test_invert_undoes_the_forward_map(self, x, alpha, n):
        forward = x + (alpha / n) * deformation(x, n)
        assert invert_perturbation(forward, alpha, n) == pytest.approx(
            x, rel=1e-12, abs=1e-15
        )

    def test_profile_is_continuous_at_the_breakpoint(self):
        n = 64
        below = deformation(1.0 / n, n)
        above = deformation(np.nextafter(1.0 / n, 1.0), n)
        assert above == pytest.approx(below, rel=1e-12)

    def test_perturbed_costs_shrink(self):
        cm = random_costs(12, 3)
        assert np.all(perturb_costs(cm, 1.0).entries <= cm.entries)

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            invert_perturbation(1.0, -0.1, 10)

    def test_nan_cost_rejected(self):
        with pytest.raises(DomainError):
            deformation(math.nan, 10)
        with pytest.raises(DomainError):
            invert_perturbation(np.array([0.5, math.nan]), 1.0, 10)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_nan_and_infinite_alpha_rejected(self, alpha):
        with pytest.raises(DomainError, match="^need a real alpha in "):
            invert_perturbation(1.0, alpha, 10)

    @pytest.mark.parametrize("n", [0, -4, 2.5, math.nan, math.inf])
    def test_bad_size_rejected(self, n):
        with pytest.raises(DomainError, match="whole n >= 1"):
            invert_perturbation(np.array([0.5]), 1.0, n)


class TestAffinity:
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_affinity_tends_to_one_as_alpha_vanishes(self, n):
        assert perturbation_affinity(EXPO, 0.0, n).rho == 1.0
        alphas = [1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001]
        gaps = [1.0 - perturbation_affinity(EXPO, a, n).rho for a in alphas]
        assert all(g >= -1e-12 for g in gaps)
        assert all(later <= earlier + 1e-12 for earlier, later in zip(gaps, gaps[1:]))
        # the deficit is second order in alpha
        scale = gaps[0]
        for a, g in zip(alphas, gaps):
            assert g <= 2.0 * scale * a * a + 1e-12

    @pytest.mark.parametrize("n", [10, 100, 400, 6400])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_affinity_matches_quadrature(self, alpha, n):
        res = perturbation_affinity(EXPO, alpha, n)
        assert abs(res.rho - quad_perturbation_affinity(alpha, n)) <= 2e-15
        assert res.quadrature_error_estimate == 0.0

    @pytest.mark.parametrize("n", [1, 10, 100, 1600, 6400])
    def test_row_tail_matches_quadrature(self, n):
        got = row_tail_probability(EXPO, n)
        assert got == pytest.approx(quad_row_tail_probability(n), rel=1e-12)

    @pytest.mark.parametrize(
        "alpha, n", [(1.0, 0), (-1.0, -4), (1.0, 2.5), (1.0, math.nan)]
    )
    def test_affinity_size_rejected(self, alpha, n):
        with pytest.raises(DomainError, match="whole n >= 1"):
            perturbation_affinity(EXPO, alpha, n)

    @pytest.mark.parametrize("n", [0, -3, 2.5, math.nan, math.inf])
    def test_row_tail_size_rejected(self, n):
        with pytest.raises(DomainError, match="whole n >= 1"):
            row_tail_probability(EXPO, n)

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            perturbation_affinity(EXPO, 5.0, 10)

    def test_full_line_density_rejected(self):
        gauss = standard_density("std-gaussian")
        with pytest.raises(DomainError, match="rate-1 exponential"):
            perturbation_affinity(gauss, 1.0, 10)
        with pytest.raises(DomainError, match="rate-1 exponential"):
            row_tail_probability(gauss, 10)

    @pytest.mark.parametrize("n", [1, 10, 400])
    def test_row_tail_of_exponential(self, n):
        # P(min of n rate-1 exponentials >= 1/n) = exp(-1)
        assert row_tail_probability(EXPO, n) == pytest.approx(math.exp(-1.0), rel=1e-9)


class TestGapCertificate:
    @pytest.mark.parametrize("seed", range(10))
    def test_gap_holds(self, seed):
        cert = gap_certificate(random_costs(25, seed), 1.0)
        assert cert.holds
        assert cert.cost - cert.cost_perturbed >= cert.lower_bound - 1e-10

    def test_nan_alpha_rejected_at_entry(self):
        with pytest.raises(DomainError, match="^need a real alpha in "):
            gap_certificate(random_costs(6, 0), math.nan)

    def test_empty_instance_rejected(self):
        with pytest.raises(DomainError, match="whole n >= 1"):
            gap_certificate(CostMatrix(0, np.zeros((0, 0))), 1.0)

    def test_solves_base_and_perturbed_instance(self, monkeypatch):
        seen = []

        def counting(cm):
            seen.append(cm)
            return hungarian(cm)

        monkeypatch.setattr(assignment, "hungarian", counting)
        cm = random_costs(8, 1)
        gap_certificate(cm, 1.0)
        assert len(seen) == 2
        assert seen[0] is cm
        np.testing.assert_array_equal(seen[1].entries, perturb_costs(cm, 1.0).entries)
