"""Tests for the Euclidean functionals and their couplings."""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flucert import euclidean, fpp, spin_glass
from flucert.densities import standard_density
from flucert.errors import (
    DegenerateRegionError,
    DomainError,
    InternalConsistencyError,
    ShapeError,
    SizeError,
)
from flucert.euclidean import (
    MATCHING_MAX,
    TSP_EXACT_MAX,
    FunctionalValue,
    PointSet,
    matching_exact,
    matching_length,
    nn_sum,
    rhee_conservative_affinity,
    rhee_coupling_sample,
    rhee_mixture_affinity,
    scaling_coupling,
    tour_length,
    tsp_exact,
    _bitmask_matching,
    _distances,
    _held_karp,
    _held_karp_layers,
    _matching_layers,
)
from flucert.rng import seed_stream
from oracles import (
    dense_nn_sum,
    held_karp_loop,
    matching_loop,
    rhee_sample_unbounded,
)

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
GAUSS = standard_density("std-gaussian")


def distance_matrix(ps):
    return _distances(ps.points)


def random_points(n, seed, half_line=False):
    pts = seed_stream(seed).standard_normal((n, 2))
    if half_line:
        pts = np.abs(pts)
    return PointSet(2, pts)


def brute_force_tour(ps):
    dist = distance_matrix(ps)
    n = ps.n
    best = math.inf
    for perm in permutations(range(1, n)):
        order = (0,) + perm
        value = sum(dist[order[i], order[(i + 1) % n]] for i in range(n))
        best = min(best, value)
    return best


def brute_force_matching(ps):
    dist = distance_matrix(ps)

    def rec(idx):
        if not idx:
            return 0.0
        i = idx[0]
        best = math.inf
        for k in range(1, len(idx)):
            j = idx[k]
            rest = idx[1:k] + idx[k + 1 :]
            best = min(best, dist[i, j] + rec(rest))
        return best

    return rec(tuple(range(ps.n)))


class TestPointSet:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            PointSet(3, np.zeros((4, 2)))

    def test_finite_validation(self):
        with pytest.raises(DomainError):
            PointSet(2, [[0.0, np.inf]])

    @pytest.mark.parametrize(
        "pts",
        [[[0.0, np.nan]], [[np.inf, 0.0], [np.inf, 1.0]], [[0.0, -np.inf], [0.0, 1.0]]],
    )
    def test_non_finite_rejected(self, pts):
        with pytest.raises(DomainError, match="finite"):
            PointSet(2, pts)

    def test_empty_set_accepted(self):
        assert PointSet(2, np.zeros((0, 2))).n == 0

    def test_large_finite_spread_accepted(self):
        ps = PointSet(2, [[0.0, 0.0], [1e150, 0.0], [0.0, 1e150]])
        assert math.isfinite(nn_sum(ps).value)

    @pytest.mark.parametrize("solver", [tsp_exact, matching_exact, nn_sum])
    def test_overflowing_spread_rejected(self, solver):
        # squared differences of 1e200 overflow: tsp_exact used to return the
        # invalid tour (0, 1, 1) with value inf
        with pytest.raises(DomainError, match="overflow"):
            solver(PointSet(2, [[0, 0], [1e200, 0], [0, 1], [1e200, 1]]))


class TestTspExact:
    def test_right_triangle(self):
        ps = PointSet(2, [[0, 0], [1, 0], [0, 1]])
        res = tsp_exact(ps)
        assert res.value == pytest.approx(2 + math.sqrt(2), abs=1e-12)

    def test_unit_square(self):
        assert tsp_exact(PointSet(2, UNIT_SQUARE)).value == pytest.approx(4.0)

    def test_matches_brute_force(self):
        for seed in range(10):
            ps = random_points(7, 100 + seed)
            res = tsp_exact(ps)
            assert res.value == pytest.approx(brute_force_tour(ps), abs=1e-10)

    def test_witness_recomputes(self):
        ps = random_points(9, 3)
        res = tsp_exact(ps)
        assert tour_length(ps, res.witness) == res.value

    def test_size_caps(self):
        with pytest.raises(SizeError):
            tsp_exact(random_points(2, 0))
        with pytest.raises(SizeError):
            tsp_exact(random_points(16, 0))

    @pytest.mark.parametrize("n", range(3, 12))
    def test_matches_held_karp_loop(self, n):
        for seed in range(3):
            ps = random_points(n, 700 + 10 * n + seed)
            res = tsp_exact(ps)
            assert (res.value, res.witness) == held_karp_loop(ps)

    def test_matches_held_karp_loop_on_ties(self):
        # a lattice has many equal-length partial tours, so the tie rule shows
        for side in (2, 3):
            grid = np.indices((side, side + 1)).reshape(2, -1).T.astype(float)
            ps = PointSet(2, grid)
            res = tsp_exact(ps)
            assert (res.value, res.witness) == held_karp_loop(ps)

    def test_matches_held_karp_loop_at_cap(self):
        ps = random_points(TSP_EXACT_MAX, 799)
        res = tsp_exact(ps)
        assert (res.value, res.witness) == held_karp_loop(ps)


def random_disorder(n, seed):
    g = seed_stream(seed).standard_normal(n * (n - 1) // 2)
    return spin_glass.SKDisorder(n, g)


def random_box(side, seed):
    w = seed_stream(seed).exponential(size=(2, side - 1, side))
    return fpp.FppGrid(
        side, side, w[0], w[1].T, (0, side // 2), (side - 1, side // 2)
    )


def tsp_pair(ps):
    return scaling_coupling(ps, 0.5, 1, "tsp-exact", GAUSS)


def matching_pair(ps):
    return scaling_coupling(ps, 0.5, 1, "matching-exact", GAUSS)


#: the instance each cached table's solver takes, by size and seed
INSTANCES = {
    tsp_exact: random_points,
    tsp_pair: random_points,
    matching_exact: random_points,
    matching_pair: random_points,
    spin_glass.enumerate_energies: random_disorder,
    fpp.passage_time: random_box,
}


def leaves(tables):
    """Every array in a nest of tuples."""
    if isinstance(tables, np.ndarray):
        return [tables]
    return [leaf for table in tables for leaf in leaves(table)]


@pytest.mark.parametrize(
    "solver, layers, n, key",
    [
        (tsp_exact, _held_karp_layers, 9, 8),
        # the stacked pair reads the same tables as one instance
        (tsp_pair, _held_karp_layers, 9, 8),
        pytest.param(
            matching_exact,
            lambda n: _matching_layers(n, 1),
            10,
            10,
            id="matching_exact-_matching_layers-10-10",
        ),
        pytest.param(
            matching_pair,
            lambda n: _matching_layers(n, 2),
            10,
            10,
            id="matching_pair-_matching_layers-10-10x2",
        ),
        (spin_glass.enumerate_energies, spin_glass._spin_table, 11, 5),
        (spin_glass.enumerate_energies, spin_glass._spin_table, 11, 6),
        (spin_glass.enumerate_energies, spin_glass._upper_triangle, 11, 11),
        pytest.param(
            fpp.passage_time,
            lambda side: fpp._box_graph(side, side),
            7,
            7,
            id="passage_time-_box_graph-7-7",
        ),
    ],
)
def test_layer_tables_are_frozen_and_shared(solver, layers, n, key):
    # the box graph's CSR arrays being read-only also checks that SciPy's
    # csr_matrix and dijkstra accept them without writing to them
    solver(INSTANCES[solver](n, 1900))
    tables = layers(key)
    before = [table.copy() for table in leaves(tables)]
    solver(INSTANCES[solver](n, 1901))
    solver(INSTANCES[solver](n, 1902))
    assert layers(key) is tables
    for table, copy in zip(leaves(tables), before, strict=True):
        assert not table.flags.writeable
        np.testing.assert_array_equal(table, copy)


def exactly_symmetric(ps):
    dist = distance_matrix(ps)
    return bool((dist == dist.T).all())


class TestDistanceMatrix:
    """The matrix is exactly symmetric: p_j - p_i is -(p_i - p_j) in floating
    point, so a solver may read dist[j, .] for dist[., j]."""

    def test_random_points(self):
        for n in (3, 10, TSP_EXACT_MAX):
            assert exactly_symmetric(random_points(n, 1950 + n))

    def test_duplicate_points(self):
        pts = np.repeat(seed_stream(1951).standard_normal((5, 3)), 3, axis=0)
        ps = PointSet(3, pts)
        assert exactly_symmetric(ps)
        assert (np.diag(distance_matrix(ps)) == 0.0).all()

    def test_coordinates_near_1e150(self):
        pts = 1e150 * (1.0 + 1e-3 * seed_stream(1952).standard_normal((12, 2)))
        pts[::3] *= -1.0
        assert exactly_symmetric(PointSet(2, pts))

    @given(
        st.integers(1, 3).flatmap(
            lambda d: arrays(
                float,
                st.tuples(st.integers(0, 12), st.just(d)),
                elements=st.floats(-1e150, 1e150),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_points(self, pts):
        assert exactly_symmetric(PointSet(pts.shape[1], pts))


class TestMatching:
    def test_two_points(self):
        ps = PointSet(2, [[0, 0], [3, 4]])
        assert matching_exact(ps).value == pytest.approx(5.0)

    def test_unit_square(self):
        assert matching_exact(PointSet(2, UNIT_SQUARE)).value == pytest.approx(2.0)

    def test_matches_enumeration(self):
        for seed in range(10):
            ps = random_points(8, 200 + seed)
            res = matching_exact(ps)
            assert res.value == pytest.approx(brute_force_matching(ps), abs=1e-10)
            assert matching_length(ps, res.witness) == res.value

    def test_odd_rejected(self):
        with pytest.raises(SizeError):
            matching_exact(random_points(7, 0))

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_matches_matching_loop(self, n):
        for seed in range(4):
            ps = random_points(n, 1700 + 10 * n + seed)
            res = matching_exact(ps)
            assert (res.value, res.witness) == matching_loop(ps)

    def test_matches_matching_loop_on_ties(self):
        # a lattice has many equal-length pairings, so the tie rule shows
        for width in (4, 6):
            grid = np.indices((2, width)).reshape(2, -1).T.astype(float)
            ps = PointSet(2, grid)
            res = matching_exact(ps)
            assert (res.value, res.witness) == matching_loop(ps)

    def test_matches_matching_loop_at_cap(self):
        ps = random_points(MATCHING_MAX, 1799)
        res = matching_exact(ps)
        assert (res.value, res.witness) == matching_loop(ps)


class TestWitnessLength:
    """A length is taken only of a witness: a closed tour through every point
    once, or a perfect matching of all the points."""

    @pytest.mark.parametrize(
        "order",
        [
            [0, 1],
            [0, 1, 1, 2],
            [0, 1, 2, 3, 0],
            [0, 1, 2, 4],
            [0, 1, 2, -1],
            [0, 1, 2, 3.0],
            [False, True, 2, 3],
            [],
        ],
    )
    def test_non_tour_rejected(self, order):
        with pytest.raises(DomainError, match="tour"):
            tour_length(PointSet(2, UNIT_SQUARE), order)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, 0), (1, 1)],
            [(0, 1)],
            [(0, 1), (2, 3), (0, 1)],
            [(0, 1), (2, 2)],
            [(0, 1), (2, 4)],
            [(0, 1, 2, 3)],
            [(0, 1), (2,), (3,)],
            [(0, 1), 2, 3],
            [],
        ],
    )
    def test_non_matching_rejected(self, pairs):
        with pytest.raises(DomainError, match="matching"):
            matching_length(PointSet(2, UNIT_SQUARE), pairs)

    def test_values_on_witnesses_unchanged(self):
        ps = random_points(8, 3)
        order = [4, 0, 2, 6, 1, 3, 7, 5]
        pts = ps.points[np.asarray(order)]
        seg = pts - np.roll(pts, -1, axis=0)
        tour = float(np.sqrt(np.square(seg).sum(axis=1)).sum())
        assert tour_length(ps, order) == tour
        assert tour_length(ps, np.array(order)) == tour
        pairs = [(0, 5), (1, 2), (3, 7), (4, 6)]
        total = 0.0
        for i, j in pairs:
            total += float(np.linalg.norm(ps.points[i] - ps.points[j]))
        assert matching_length(ps, pairs) == total
        assert matching_length(ps, np.array(pairs)) == total


class TestNnSum:
    def test_pair(self):
        ps = PointSet(2, [[0, 0], [0, 2]])
        assert nn_sum(ps).value == pytest.approx(4.0)

    def test_unit_square(self):
        assert nn_sum(PointSet(2, UNIT_SQUARE)).value == pytest.approx(4.0)

    def test_matches_quadratic_oracle(self):
        ps = random_points(10, 5)
        expected = 0.0
        for i in range(10):
            expected += min(
                np.linalg.norm(ps.points[i] - ps.points[j])
                for j in range(10)
                if j != i
            )
        assert nn_sum(ps).value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 17, 100, 400])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle(self, n, seed):
        ps = random_points(n, 500 + seed)
        assert nn_sum(ps).value == dense_nn_sum(ps)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle_with_duplicates(self, seed):
        pts = seed_stream(600 + seed).random((60, 2))
        pts[20:30] = pts[:10]  # ten duplicated points
        pts[40:43] = pts[5]  # point 5 five times in all
        ps = PointSet(2, pts)
        assert nn_sum(ps).value == dense_nn_sum(ps)
        twin = PointSet(2, pts[[0, 0]])  # n = 2, both points equal
        assert nn_sum(twin).value == dense_nn_sum(twin) == 0.0


class TestStructuralBounds:
    def test_tour_dominates_nn_sum(self):
        for seed in range(20):
            ps = random_points(9, 300 + seed)
            assert tsp_exact(ps).value >= nn_sum(ps).value - 1e-9

    def test_matching_dominates_half_nn_sum(self):
        for seed in range(20):
            ps = random_points(10, 400 + seed)
            assert matching_exact(ps).value >= 0.5 * nn_sum(ps).value - 1e-9


class TestHomogeneity:
    @pytest.mark.parametrize("kind", ["tsp-exact", "matching-exact", "nn-sum"])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
    def test_scaling_identity(self, kind, lam):
        from flucert.euclidean import evaluate_functional

        for seed in range(10):
            ps = random_points(8, 600 + seed)
            base = evaluate_functional(ps, kind).value
            scaled = evaluate_functional(ps.scaled(lam), kind).value
            assert scaled == pytest.approx(lam * base, rel=1e-9)


class TestScalingCoupling:
    def test_alpha_zero(self):
        f = standard_density("exponential-rate-1")
        ps = random_points(10, 21, half_line=True)
        base, rescaled, tv = scaling_coupling(ps, 0.0, 1, "nn-sum", f)
        assert rescaled.value == base.value
        assert tv == 0.0

    def test_exact_ratio(self):
        f = standard_density("exponential-rate-1")
        ps = random_points(10, 22, half_line=True)
        base, rescaled, tv = scaling_coupling(ps, 0.5, 1, "tsp-exact", f)
        assert base.value / rescaled.value == pytest.approx(
            1 + 0.5 / math.sqrt(10), rel=1e-12
        )
        assert 0.0 < tv < 1.0

    def test_nn_sum_agrees(self):
        f = standard_density("std-gaussian")
        ps = random_points(12, 23)
        base, rescaled, _ = scaling_coupling(ps, 0.3, 1, "nn-sum", f)
        assert rescaled.value == pytest.approx(
            base.value / (1 + 0.3 / math.sqrt(12)), rel=1e-12
        )

    def test_wrong_degree_detected(self):
        f = standard_density("std-gaussian")
        ps = random_points(8, 24)
        with pytest.raises(InternalConsistencyError):
            scaling_coupling(ps, 0.5, 2, "nn-sum", f)

    def test_unknown_kind_rejected(self):
        f = standard_density("std-gaussian")
        with pytest.raises(DomainError):
            scaling_coupling(random_points(8, 25), 0.5, 1, "tsp-2opt", f)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_degree_checked_at_entry(self, r):
        f = standard_density("std-gaussian")
        with pytest.raises(DomainError, match=r"^need a real degree r in \(0, inf\)"):
            scaling_coupling(random_points(8, 26), 0.5, r, "nn-sum", f)

    @pytest.mark.parametrize("kind", ["tsp-exact", "matching-exact", "nn-sum"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_rejected_at_entry(self, n, kind):
        # the empty set used to raise ZeroDivisionError from alpha / sqrt(n),
        # and one point a range error on alpha / sqrt(n)
        f = standard_density("std-gaussian")
        ps = PointSet(2, np.zeros((n, 2)))
        with pytest.raises(SizeError, match=r"^scaling_coupling needs n >= 2"):
            scaling_coupling(ps, 0.5, 1, kind, f)

    def test_nan_rescaled_value_detected(self, monkeypatch):
        calls = []

        def nan_on_rescaled(ps, kind):
            calls.append(ps)
            return FunctionalValue(1.0 if len(calls) == 1 else math.nan, None)

        monkeypatch.setattr(euclidean, "evaluate_functional", nan_on_rescaled)
        f = standard_density("std-gaussian")
        with pytest.raises(InternalConsistencyError):
            scaling_coupling(random_points(8, 27), 0.5, 1, "nn-sum", f)

    @pytest.mark.parametrize("kernel", ["_held_karp", "_bitmask_matching"])
    @pytest.mark.parametrize("corrupt", [math.nan, 1e-7], ids=["nan", "rel1e-7"])
    def test_corrupt_rescaled_stacked_result_detected(self, monkeypatch, kernel, corrupt):
        # the homogeneity check must stay independent of the stacked pass that
        # now solves both instances
        solve = getattr(euclidean, kernel)

        def corrupt_rescaled(point_sets):
            base, rescaled = solve(point_sets)
            value = math.nan if math.isnan(corrupt) else rescaled.value * (1 + corrupt)
            return base, FunctionalValue(value, rescaled.witness)

        monkeypatch.setattr(euclidean, kernel, corrupt_rescaled)
        kind = STACKED_KINDS[kernel]
        with pytest.raises(InternalConsistencyError, match=f"^{kind} is not homogeneous"):
            scaling_coupling(random_points(8, 28), 0.5, 1, kind, GAUSS)


STACKED_KINDS = {"_held_karp": "tsp-exact", "_bitmask_matching": "matching-exact"}
LOOPS = {"tsp-exact": held_karp_loop, "matching-exact": matching_loop}
PAIR_SIZES = [("tsp-exact", n) for n in range(3, TSP_EXACT_MAX + 1)] + [
    ("matching-exact", n) for n in range(2, MATCHING_MAX + 1, 2)
]


def lattice(rows, cols):
    return PointSet(2, np.indices((rows, cols)).reshape(2, -1).T.astype(float))


class TestStackedPair:
    """``scaling_coupling`` solves a point set and its rescaled copy in one
    stacked pass; each must equal the loop oracle on that set alone."""

    def check_pair(self, kind, ps, alpha=0.5):
        base, rescaled, _ = scaling_coupling(ps, alpha, 1, kind, GAUSS)
        shrunk = ps.scaled(1.0 / (1.0 + alpha / math.sqrt(ps.n)))
        assert (base.value, base.witness) == LOOPS[kind](ps)
        assert (rescaled.value, rescaled.witness) == LOOPS[kind](shrunk)

    @pytest.mark.parametrize("kind, n", PAIR_SIZES)
    def test_pair_matches_loops(self, kind, n):
        self.check_pair(kind, random_points(n, 2000 + n))

    @pytest.mark.parametrize(
        "kind, rows, cols",
        [
            # the lattices of the tie tests of each solver
            ("tsp-exact", 2, 3),
            ("tsp-exact", 3, 4),
            ("matching-exact", 2, 4),
            ("matching-exact", 2, 6),
        ],
    )
    def test_pair_matches_loops_on_ties(self, kind, rows, cols):
        self.check_pair(kind, lattice(rows, cols))

    @pytest.mark.parametrize(
        "solve, n",
        [(_held_karp, 3), (_held_karp, 9), (_bitmask_matching, 2), (_bitmask_matching, 10)],
    )
    def test_one_instance_is_its_entry_of_a_stack(self, solve, n):
        # unrelated instances, in both orders: nothing leaks between them
        first, second = random_points(n, 2100 + n), random_points(n, 2200 + n)
        alone = [solve((first,))[0], solve((second,))[0]]
        assert solve((first, second)) == alone
        assert solve((second, first)) == alone[::-1]


class TestRheeCoupling:
    def test_beta_zero_identity(self):
        x, xp, rc = rhee_coupling_sample(12, 0.3, 0.0, seed_stream(31), probes=5000)
        np.testing.assert_array_equal(x.points, xp.points)
        assert rhee_mixture_affinity(rc.vol_D_estimate, 0.0) == 1.0
        assert rc.resample_indices == ()

    def test_affinity_formula(self):
        rho = rhee_mixture_affinity(0.25, 0.04)
        expected = 0.75 * math.sqrt(0.96) + 0.25 * math.sqrt(0.96 + 0.16)
        assert rho == pytest.approx(expected, abs=1e-15)
        assert rho == pytest.approx(0.999422, abs=1e-6)

    def test_affinity_full_cover(self):
        assert rhee_mixture_affinity(1.0, 0.3) == 1.0

    def test_affinity_small_theta_expansion(self):
        # 1 - rho ~ theta^2 (1 - v) / (8 v), the quadratic mixture law
        for v in (0.2, 0.5, 0.8):
            theta = 1e-3
            rho = rhee_mixture_affinity(v, theta)
            assert 1 - rho == pytest.approx(
                theta**2 * (1 - v) / (8 * v), rel=1e-2
            )

    def test_affinity_monotone_in_volume(self):
        grid = np.linspace(0.05, 1.0, 40)
        vals = [rhee_mixture_affinity(v, 0.1) for v in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_conservative_affinity_below_estimate(self):
        _, _, rc = rhee_coupling_sample(12, 0.3, 0.5, seed_stream(33), probes=5000)
        theta = 0.5 / math.sqrt(12)
        rho = rhee_conservative_affinity(rc, theta)
        assert rho <= rhee_mixture_affinity(rc.vol_D_estimate, theta)
        lowered = rc.vol_D_estimate - 3.0 * rc.vol_D_sigma  # three standard errors
        assert rho == rhee_mixture_affinity(lowered, theta)

    def test_shared_prefix_and_support(self):
        x, xp, rc = rhee_coupling_sample(14, 0.4, 0.9, seed_stream(35), probes=5000)
        m = 14 // 2
        np.testing.assert_array_equal(x.points[:m], xp.points[:m])
        assert np.all((xp.points >= 0) & (xp.points <= 1))
        kept = [i for i in range(m, 14) if i not in rc.resample_indices]
        np.testing.assert_array_equal(x.points[kept], xp.points[kept])
        # every resampled point lies inside the region D
        for i in rc.resample_indices:
            d = np.min(np.linalg.norm(x.points[:m] - xp.points[i], axis=1))
            assert d <= 0.4 / math.sqrt(14)

    def test_marginal_resampling_rate(self):
        # total resample count is Binomial(trials * (n - m), theta)
        n, beta, trials = 8, 0.9, 10**4
        theta = beta / math.sqrt(n)
        total = 0
        for rep in range(trials):
            _, _, rc = rhee_coupling_sample(
                n, 0.4, beta, seed_stream(77, rep), probes=200
            )
            total += len(rc.resample_indices)
        draws = trials * (n - n // 2)
        sigma = math.sqrt(draws * theta * (1 - theta))
        assert abs(total - draws * theta) <= 4 * sigma

    @pytest.mark.parametrize("n, beta", [(8, 2.0), (100, 5.0), (400, 10.0)])
    @pytest.mark.parametrize("seed", range(7))
    def test_matches_unbounded_oracle(self, n, beta, seed):
        stream = seed_stream(seed, n, 1)
        x, xp, rc = rhee_coupling_sample(n, 0.5, beta, stream, probes=3000)
        oracle = seed_stream(seed, n, 1)
        ox, oxp, oidx, ovol = rhee_sample_unbounded(n, 0.5, beta, oracle, 3000)
        np.testing.assert_array_equal(x.points, ox)
        np.testing.assert_array_equal(xp.points, oxp)
        assert rc.resample_indices == oidx
        assert rc.vol_D_estimate == ovol
        assert stream.random() == oracle.random()  # same words consumed

    @pytest.mark.parametrize("probes", [0, -5, 2.5, 1e4, True, "100"])
    def test_probes_must_be_a_positive_integer(self, probes):
        with pytest.raises(DomainError):
            rhee_coupling_sample(12, 0.3, 0.5, seed_stream(1), probes=probes)

    def test_numpy_integer_probes_accepted(self):
        x, xp, rc = rhee_coupling_sample(
            12, 0.3, 0.5, seed_stream(1), probes=np.int64(500)
        )
        ox, oxp, orc = rhee_coupling_sample(12, 0.3, 0.5, seed_stream(1), probes=500)
        np.testing.assert_array_equal(x.points, ox.points)
        np.testing.assert_array_equal(xp.points, oxp.points)
        assert rc == orc

    def test_rejection_budget_exhausted(self, monkeypatch):
        # a region of volume about 2e-4 and a budget of one candidate batch
        monkeypatch.setattr(euclidean, "MAX_REJECTION", 1)
        with pytest.raises(DegenerateRegionError, match="rejection sampling"):
            rhee_coupling_sample(12, 0.01, 3.0, seed_stream(1))
