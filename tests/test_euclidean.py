"""Tests for the Euclidean functionals and their couplings."""

import math
import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flucert import euclidean, fpp, spin_glass
from flucert.densities import sample_iid, standard_density
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
    _distances,
    _held_karp_layers,
    _matching_layers,
    _min_plus,
    _RegionGrid,
)
from flucert.rng import _TOP as TOP, seed_stream, uniform_open
from oracles import (
    dense_nn_sum,
    held_karp_loop,
    kdtree_region_hits,
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
        with pytest.raises(DomainError, match="^points"):
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

    @pytest.mark.parametrize("n", range(3, 12))
    def test_matches_held_karp_loop(self, n):
        for seed in range(3):
            ps = random_points(n, 700 + 10 * n + seed)
            res = tsp_exact(ps)
            assert (res.value, res.witness) == held_karp_loop(ps)

    def test_matches_held_karp_loop_on_ties(self):
        # a lattice has many equal-length partial tours, so the tie rule shows;
        # 3 x 5 is at the cap
        for rows, cols in ((2, 3), (3, 4), (3, 5)):
            ps = lattice(rows, cols)
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


#: the instance each cached table's solver takes, by size and seed
INSTANCES = {
    tsp_exact: random_points,
    matching_exact: random_points,
    spin_glass.enumerate_energies: random_disorder,
    fpp.passage_time: random_box,
}


def leaves(tables):
    """Every array in a nest of tuples, less the ints (a layer's start)."""
    if isinstance(tables, np.ndarray):
        return [tables]
    if isinstance(tables, int):
        return []
    return [leaf for table in tables for leaf in leaves(table)]


@pytest.mark.parametrize(
    "solver, layers, n, key",
    [
        (tsp_exact, _held_karp_layers, 9, 8),
        (matching_exact, _matching_layers, 10, 10),
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


UNITS = {"KiB": 2**10, "MiB": 2**20}


def assert_stated(layers, phrase, nbytes):
    """``phrase``, such as "0.295 MiB at n = 16", is in the docstring of
    ``layers``, and its figure is ``nbytes`` rounded to three decimals."""
    assert phrase in " ".join(layers.__doc__.split())
    figure, unit = phrase.split()[:2]
    assert round(nbytes / UNITS[unit], 3) == float(figure)


def kept_bytes(layers):
    """The bytes of the candidate tables that ``_min_plus`` keeps for the
    read-back, on a leg table as long as the layers index."""
    leg = np.ones(1 + max(int(edge.max()) for _, _, edge in layers))
    return sum(cand.nbytes for cand in _min_plus(leg, layers))


def test_held_karp_tables_within_stated_memory():
    # the cached tables at the largest cached size, m = TSP_EXACT_MAX - 1, and
    # the candidates a call keeps there and at the benchmark's n = 10
    layers = _held_karp_layers(TSP_EXACT_MAX - 1)
    assert len(layers) == TSP_EXACT_MAX  # one per popcount, then the closing
    tables = sum(table.nbytes for table in leaves(layers))
    assert_stated(_held_karp_layers, "11.375 MiB at m = TSP_EXACT_MAX - 1", tables)
    assert_stated(_held_karp_layers, "5.688 MiB at m = 14", kept_bytes(layers))
    small = kept_bytes(_held_karp_layers(9))
    assert_stated(_held_karp_layers, "72.141 KiB at m = 9", small)


def test_matching_tables_within_stated_memory():
    # the same figures for the matching DP at its cap and the benchmark's n = 12
    layers = _matching_layers(MATCHING_MAX)
    assert len(layers) == MATCHING_MAX // 2  # one per pair added
    tables = sum(table.nbytes for table in leaves(layers))
    assert_stated(_matching_layers, "0.295 MiB at n = MATCHING_MAX", tables)
    assert_stated(_matching_layers, "0.148 MiB at n = 16", kept_bytes(layers))
    small = kept_bytes(_matching_layers(12))
    assert_stated(_matching_layers, "13.172 KiB at n = 12", small)


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

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_matches_matching_loop(self, n):
        for seed in range(4):
            ps = random_points(n, 1700 + 10 * n + seed)
            res = matching_exact(ps)
            assert (res.value, res.witness) == matching_loop(ps)

    def test_matches_matching_loop_on_ties(self):
        # a lattice has many equal-length pairings, so the tie rule shows;
        # 2 x 8 and 4 x 4 are at the cap
        for rows, cols in ((2, 4), (2, 6), (2, 8), (4, 4)):
            ps = lattice(rows, cols)
            res = matching_exact(ps)
            assert (res.value, res.witness) == matching_loop(ps)

    def test_matches_matching_loop_at_cap(self):
        ps = random_points(MATCHING_MAX, 1799)
        res = matching_exact(ps)
        assert (res.value, res.witness) == matching_loop(ps)

    @staticmethod
    def assert_value_sums_minimised_distances(ps):
        res = matching_exact(ps)
        i, j = np.array(res.witness).T
        assert res.value == float(_distances(ps.points)[i, j].sum())

    def test_value_sums_minimised_distances(self):
        # a length by np.linalg.norm, a BLAS dot, can differ in its last bit
        # from the distance the DP minimised; with OpenBLAS it does here
        points = sample_iid(GAUSS, 16, seed_stream(4, 0, 8)).reshape(8, 2)
        self.assert_value_sums_minimised_distances(PointSet(2, points))

    @pytest.mark.parametrize("n", range(4, MATCHING_MAX + 1, 2))
    def test_value_sums_minimised_distances_sweep(self, n):
        for seed in range(1, 26):
            self.assert_value_sums_minimised_distances(random_points(n, seed))


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
        i, j = np.array(pairs).T
        seg = ps.points[i] - ps.points[j]
        total = float(np.sqrt(np.square(seg).sum(axis=1)).sum())
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


SOLVERS = {"tsp-exact": tsp_exact, "matching-exact": matching_exact, "nn-sum": nn_sum}


class TestHomogeneity:
    @pytest.mark.parametrize("kind", ["tsp-exact", "matching-exact", "nn-sum"])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
    def test_scaling_identity(self, kind, lam):
        solve = SOLVERS[kind]
        for seed in range(10):
            ps = random_points(8, 600 + seed)
            base = solve(ps).value
            scaled = solve(ps.scaled(lam)).value
            assert scaled == pytest.approx(lam * base, rel=1e-9)


class TestScalingCoupling:
    def test_alpha_zero(self):
        f = standard_density("exponential-rate-1")
        ps = random_points(10, 21, half_line=True)
        base, rescaled, tv = scaling_coupling(ps, 0.0, 1, "tsp-exact", f)
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

    def test_wrong_degree_detected(self):
        f = standard_density("std-gaussian")
        ps = random_points(8, 24)
        with pytest.raises(InternalConsistencyError):
            scaling_coupling(ps, 0.5, 2, "tsp-exact", f)

    def test_unknown_kind_rejected(self):
        f = standard_density("std-gaussian")
        with pytest.raises(DomainError):
            scaling_coupling(random_points(8, 25), 0.5, 1, "tsp-2opt", f)

    @pytest.mark.parametrize("kind", [None, "TSP-EXACT", "nn_sum", "nn-sum"])
    @pytest.mark.parametrize("n", [1, 8, 16])
    def test_kind_checked_at_entry(self, monkeypatch, kind, n):
        # before the points are rescaled or solved, whatever their size
        monkeypatch.setattr(PointSet, "scaled", unreachable)
        with pytest.raises(DomainError, match=r"^unknown functional kind"):
            scaling_coupling(random_points(n, 25), 0.5, 1, kind, GAUSS)

    @pytest.mark.parametrize(
        "density",
        ["std-gaussian", None, pytest.param({"name": "std-gaussian"}, id="dict"), 2.0],
    )
    @pytest.mark.parametrize("kind", ["tsp-exact", "matching-exact"])
    def test_density_checked_at_entry(self, monkeypatch, density, kind):
        # a string or None used to fail with AttributeError, and a dict with
        # TypeError, inside scaled_affinity after both instances were solved
        monkeypatch.setattr(PointSet, "scaled", unreachable)
        with pytest.raises(DomainError, match=r"^density must be a Density1D"):
            scaling_coupling(random_points(8, 25), 0.5, 1, kind, density)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_degree_checked_at_entry(self, r):
        f = standard_density("std-gaussian")
        with pytest.raises(DomainError, match=r"^need a real degree r in \(0, inf\)"):
            scaling_coupling(random_points(8, 26), 0.5, r, "tsp-exact", f)

    @pytest.mark.parametrize("kind", ["tsp-exact", "matching-exact"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_rejected_at_entry(self, n, kind):
        # the empty set used to raise ZeroDivisionError from alpha / sqrt(n),
        # and one point a range error on alpha / sqrt(n)
        f = standard_density("std-gaussian")
        ps = PointSet(2, np.zeros((n, 2)))
        with pytest.raises(SizeError, match=r"^scaling_coupling needs n >= 2"):
            scaling_coupling(ps, 0.5, 1, kind, f)

    @pytest.mark.parametrize(
        "kind", ["tsp-exact", "matching-exact"], ids=["tsp_exact", "matching_exact"]
    )
    @pytest.mark.parametrize("corrupt", [math.nan, 1e-7], ids=["nan", "rel1e-7"])
    def test_corrupt_rescaled_length_detected(self, monkeypatch, kind, corrupt):
        # the homogeneity check must stay independent of the witness length
        # that gives the rescaled value: corrupt that length alone, the one
        # ``_edges_length`` takes on the shrunk coordinates
        ps = random_points(8, 28)
        measure = euclidean._edges_length
        shrunk = []

        def corrupt_length(points, tails, heads):
            value = measure(points, tails, heads)
            if points is ps.points:  # the solver's length of its own witness
                return value
            shrunk.append(points)
            return math.nan if math.isnan(corrupt) else value * (1 + corrupt)

        monkeypatch.setattr(euclidean, "_edges_length", corrupt_length)
        with pytest.raises(InternalConsistencyError, match=f"^{kind} is not homogeneous"):
            scaling_coupling(ps, 0.5, 1, kind, GAUSS)
        assert len(shrunk) == 1

    @pytest.mark.parametrize("kind", ["tsp-exact", "matching-exact"])
    def test_points_unchanged(self, kind):
        # the shrunk coordinates are a new array, not the caller's scaled in
        # place
        ps = random_points(8, 30)
        before = ps.points.copy()
        scaling_coupling(ps, 0.5, 1, kind, GAUSS)
        assert ps.points.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind", ["tsp-exact", "matching-exact"])
    def test_solvers_called_through_module_names(self, monkeypatch, kind):
        # a tracer counts calls by rebinding these names: the exact solver
        # must solve the base points once
        calls = {name: [] for name in ("tsp_exact", "matching_exact", "nn_sum")}
        for name, log in calls.items():
            solve = getattr(euclidean, name)

            def counted(*args, solve=solve, log=log):
                log.append(args)
                return solve(*args)

            monkeypatch.setattr(euclidean, name, counted)
        ps = random_points(8, 29)
        scaling_coupling(ps, 0.5, 1, kind, GAUSS)
        solver = kind.replace("-", "_")
        assert {name: len(log) for name, log in calls.items()} == {
            name: int(name == solver) for name in calls
        }
        [(base,)] = calls[solver]
        assert base is ps


def unreachable(*args):
    raise AssertionError("reached past the entry checks")


LOOPS = {"tsp-exact": held_karp_loop, "matching-exact": matching_loop}
LENGTHS = {"tsp-exact": tour_length, "matching-exact": matching_length}
PAIR_SIZES = [("tsp-exact", n) for n in range(3, TSP_EXACT_MAX + 1)] + [
    ("matching-exact", n) for n in range(2, MATCHING_MAX + 1, 2)
]

#: the sizes of each solver's loop-oracle test, several seeds apiece
GAP_MAX_N = {"tsp-exact": 11, "matching-exact": 12}
GAP_SIZES = [(kind, n) for kind, n in PAIR_SIZES if n <= GAP_MAX_N[kind]]


def lattice(rows, cols):
    return PointSet(2, np.indices((rows, cols)).reshape(2, -1).T.astype(float))


def shrink(ps, alpha):
    return ps.scaled(1.0 / (1.0 + alpha / math.sqrt(ps.n)))


class TestStackedPair:
    """``scaling_coupling`` solves a point set once and takes the rescaled
    value as the length of the same witness on the shrunk copy; the loop
    oracles solve each set alone."""

    def check_pair(self, kind, ps, alpha=0.5):
        base, rescaled, _ = scaling_coupling(ps, alpha, 1, kind, GAUSS)
        shrunk = shrink(ps, alpha)
        assert (base.value, base.witness) == LOOPS[kind](ps)
        assert rescaled.witness == base.witness
        assert rescaled.value == LENGTHS[kind](shrunk, base.witness)
        # the oracle's own witness on the shrunk copy may differ in a tie
        # broken by an ulp, so only its value is compared
        assert rescaled.value == pytest.approx(LOOPS[kind](shrunk)[0], rel=1e-12)

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

    @pytest.mark.parametrize("kind, n", GAP_SIZES)
    def test_certified_gap_below_true_gap(self, kind, n):
        # Y' = L'(witness of X) >= Y, so the certified gap X - Y' is at most
        # the true gap X - Y, up to rounding
        for seed in range(4):
            ps = random_points(n, 2600 + 10 * n + seed)
            base, rescaled, _ = scaling_coupling(ps, 0.5, 1, kind, GAUSS)
            x, y = base.value, LOOPS[kind](shrink(ps, 0.5))[0]
            assert x - rescaled.value <= x - y + 1e-12 * x


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

    @staticmethod
    def assert_matches_unbounded_oracle(n, beta, seed, probes):
        stream = seed_stream(seed, n, 1)
        x, xp, rc = rhee_coupling_sample(n, 0.5, beta, stream, probes=probes)
        oracle = seed_stream(seed, n, 1)
        ox, oxp, oidx, ovol = rhee_sample_unbounded(n, 0.5, beta, oracle, probes)
        np.testing.assert_array_equal(x.points, ox)
        np.testing.assert_array_equal(xp.points, oxp)
        assert rc.resample_indices == oidx
        assert rc.vol_D_estimate == ovol
        assert stream.random() == oracle.random()  # same words consumed

    @pytest.mark.parametrize("n, beta", [(8, 2.0), (100, 5.0), (400, 10.0)])
    @pytest.mark.parametrize("seed", range(7))
    def test_matches_unbounded_oracle(self, n, beta, seed):
        self.assert_matches_unbounded_oracle(n, beta, seed, 3000)

    @pytest.mark.parametrize("n", [100, 200, 400])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_unbounded_oracle_at_benchmark_size(self, n, seed):
        # the scaling-sweep draw: alpha = 0.5, beta = 1 and 20,000 probes
        self.assert_matches_unbounded_oracle(n, 1.0, seed, 20000)

    @pytest.mark.parametrize("alpha", [1e-7, 5e-324])
    def test_tiny_region_rejected_quickly(self, alpha):
        # a cell list of side 1/radius would need about 8e14 cells at 1e-7;
        # at 5e-324 the radius underflows to 0
        start = time.perf_counter()
        with pytest.raises(DegenerateRegionError, match="no Monte-Carlo probe"):
            rhee_coupling_sample(8, alpha, 1.0, seed_stream(1), probes=1000)
        assert time.perf_counter() - start < 1.0

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
            rhee_coupling_sample(12, 0.01, 3.0, seed_stream(1), probes=100_000)



def check_region(centers, points, radius):
    """The cell list against bounded k-d tree queries, bit for bit.

    The booleans must agree, and for every point in the region the smallest
    distance in its 3 x 3 block must be the tree's nearest distance in every
    bit: booleans alone would hide a fused multiply-add or a swapped operand.
    Returns the grid, the booleans and the smallest distance in each block.
    """
    centers = np.asarray(centers, dtype=float)
    points = np.asarray(points, dtype=float)
    grid = _RegionGrid(centers, radius)
    hits = grid.contains(points)
    want, nearest = kdtree_region_hits(centers, points, radius)
    np.testing.assert_array_equal(hits, want)
    d, owner = grid.distances(points)
    best = np.full(len(points), np.inf)
    np.minimum.at(best, owner, d)
    assert best[hits].tobytes() == nearest[hits].tobytes()
    return grid, hits, best


def near(centers, radius, seed, count=4000):
    """Points scattered within 1.5 radii of the centers, kept in (0, 1)."""
    stream = seed_stream(seed, 0, 9)
    pick = centers[stream.integers(len(centers), size=count)]
    offset = (2.0 * uniform_open(stream, (count, 2)) - 1.0) * 1.5 * radius
    return np.clip(pick + offset, 2.0**-54, TOP)


def axis_neighbors(centers, radius, ulps=3):
    """Points about one radius from each center along each axis, +- a few ulps."""
    steps = [radius]
    for _ in range(ulps):
        steps = [np.nextafter(steps[0], 0.0), *steps, np.nextafter(steps[-1], 1.0)]
    out = []
    for s in steps:
        for axis in (0, 1):
            for sign in (-1.0, 1.0):
                p = centers.copy()
                p[:, axis] += sign * s
                out.append(p)
    return np.clip(np.concatenate(out), 2.0**-54, TOP)


class TestRegionGrid:
    @pytest.mark.parametrize("m", [4, 50, 100, 200])
    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 0.5, 0.99])
    def test_matches_bounded_tree_on_uniform_centers(self, m, alpha):
        radius = alpha / math.sqrt(2 * m)  # n = 2m shared and resampled points
        stream = seed_stream(m, int(alpha * 1000), 3)
        centers = uniform_open(stream, (m, 2))
        points = np.concatenate(
            [uniform_open(stream, (5000, 2)), near(centers, radius, m)]
        )
        _, hits, _ = check_region(centers, points, radius)
        assert hits.any()

    @pytest.mark.parametrize("alpha", [1e-3, 0.3, 0.999])
    @pytest.mark.parametrize("seed", range(3))
    def test_eight_points(self, alpha, seed):
        # n = 8, the smallest sampler input: m = 4 centers, at most 8 cells a side
        radius = alpha * 8 ** (-1.0 / 2.0)
        stream = seed_stream(seed, 8, 3)
        centers = uniform_open(stream, (4, 2))
        points = np.concatenate(
            [uniform_open(stream, (4000, 2)), near(centers, radius, seed)]
        )
        grid, hits, _ = check_region(centers, points, radius)
        assert grid._g <= 8
        assert hits.any()

    @pytest.mark.parametrize("cells", [8, 10, 16, 27])
    def test_points_on_cell_edges(self, cells):
        # points at k/g, most of them with (k/g) * g a whole number, so that
        # floor(p * g) lands exactly on a cell edge
        radius = (1.0 / (cells + 0.5)) / (1.0 + 1e-9)  # 1/cutoff = cells + 0.5
        edges = np.arange(cells) / cells
        assert np.sum(edges * cells == np.arange(cells)) >= cells // 2
        lattice = np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2)
        lattice = np.maximum(lattice, 2.0**-54)  # uniform_open never draws 0
        # centers on the lattice diagonal too, probed one radius along each axis
        centers = np.concatenate(
            [uniform_open(seed_stream(cells, 0, 4), (60, 2)), lattice[:: cells + 1]]
        )
        points = np.concatenate(
            [lattice, near(centers, radius, cells), axis_neighbors(centers, radius)]
        )
        grid, hits, _ = check_region(centers, points, radius)
        assert grid._g == cells  # under the cap of int(4 sqrt(m)) >= 32
        assert hits.any()

    def test_probe_exactly_one_radius_away_along_an_axis(self):
        # dyadic coordinates: center +- 2^-4 is exact, so dx = radius exactly;
        # the centers are 4 radii apart, so the nearest is the one probed
        radius = 2.0**-4
        lattice = 0.125 + 0.25 * np.arange(4)
        centers = np.stack(np.meshgrid(lattice, lattice), axis=-1).reshape(-1, 2)
        grid = _RegionGrid(centers, radius)
        assert grid._g == 15  # 1/cutoff = 15.99999998
        points = np.concatenate(
            [centers + [radius, 0.0], centers - [radius, 0.0],
             centers + [0.0, radius], centers - [0.0, radius]]
        )
        _, hits, best = check_region(centers, points, radius)
        assert hits.all()
        assert np.all(best == radius)
        # one ulp farther out is outside the region
        beyond = centers + [radius, 0.0]
        beyond[:, 0] = np.nextafter(beyond[:, 0], 1.0)
        _, hits, _ = check_region(centers, beyond, radius)
        assert not hits.any()

    @pytest.mark.parametrize("whole", [7, 16, 33])
    @pytest.mark.parametrize("ulps", range(-4, 5))
    @pytest.mark.parametrize("of", ["cutoff", "radius"])
    def test_reciprocal_near_a_whole_number(self, whole, ulps, of):
        # 1/cutoff within a few ulps of a whole number: the rounding of 1/cutoff
        # decides between whole and whole - 1 cells a side.  1/radius near a
        # whole number: cells of side 1/whole would be narrower than the radius
        # by an ulp, and only the 1e-9 margin keeps them wider
        margin = 1.0 + 1e-9 if of == "cutoff" else 1.0
        radius = (1.0 / whole) / margin
        step = 1.0 if ulps > 0 else 0.0
        for _ in range(abs(ulps)):
            radius = float(np.nextafter(radius, step))
        inverse = 1.0 / (radius * margin)
        assert abs(inverse - whole) <= 8 * np.spacing(float(whole))
        seed = 2 * (ulps + 4) + (of == "radius")
        centers = uniform_open(seed_stream(whole, seed, 5), (80, 2))  # cap 35
        grid = _RegionGrid(centers, radius)
        assert grid._g in (whole - 1, whole)
        # centers just either side of each cell edge, probed about one radius
        # away along each axis; the two sides of an edge have their own
        # heights, so no center hides a miss of its neighbor across the edge
        edges = np.arange(1, grid._g) / grid._g
        ys = uniform_open(seed_stream(whole, seed, 6), (2, len(edges)))
        edge_centers = np.concatenate(
            [
                np.stack([np.nextafter(edges, 1.0), ys[0]], axis=1),
                np.stack([np.nextafter(edges, 0.0), ys[1]], axis=1),
            ]
        )
        edge_centers = np.concatenate([centers, edge_centers, edge_centers[:, ::-1]])
        points = np.concatenate(
            [axis_neighbors(edge_centers, radius), near(centers, radius, whole)]
        )
        _, hits, _ = check_region(edge_centers, points, radius)
        assert hits.any()

    def test_centers_at_the_square_edges(self):
        low, high = 2.0**-54, TOP
        coords = [low, 1e-17, 0.5, np.nextafter(high, 0.0), high]
        centers = np.array([(a, b) for a in coords for b in coords])
        for radius in (1e-3, 0.05, 0.3):
            corners = np.array([(a, b) for a in (low, high) for b in (low, high)])
            points = np.concatenate(
                [
                    centers,
                    corners,
                    near(centers, radius, 11),
                    axis_neighbors(centers, radius),
                    uniform_open(seed_stream(12), (2000, 2)),
                ]
            )
            _, hits, _ = check_region(centers, points, radius)
            assert hits[: len(centers)].all()  # every center is in the region

    def test_coincident_centers(self):
        stream = seed_stream(13)
        one, two = uniform_open(stream, (2, 2))
        centers = np.concatenate(
            [np.repeat([one], 20, axis=0), np.repeat([two], 10, axis=0),
             uniform_open(stream, (10, 2))]
        )
        radius = 0.5 / math.sqrt(80)
        points = np.concatenate(
            [centers, near(centers, radius, 13), uniform_open(stream, (3000, 2))]
        )
        grid, hits, _ = check_region(centers, points, radius)
        assert hits[: len(centers)].all()
        # each of the 20 copies is a separate candidate of the points next to it
        d, owner = grid.distances(points[:1])
        assert np.sum(d == 0.0) == 20

    @pytest.mark.parametrize("radius", [0.0, 5e-324, 1e-300, 1e-7 / math.sqrt(8), 1e-3])
    def test_grid_side_capped_whatever_the_radius(self, radius):
        # at most 4 sqrt(m) cells a side, so the tables are O(m)
        centers = uniform_open(seed_stream(14), (4, 2))
        grid = _RegionGrid(centers, radius)
        assert grid._g == 8
        assert grid._count.size + grid._first.size <= 2 * (8 + 2) ** 2
        assert not grid.contains(uniform_open(seed_stream(15), (1000, 2))).any()
