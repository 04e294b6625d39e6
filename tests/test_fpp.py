"""Tests for first-passage percolation: passage times, schedules, gap bounds."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flucert.coupling import PerturbationPlan, product_tv_bound
from flucert.densities import sample_iid, scaled_affinity, standard_density
from flucert.errors import ConfigError, DomainError, ShapeError
from flucert.fpp import (
    EpsSchedule,
    FppGrid,
    graded_schedule,
    passage_time,
    perturb,
    schedule_tv_bound,
    ttq_lower_bound,
)
from flucert.rng import seed_stream
from oracles import (
    coo_passage_time,
    heap_dijkstra,
    schedule_rhos_by_dict,
    ttq_by_vertex_pairs,
)

EXPO = standard_density("exponential-rate-1")


def random_grid(width, height, seed, endpoints=None):
    stream = seed_stream(seed, width, height)
    n_h = (width - 1) * height
    w = sample_iid(EXPO, n_h + width * (height - 1), stream)
    if endpoints is None:
        cells = stream.choice(width * height, size=2, replace=False)
        endpoints = [divmod(int(c), height) for c in cells]
    source, target = endpoints
    return FppGrid(
        width,
        height,
        w[:n_h].reshape(width - 1, height),
        w[n_h:].reshape(width, height - 1),
        source,
        target,
    )


def unit_grid(width, height, source, target):
    return FppGrid(
        width,
        height,
        np.ones((width - 1, height)),
        np.ones((width, height - 1)),
        source,
        target,
    )


def band_schedule(grid, eps, half_width):
    """Strength eps on the edges within half_width rows of the source row."""
    rows = np.abs(np.arange(grid.height) - grid.source[1]) <= half_width
    inside = np.broadcast_to(rows, (grid.width, grid.height))
    return EpsSchedule(
        np.where(inside[:-1, :] & inside[1:, :], eps, 0.0),
        np.where(inside[:, :-1] & inside[:, 1:], eps, 0.0),
    )


def networkx_passage_time(grid):
    g = nx.Graph()
    for x in range(grid.width - 1):
        for y in range(grid.height):
            g.add_edge((x, y), (x + 1, y), weight=grid.h_weights[x, y])
    for x in range(grid.width):
        for y in range(grid.height - 1):
            g.add_edge((x, y), (x, y + 1), weight=grid.v_weights[x, y])
    return nx.shortest_path_length(g, grid.source, grid.target, weight="weight")


def decode_edges(grid, edges):
    """The vertex path that flat edge indices trace from the source, and the
    weight of each edge, read from the 2-D weight arrays."""
    n_h = (grid.width - 1) * grid.height
    path, weights = [grid.source], []
    for e in edges.tolist():
        if e < n_h:
            x, y = divmod(e, grid.height)
            ends = ((x, y), (x + 1, y))
            weights.append(grid.h_weights[x, y])
        else:
            x, y = divmod(e - n_h, grid.height - 1)
            ends = ((x, y), (x, y + 1))
            weights.append(grid.v_weights[x, y])
        assert path[-1] in ends, (path[-1], ends)
        path.append(ends[1] if path[-1] == ends[0] else ends[0])
    return tuple(path), weights


def assert_valid_witness(geo, grid):
    assert geo.edge_list.dtype.kind == "i"
    path, weights = decode_edges(grid, geo.edge_list)
    assert path[-1] == grid.target
    assert len(set(path)) == len(path)
    np.testing.assert_array_equal(geo.edge_weights, weights)
    assert geo.edge_weights.sum() == pytest.approx(geo.passage_time, rel=1e-12)


def assert_same_as_coo(grid):
    """Passage time and geodesic edges ``==`` to the undirected COO form."""
    geo = passage_time(grid)
    t, edges = coo_passage_time(grid)
    assert geo.passage_time == t
    np.testing.assert_array_equal(geo.edge_list, edges)


SIZES = [(2, 2), (2, 7), (5, 3), (9, 9), (16, 11), (24, 24)]


class TestPassageTime:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_heap_oracle(self, seed):
        width, height = SIZES[seed % len(SIZES)]
        grid = random_grid(width, height, seed)
        geo = passage_time(grid)
        t, path = heap_dijkstra(grid)
        assert geo.passage_time == pytest.approx(t, rel=1e-12)
        assert decode_edges(grid, geo.edge_list)[0] == path

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_networkx(self, seed):
        width, height = SIZES[seed % len(SIZES)]
        grid = random_grid(width, height, 500 + seed)
        geo = passage_time(grid)
        assert geo.passage_time == pytest.approx(
            networkx_passage_time(grid), rel=1e-12
        )
        assert_valid_witness(geo, grid)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_coo_oracle(self, seed):
        width, height = SIZES[seed % len(SIZES)]
        assert_same_as_coo(random_grid(width, height, 1100 + seed))

    @pytest.mark.parametrize("width, height", SIZES + [(6, 5), (40, 40)])
    def test_matches_coo_oracle_on_ties(self, width, height):
        # unit weights tie many paths, so each geodesic rests on the tie rule
        stream = seed_stream(1200, width, height)
        for _ in range(12):
            cells = stream.choice(width * height, size=2, replace=False)
            source, target = (divmod(int(c), height) for c in cells)
            assert_same_as_coo(unit_grid(width, height, source, target))

    @pytest.mark.parametrize("first", range(0, 120, 30))
    def test_matches_coo_oracle_on_the_benchmark_box(self, first):
        # 40 x 40, exponential weights, the graded schedule at alpha = 0.9
        side, n_h = 40, 39 * 40
        sched = graded_schedule(unit_grid(side, side, (0, 20), (39, 20)), 0.9, side)
        for seed in range(first, first + 30):
            w = sample_iid(EXPO, 2 * n_h, seed_stream(seed, 0, 1))
            grid = FppGrid(
                side,
                side,
                w[:n_h].reshape(side - 1, side),
                w[n_h:].reshape(side, side - 1),
                (0, 20),
                (39, 20),
            )
            assert_same_as_coo(grid)
            assert_same_as_coo(perturb(grid, sched))

    def test_ties_give_a_geodesic(self):
        grid = unit_grid(6, 5, (0, 0), (5, 4))
        geo = passage_time(grid)
        assert geo.passage_time == 9.0  # the L1 distance from (0, 0) to (5, 4)
        assert len(geo.edge_list) == 9
        assert_valid_witness(geo, grid)

    def test_unreachable_target_raises(self):
        # finite weights whose sums overflow would leave the target at distance
        # inf; the grid rejects them at entry
        h, v = np.full((2, 3), 1e308), np.full((3, 2), 1e308)
        with pytest.raises(DomainError, match="^h_weights must be finite reals in"):
            FppGrid(3, 3, h, v, (0, 0), (2, 2))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["h", "v"])
    def test_weights_must_be_finite_and_positive(self, bad, field):
        h, v = np.ones((2, 3)), np.ones((3, 2))
        (h if field == "h" else v)[1, 1] = bad
        with pytest.raises(DomainError):
            FppGrid(3, 3, h, v, (0, 0), (2, 2))

    @pytest.mark.parametrize("source", [(0.5, 1), (0, 1.0), (math.nan, 1)])
    def test_endpoints_must_be_integers(self, source):
        with pytest.raises(DomainError):
            unit_grid(3, 3, source, (2, 2))

    @pytest.mark.parametrize("endpoint", [5, (0, 0, 0), (1,), None])
    @pytest.mark.parametrize("name", ["source", "target"])
    def test_endpoints_must_be_pairs(self, name, endpoint):
        # 5 used to raise TypeError, and (0, 0, 0) ValueError, from unpacking
        ends = {"source": (0, 0), "target": (2, 2), name: endpoint}
        with pytest.raises(DomainError, match=rf"^{name} must be an \(x, y\) pair"):
            unit_grid(3, 3, ends["source"], ends["target"])

    def test_numpy_integer_endpoints_accepted(self):
        grid = unit_grid(3, 3, (np.int64(0), np.int64(1)), (2, 2))
        assert grid.source == (0, 1) and type(grid.source[0]) is int

    def test_geodesic_records_its_box(self):
        assert passage_time(unit_grid(5, 3, (0, 1), (4, 1))).box == (5, 3)

    def test_grid_validation(self):
        with pytest.raises(ShapeError):
            FppGrid(3, 3, np.ones((3, 3)), np.ones((3, 2)), (0, 0), (2, 2))
        with pytest.raises(ConfigError):
            unit_grid(3, 3, (1, 1), (1, 1))
        with pytest.raises(DomainError):
            FppGrid(2, 2, np.zeros((1, 2)), np.ones((2, 1)), (0, 0), (1, 1))


class TestSchedules:
    def test_graded_source_strength_must_stay_below_half(self):
        grid = unit_grid(8, 8, (0, 4), (7, 4))
        # alpha / sqrt(log 50) = 0.506
        with pytest.raises(DomainError):
            graded_schedule(grid, 1.0, 50)

    @pytest.mark.parametrize("alpha, n", [(0.9, 40), (1.0, 100), (0.5, 12)])
    def test_benchmark_schedules_accepted(self, alpha, n):
        grid = unit_grid(8, 8, (0, 4), (7, 4))
        sched = graded_schedule(grid, alpha, n)
        top = max(sched.h_values.max(), sched.v_values.max())
        # the largest strength sits on the edges at the source, k = 0
        assert top == sched.h_values[0, 4] == alpha / math.sqrt(math.log(n))
        assert top < 0.5

    def test_graded_values_decrease_with_distance(self):
        grid = unit_grid(6, 6, (0, 0), (5, 5))
        sched = graded_schedule(grid, 1.0, 100)
        assert sched.h_values[0, 0] > sched.h_values[1, 0] > sched.h_values[2, 0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    @pytest.mark.parametrize("field", ["h", "v"])
    def test_invalid_strengths_rejected(self, bad, field):
        h, v = np.full((3, 4), 0.1), np.full((4, 3), 0.1)
        (h if field == "h" else v)[1, 2] = bad
        with pytest.raises(DomainError):
            EpsSchedule(h, v)

    @pytest.mark.parametrize(
        "h_shape, v_shape",
        [((12,), (12,)), ((3, 4), (4, 1)), ((3, 4), (2, 2)), ((3, 4), (3, 4))],
    )
    def test_misshapen_schedule_rejected(self, h_shape, v_shape):
        with pytest.raises(ShapeError):
            EpsSchedule(np.full(h_shape, 0.1), np.full(v_shape, 0.1))

    def test_schedule_of_another_box_rejected(self):
        grid = unit_grid(4, 4, (0, 0), (3, 3))
        with pytest.raises(ShapeError):
            perturb(grid, graded_schedule(unit_grid(5, 4, (0, 0), (4, 3)), 1.0, 100))
        with pytest.raises(ShapeError):
            perturb(grid, graded_schedule(unit_grid(4, 5, (0, 0), (3, 4)), 1.0, 100))

    def test_schedule_tv_bound_in_range(self):
        grid = unit_grid(6, 6, (0, 3), (5, 3))
        plan, tv = schedule_tv_bound(graded_schedule(grid, 1.0, 100), EXPO)
        assert 0.0 < tv < 1.0
        assert plan.eps_values.size == 2 * 5 * 6

    @pytest.mark.parametrize("side", [4, 7, 12, 20, 40])
    @pytest.mark.parametrize("kind", ["graded", "corridor"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_schedule_tv_bound_matches_dict_oracle(self, side, kind, alpha):
        grid = unit_grid(side, side, (0, side // 2), (side - 1, side // 2))
        if kind == "graded":
            sched = graded_schedule(grid, alpha, 100)  # cut off at k > 50
        else:
            # one strength inside a band around the source-target row
            sched = band_schedule(grid, alpha * side**-0.925, side**0.85)
        plan, tv = schedule_tv_bound(sched, EXPO)
        eps = sched.flat_values()
        rhos = schedule_rhos_by_dict(eps, lambda e: scaled_affinity(EXPO, e).rho)
        np.testing.assert_array_equal(plan.eps_values, eps)
        np.testing.assert_array_equal(plan.affinity_lower_bounds, rhos)
        assert tv == product_tv_bound(PerturbationPlan("edge-graded", eps, rhos))


class TestGapBound:
    @given(
        st.integers(2, 9),
        st.integers(2, 9),
        st.integers(0, 2**31 - 1),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_ttq_lower_bound_below_passage_time_gap(self, width, height, seed, frac):
        grid = random_grid(width, height, seed)
        n = max(5, width, height)
        # alpha below the cap 0.5 sqrt(log n) on the source strength
        alpha = frac * 0.5 * math.sqrt(math.log(n))
        sched = graded_schedule(grid, alpha, n)
        geo = passage_time(grid)
        t_prime = passage_time(perturb(grid, sched)).passage_time
        for m in range(len(geo.edge_list) + 1):
            gap = ttq_lower_bound(geo, sched, m)
            assert gap <= geo.passage_time - t_prime + 1e-12 * geo.passage_time

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_vertex_pair_loop(self, seed):
        width, height = SIZES[seed % len(SIZES)]
        grid = random_grid(width, height, 900 + seed)
        sched = graded_schedule(grid, 0.5, max(5, width, height))
        geo = passage_time(grid)
        _t, path = heap_dijkstra(grid)
        for m in range(len(geo.edge_list) + 1):
            assert ttq_lower_bound(geo, sched, m) == ttq_by_vertex_pairs(
                grid, sched, path, m
            )

    def test_matching_box_gives_the_same_gap(self):
        grid = unit_grid(4, 4, (0, 2), (3, 2))
        geo = passage_time(grid)
        gap = ttq_lower_bound(geo, graded_schedule(grid, 0.5, 16), len(geo.edge_list))
        assert gap == 0.452462474412761  # the value before the box was recorded

    @pytest.mark.parametrize("width, height", [(5, 5), (5, 4), (4, 5)])
    def test_gap_rejects_a_schedule_of_another_box(self, width, height):
        geo = passage_time(unit_grid(4, 4, (0, 2), (3, 2)))
        other = unit_grid(width, height, (0, 2), (width - 1, 2))
        with pytest.raises(ShapeError):
            ttq_lower_bound(geo, graded_schedule(other, 0.5, 16), len(geo.edge_list))

    def test_gap_rejects_the_transposed_box(self):
        geo = passage_time(unit_grid(3, 5, (0, 2), (2, 2)))
        sched = graded_schedule(unit_grid(5, 3, (0, 1), (4, 1)), 0.5, 16)
        assert sched.flat_values().size == 22  # as many edges as the 3 x 5 box
        with pytest.raises(ShapeError):
            ttq_lower_bound(geo, sched, len(geo.edge_list))

    def test_m_domain(self):
        grid = unit_grid(3, 3, (0, 0), (2, 2))
        geo = passage_time(grid)
        sched = graded_schedule(grid, 1.0, 100)
        with pytest.raises(DomainError):
            ttq_lower_bound(geo, sched, len(geo.edge_list) + 1)

