"""Tests for first-passage percolation: passage times, schedules, gap bounds."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flucert.densities import sample_iid, standard_density
from flucert.errors import ConfigError, DomainError, NumericError, ShapeError
from flucert.fpp import (
    FppGrid,
    corridor_schedule,
    graded_eps,
    graded_schedule,
    laplace_transform,
    passage_time,
    path_weight_tail,
    perturb,
    schedule_tv_bound,
    ttq_lower_bound,
)
from flucert.rng import seed_stream
from oracles import heap_dijkstra

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


def networkx_passage_time(grid):
    g = nx.Graph()
    for x in range(grid.width - 1):
        for y in range(grid.height):
            g.add_edge((x, y), (x + 1, y), weight=grid.h_weights[x, y])
    for x in range(grid.width):
        for y in range(grid.height - 1):
            g.add_edge((x, y), (x, y + 1), weight=grid.v_weights[x, y])
    return nx.shortest_path_length(g, grid.source, grid.target, weight="weight")


def assert_valid_witness(geo, grid):
    assert geo.path[0] == grid.source and geo.path[-1] == grid.target
    assert len(set(geo.path)) == len(geo.path)
    assert geo.edge_list == tuple(zip(geo.path[:-1], geo.path[1:]))
    for (x1, y1), (x2, y2) in geo.edge_list:
        assert abs(x1 - x2) + abs(y1 - y2) == 1
    expected = [grid.edge_weight(u, v) for u, v in geo.edge_list]
    np.testing.assert_array_equal(geo.edge_weights, expected)
    assert geo.edge_weights.sum() == pytest.approx(geo.passage_time, rel=1e-12)


SIZES = [(2, 2), (2, 7), (5, 3), (9, 9), (16, 11), (24, 24)]


class TestPassageTime:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_heap_oracle(self, seed):
        width, height = SIZES[seed % len(SIZES)]
        grid = random_grid(width, height, seed)
        geo = passage_time(grid)
        t, path = heap_dijkstra(grid)
        assert geo.passage_time == pytest.approx(t, rel=1e-12)
        assert geo.path == path

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_networkx(self, seed):
        width, height = SIZES[seed % len(SIZES)]
        grid = random_grid(width, height, 500 + seed)
        geo = passage_time(grid)
        assert geo.passage_time == pytest.approx(
            networkx_passage_time(grid), rel=1e-12
        )
        assert_valid_witness(geo, grid)

    def test_ties_give_a_geodesic(self):
        grid = unit_grid(6, 5, (0, 0), (5, 4))
        geo = passage_time(grid)
        assert geo.passage_time == grid.graph_distance()
        assert len(geo.edge_list) == grid.graph_distance()
        assert_valid_witness(geo, grid)

    def test_unreachable_target_raises(self):
        grid = unit_grid(3, 3, (0, 0), (2, 2))
        h, v = grid.h_weights.copy(), grid.v_weights.copy()
        h[1, 2] = np.inf  # (1, 2)-(2, 2)
        v[2, 1] = np.inf  # (2, 1)-(2, 2)
        with pytest.raises(NumericError):
            passage_time(FppGrid(3, 3, h, v, (0, 0), (2, 2)))

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
        assert top == pytest.approx(graded_eps(0, alpha, n)) and top < 0.5

    def test_graded_values_decrease_with_distance(self):
        grid = unit_grid(6, 6, (0, 0), (5, 5))
        sched = graded_schedule(grid, 1.0, 100)
        assert sched.h_values[0, 0] > sched.h_values[1, 0] > sched.h_values[2, 0]

    def test_corridor_needs_positive_slack(self):
        with pytest.raises(DomainError):
            corridor_schedule(unit_grid(4, 4, (0, 0), (3, 3)), 1.0, 16, 0.0)

    def test_schedule_tv_bound_in_range(self):
        grid = unit_grid(6, 6, (0, 3), (5, 3))
        plan, tv = schedule_tv_bound(graded_schedule(grid, 1.0, 100), EXPO)
        assert 0.0 < tv < 1.0
        assert plan.eps_values.size == 2 * 5 * 6


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

    def test_m_domain(self):
        grid = unit_grid(3, 3, (0, 0), (2, 2))
        geo = passage_time(grid)
        sched = graded_schedule(grid, 1.0, 100)
        with pytest.raises(DomainError):
            ttq_lower_bound(geo, sched, len(geo.edge_list) + 1)


class TestLaplace:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 2.0])
    def test_exponential_closed_form(self, theta):
        assert laplace_transform(EXPO, theta) == pytest.approx(
            1.0 / (1.0 + theta), rel=1e-9
        )

    def test_path_weight_tail_capped(self):
        assert path_weight_tail(EXPO, 3, 10.0) == 1.0
        assert 0.0 < path_weight_tail(EXPO, 50, 0.1) < 1e-6
