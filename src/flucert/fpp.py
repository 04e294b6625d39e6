"""First-passage percolation on finite planar boxes.

Vertices are (x, y) with 0 <= x < width and 0 <= y < height; edges join
nearest neighbors.  Passage times come from SciPy's compiled Dijkstra, and the
geodesic witness is rebuilt from its predecessor array; when several paths
tie, any one of them is a valid witness for the certified gap.  Two perturbation
schedules divide edge weights by (1 + eps_e): one graded by graph distance
from the source, one uniform inside a corridor around the source-target
segment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .coupling import PerturbationPlan, product_tv_bound
from .densities import _quad_or_raise, scaled_affinity
from .errors import ConfigError, DomainError, NumericError, ShapeError

SCHEDULE_KINDS = ("distance-graded", "corridor")


@dataclass(frozen=True)
class FppGrid:
    """Weighted nearest-neighbor box with a source and a target vertex.

    ``h_weights[x, y]`` is the weight of edge (x, y)-(x+1, y), shape
    (width-1, height); ``v_weights[x, y]`` of (x, y)-(x, y+1), shape
    (width, height-1).
    """

    width: int
    height: int
    h_weights: np.ndarray
    v_weights: np.ndarray
    source: tuple
    target: tuple

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise ConfigError("box needs at least 2 vertices per side")
        h = np.asarray(self.h_weights, dtype=float)
        v = np.asarray(self.v_weights, dtype=float)
        if h.shape != (self.width - 1, self.height):
            raise ShapeError(
                f"h_weights must be {(self.width - 1, self.height)}, got {h.shape}"
            )
        if v.shape != (self.width, self.height - 1):
            raise ShapeError(
                f"v_weights must be {(self.width, self.height - 1)}, got {v.shape}"
            )
        if not (np.all(h > 0.0) and np.all(v > 0.0)):
            raise DomainError("all edge weights must be positive")
        for name, (x, y) in (("source", self.source), ("target", self.target)):
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ConfigError(f"{name} {x, y} outside the box")
        if tuple(self.source) == tuple(self.target):
            raise ConfigError("source and target must differ")
        object.__setattr__(self, "h_weights", h)
        object.__setattr__(self, "v_weights", v)
        object.__setattr__(self, "source", tuple(int(c) for c in self.source))
        object.__setattr__(self, "target", tuple(int(c) for c in self.target))

    def edge_weight(self, u, v):
        (x1, y1), (x2, y2) = sorted((tuple(u), tuple(v)))
        if (x2, y2) == (x1 + 1, y1):
            return float(self.h_weights[x1, y1])
        if (x2, y2) == (x1, y1 + 1):
            return float(self.v_weights[x1, y1])
        raise DomainError(f"{u}-{v} is not a nearest-neighbor edge")

    def graph_distance(self):
        return abs(self.source[0] - self.target[0]) + abs(
            self.source[1] - self.target[1]
        )

    def to_csv(self, path):
        rows = []
        for x in range(self.width - 1):
            for y in range(self.height):
                rows.append((x, y, x + 1, y, self.h_weights[x, y]))
        for x in range(self.width):
            for y in range(self.height - 1):
                rows.append((x, y, x, y + 1, self.v_weights[x, y]))
        np.savetxt(path, np.asarray(rows), delimiter=",")


@dataclass(frozen=True)
class GeodesicResult:
    """Passage time with one minimizing self-avoiding path as witness."""

    passage_time: float
    path: tuple  # vertex sequence from source to target
    edge_list: tuple  # edges in path order
    edge_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "edge_weights", np.asarray(self.edge_weights, dtype=float)
        )


@dataclass(frozen=True)
class EpsSchedule:
    """Per-edge perturbation strengths, stored like the grid weights."""

    kind: str
    h_values: np.ndarray
    v_values: np.ndarray
    alpha: float
    n: int

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise DomainError(f"unknown schedule kind {self.kind!r}")
        h = np.asarray(self.h_values, dtype=float)
        v = np.asarray(self.v_values, dtype=float)
        if np.any(h < 0.0) or np.any(v < 0.0):
            raise DomainError("schedule values must be nonnegative")
        object.__setattr__(self, "h_values", h)
        object.__setattr__(self, "v_values", v)

    def edge_value(self, u, v):
        (x1, y1), (x2, y2) = sorted((tuple(u), tuple(v)))
        if (x2, y2) == (x1 + 1, y1):
            return float(self.h_values[x1, y1])
        return float(self.v_values[x1, y1])

    def flat_values(self):
        return np.concatenate([self.h_values.ravel(), self.v_values.ravel()])


def passage_time(grid):
    """Exact first-passage time and one geodesic from source to target.

    ``scipy.sparse.csgraph.dijkstra`` on the box graph, with the geodesic
    read back from its predecessor array.
    """
    w, h = grid.width, grid.height
    ids = np.arange(w * h).reshape(w, h)
    rows = np.concatenate([ids[:-1, :].ravel(), ids[:, :-1].ravel()])
    cols = np.concatenate([ids[1:, :].ravel(), ids[:, 1:].ravel()])
    weights = np.concatenate([grid.h_weights.ravel(), grid.v_weights.ravel()])
    graph = csr_matrix((weights, (rows, cols)), shape=(w * h, w * h))
    src, tgt = int(ids[grid.source]), int(ids[grid.target])
    dist, pred = dijkstra(graph, directed=False, indices=src, return_predecessors=True)
    if not np.isfinite(dist[tgt]):
        raise NumericError("target unreachable on a connected box")

    backward = [tgt]
    while backward[-1] != src:
        backward.append(int(pred[backward[-1]]))
    path = tuple(divmod(u, h) for u in reversed(backward))
    edges = tuple(zip(path[:-1], path[1:]))
    return GeodesicResult(
        passage_time=float(dist[tgt]),
        path=path,
        edge_list=edges,
        edge_weights=np.array([grid.edge_weight(a, b) for a, b in edges]),
    )


def _endpoint_grids(grid):
    xs = np.arange(grid.width)[:, None]
    ys = np.arange(grid.height)[None, :]
    return xs, ys


def _source_graph_distance(grid):
    """Graph distance from the source for every vertex; the box is convex so
    this is the L1 distance."""
    sx, sy = grid.source
    xs, ys = _endpoint_grids(grid)
    return np.abs(xs - sx) + np.abs(ys - sy)


def graded_eps(k, alpha, n):
    """Strength alpha / ((k + 1) sqrt(log n)) at graph distance k."""
    return float(alpha) / ((np.asarray(k, dtype=float) + 1.0) * math.sqrt(math.log(n)))


def graded_schedule(grid, alpha, n):
    """Distance-graded schedule: shrink near the source, cut off at n/2.

    The strength is largest at the source, alpha / sqrt(log n), and must stay
    below 1/2 for the per-edge affinities to exist.
    """
    n = int(n)
    if n < 5:
        raise DomainError(f"need n >= 5 so that log n > 1, got {n}")
    if not float(alpha) > 0.0:
        raise DomainError("alpha must be positive")
    eps0 = graded_eps(0, alpha, n)
    if eps0 >= 0.5:
        raise DomainError(
            f"source strength alpha / sqrt(log n) = {eps0:.3f} must be below 1/2"
        )
    k_vertex = _source_graph_distance(grid)
    k_h = np.minimum(k_vertex[:-1, :], k_vertex[1:, :])
    k_v = np.minimum(k_vertex[:, :-1], k_vertex[:, 1:])
    h_vals = np.where(k_h <= n / 2, graded_eps(k_h, alpha, n), 0.0)
    v_vals = np.where(k_v <= n / 2, graded_eps(k_v, alpha, n), 0.0)
    return EpsSchedule("distance-graded", h_vals, v_vals, float(alpha), n)


def _segment_distance(px, py, a, b):
    """Euclidean distance from points (px, py) to the segment a-b."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    norm2 = dx * dx + dy * dy
    if norm2 == 0.0:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / norm2, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def corridor_schedule(grid, alpha, n, eps_exponent_slack):
    """Uniform strength alpha n^(-7/8 - slack) inside the corridor of
    half-width n^(3/4 + 2 slack) around the source-target segment."""
    n = int(n)
    slack = float(eps_exponent_slack)
    if slack <= 0.0:
        raise DomainError("exponent slack must be positive")
    if not float(alpha) > 0.0:
        raise DomainError("alpha must be positive")
    half_width = n ** (0.75 + 2.0 * slack)
    if half_width >= max(grid.width, grid.height):
        warnings.warn(
            "corridor wider than the box; schedule clipped to the box",
            stacklevel=2,
        )
    eps = float(alpha) * n ** (-7.0 / 8.0 - slack)
    xs, ys = _endpoint_grids(grid)
    seg_dist = _segment_distance(
        xs + 0.0 * ys, ys + 0.0 * xs, grid.source, grid.target
    )
    inside = seg_dist <= half_width
    in_h = inside[:-1, :] & inside[1:, :]
    in_v = inside[:, :-1] & inside[:, 1:]
    return EpsSchedule(
        "corridor",
        np.where(in_h, eps, 0.0),
        np.where(in_v, eps, 0.0),
        float(alpha),
        n,
    )


def corridor_eps(alpha, n, eps_exponent_slack):
    return float(alpha) * int(n) ** (-7.0 / 8.0 - float(eps_exponent_slack))


def perturb(grid, sched):
    """Divide every edge weight by (1 + eps_e)."""
    if sched.h_values.shape != grid.h_weights.shape:
        raise ShapeError("schedule does not match the grid")
    return FppGrid(
        grid.width,
        grid.height,
        grid.h_weights / (1.0 + sched.h_values),
        grid.v_weights / (1.0 + sched.v_values),
        grid.source,
        grid.target,
    )


def schedule_tv_bound(sched, density):
    """Perturbation plan and TV bound for a whole schedule.

    The per-edge affinity depends only on eps_e, so quadrature runs once per
    distinct value and the product is assembled over all edges.
    """
    eps = sched.flat_values()
    unique = np.unique(eps)
    rho_of = {float(e): scaled_affinity(density, float(e)).rho for e in unique}
    rhos = np.array([rho_of[float(e)] for e in eps])
    plan = PerturbationPlan("edge-graded", eps, rhos)
    return plan, product_tv_bound(plan)


def ttq_lower_bound(geo, sched, m):
    """Certified gap from the first m geodesic edges.

    The perturbed passage time is at most the original geodesic evaluated on
    the shrunken weights, so T - T' >= sum over those edges of
    eps * w / (1 + eps); truncating to the first m edges keeps it valid.
    """
    m = int(m)
    if m < 0 or m > len(geo.edge_list):
        raise DomainError(f"m must lie in [0, {len(geo.edge_list)}], got {m}")
    total = 0.0
    for (u, v), w in list(zip(geo.edge_list, geo.edge_weights))[:m]:
        e = sched.edge_value(u, v)
        total += e * w / (1.0 + e)
    return total


def geodesic_inside_corridor(geo, sched):
    """True when every geodesic edge carries the full corridor strength."""
    eps = max(float(sched.h_values.max()), float(sched.v_values.max()))
    if eps == 0.0:
        return True
    return all(sched.edge_value(u, v) == eps for u, v in geo.edge_list)


def touches_boundary(geo, grid):
    return any(
        x in (0, grid.width - 1) or y in (0, grid.height - 1)
        for x, y in geo.path
    )


def laplace_transform(density, theta):
    """E exp(-theta w) for an edge weight w with the given half-line density."""
    if density.support != "half-line":
        raise DomainError("edge weight densities live on the half line")
    lo, hi = density.quad_range()
    theta = float(theta)
    value, _err = _quad_or_raise(
        lambda x: math.exp(-theta * x - float(density.potential(x))),
        lo,
        hi,
        f"Laplace transform({density.name}, theta={theta})",
    )
    return value


def path_weight_tail(density, r, b):
    """Explicit-constant bound on P(sum of r i.i.d. edge weights <= b r).

    Chernoff at theta = 1/b gives (e * phi(1/b))^r with phi the Laplace
    transform of the weight law; the result is capped at 1.
    """
    r = int(r)
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    b = float(b)
    if b <= 0.0:
        raise DomainError(f"need b > 0, got {b}")
    per_edge = math.e * laplace_transform(density, 1.0 / b)
    return min(1.0, per_edge**r)
