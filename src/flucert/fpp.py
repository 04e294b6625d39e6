"""First-passage percolation on finite planar boxes.

Vertices are (x, y) with 0 <= x < width and 0 <= y < height, with vertex id
x * height + y; edges join nearest neighbors.  Every per-edge array (weights,
schedule strengths, geodesic edges) uses one flat edge layout: the horizontal
edges ``h.ravel()`` followed by the vertical edges ``v.ravel()``.  Passage
times come from SciPy's compiled Dijkstra on a box graph whose structure
depends on the box alone, built once per (width, height) and cached, frozen.
The geodesic witness is rebuilt from the predecessor array; when several
paths tie, any one of them is a valid witness for the certified gap.  The
perturbation divides each edge weight by (1 + eps_e), with eps_e graded by
the graph distance of the edge from the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coupling import PerturbationPlan, product_tv_bound
from .densities import checked_density, scaled_affinity
from .errors import SAFE_SUM, ConfigError, DomainError, ShapeError
from .errors import real, reals, whole


@dataclass(frozen=True)
class FppGrid:
    """Weighted nearest-neighbor box with a source and a target vertex.

    ``h_weights[x, y]`` is the weight of edge (x, y)-(x+1, y), shape
    (width-1, height); ``v_weights[x, y]`` of (x, y)-(x, y+1), shape
    (width, height-1).  Every weight lies in (0, SAFE_SUM / edges].
    """

    width: int
    height: int
    h_weights: np.ndarray
    v_weights: np.ndarray
    source: tuple
    target: tuple

    def __post_init__(self):
        for side in ("width", "height"):
            object.__setattr__(self, side, whole(getattr(self, side), side, 2))
        w, h = self.width, self.height
        # Dijkstra sums a shortest path, at most w h - 1 edges, and one more
        # edge; w h <= edges in a box of sides >= 2, so every sum is finite
        bound = SAFE_SUM / ((w - 1) * h + w * (h - 1))
        for name, shape in (("h_weights", (w - 1, h)), ("v_weights", (w, h - 1))):
            weights = reals(getattr(self, name), name, shape, 0, bound, "(]")
            object.__setattr__(self, name, weights)
        for name in ("source", "target"):
            try:
                x, y = getattr(self, name)
            except (TypeError, ValueError):
                raise DomainError(f"{name} must be an (x, y) pair") from None
            point = (
                whole(x, f"{name} x", 0, self.width),
                whole(y, f"{name} y", 0, self.height),
            )
            object.__setattr__(self, name, point)
        if self.source == self.target:
            raise ConfigError("source and target must differ")


def _flat(h_part, v_part):
    """Per-edge arrays in the flat edge layout: horizontal, then vertical."""
    return np.concatenate([h_part.ravel(), v_part.ravel()])


@dataclass(frozen=True)
class GeodesicResult:
    """Passage time with one minimizing self-avoiding path as witness.

    ``edge_list`` holds the path's flat edge indices in order from source to
    target, ``edge_weights`` their weights and ``box`` the grid's (width, height).
    """

    passage_time: float
    edge_list: np.ndarray
    edge_weights: np.ndarray
    box: tuple


@dataclass(frozen=True)
class EpsSchedule:
    """Per-edge perturbation strengths, shaped like the grid weights."""

    h_values: np.ndarray
    v_values: np.ndarray

    def __post_init__(self):
        h = reals(self.h_values, "h_values", (None, None), 0, math.inf, "[)")
        v_shape = (h.shape[0] + 1, h.shape[1] - 1)  # the h shape fixes the box
        v = reals(self.v_values, "v_values", v_shape, 0, math.inf, "[)")
        object.__setattr__(self, "h_values", h)
        object.__setattr__(self, "v_values", v)

    def flat_values(self):
        return _flat(self.h_values, self.v_values)


@lru_cache(maxsize=8)  # the last 8 boxes
def _box_graph(width, height):
    """Frozen CSR arrays of the box graph with both directions of every edge:
    int32 ``indptr`` and ``indices`` (row u lists u + height, u + 1,
    u - height, u - 1) and the flat edge index ``slot_edge`` of every slot."""
    ids = np.arange(width * height).reshape(width, height)
    lo, hi = _flat(ids[:-1, :], ids[:, :-1]), _flat(ids[1:, :], ids[:, 1:])
    tail, head = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.argsort(tail, kind="stable")
    indptr = np.r_[0, np.cumsum(np.bincount(tail))].astype(np.int32)
    slot_edge = np.tile(np.arange(lo.size), 2)[order]
    tables = (indptr, head[order].astype(np.int32), slot_edge)
    for table in tables:
        table.flags.writeable = False
    return tables


def passage_time(grid):
    """Exact first-passage time and one geodesic from source to target.

    ``scipy.sparse.csgraph.dijkstra``, directed, on the cached ``_box_graph``
    with the grid's weights as data: each distance is the minimum over
    neighbours u of dist[u] + w whatever the order of relaxation, and at a tie
    any tied path is a valid witness; by the bound on the weights every
    distance is finite.  A step from vertex id lo to lo + height is edge lo;
    from lo to lo + 1, edge (width-1) * height + lo - lo // height.
    ``scipy.sparse`` and its ``csgraph`` are imported on the first call, so
    importing this module does not load them.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    w, h = grid.width, grid.height
    indptr, indices, slot_edge = _box_graph(w, h)
    weights = _flat(grid.h_weights, grid.v_weights)
    graph = csr_matrix((weights[slot_edge], indices, indptr), shape=(w * h, w * h))
    src, tgt = (x * h + y for x, y in (grid.source, grid.target))
    dist, pred = dijkstra(graph, directed=True, indices=src, return_predecessors=True)
    backward = [tgt]
    while backward[-1] != src:
        backward.append(int(pred[backward[-1]]))
    path = np.array(backward[::-1])
    lo = np.minimum(path[:-1], path[1:])
    vertical = np.abs(path[1:] - path[:-1]) == 1
    edges = np.where(vertical, (w - 1) * h + lo - lo // h, lo)
    return GeodesicResult(float(dist[tgt]), edges, weights[edges], (w, h))


def _source_graph_distance(grid):
    """Graph distance from the source for every vertex; the box is convex so
    this is the L1 distance."""
    sx, sy = grid.source
    xs = np.arange(grid.width)[:, None]
    ys = np.arange(grid.height)[None, :]
    return np.abs(xs - sx) + np.abs(ys - sy)


def _graded_eps(k, alpha, n):
    """Strength alpha / ((k + 1) sqrt(log n)) at graph distance k."""
    return alpha / ((np.asarray(k, dtype=float) + 1.0) * math.sqrt(math.log(n)))


def graded_schedule(grid, alpha, n):
    """Distance-graded schedule: shrink near the source, cut off at n/2.

    The strength is largest at the source, alpha / sqrt(log n), and must stay
    below 1/2 for the per-edge affinities to exist.
    """
    n = whole(n, "n", 5)  # so that log n > 1
    alpha = real(alpha, "alpha", 0, math.inf)
    real(_graded_eps(0, alpha, n), "alpha / sqrt(log n)", 0, 0.5, "[)")
    k_vertex = _source_graph_distance(grid)
    k_h = np.minimum(k_vertex[:-1, :], k_vertex[1:, :])
    k_v = np.minimum(k_vertex[:, :-1], k_vertex[:, 1:])
    h_vals = np.where(k_h <= n / 2, _graded_eps(k_h, alpha, n), 0.0)
    v_vals = np.where(k_v <= n / 2, _graded_eps(k_v, alpha, n), 0.0)
    return EpsSchedule(h_vals, v_vals)


def perturb(grid, sched):
    """Divide every edge weight by (1 + eps_e)."""
    # an EpsSchedule's v shape follows from its h shape, as a grid's does
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

    The per-edge affinity depends only on eps_e, so it is computed once per
    distinct value and the inverse index of ``np.unique`` spreads the values
    over all edges.
    """
    checked_density(density, "density")
    eps = sched.flat_values()
    unique, edge_of = np.unique(eps, return_inverse=True)
    rhos = np.array([scaled_affinity(density, float(e)).rho for e in unique])[edge_of]
    plan = PerturbationPlan("edge-graded", eps, rhos)
    return plan, product_tv_bound(plan)


def ttq_lower_bound(geo, sched, m):
    """Certified gap from the first m geodesic edges.

    The perturbed passage time is at most the original geodesic evaluated on
    the shrunken weights, so T - T' >= sum over those edges of
    eps * w / (1 + eps); truncating to the first m edges keeps it valid.  The
    terms are summed left to right along the path.  ``sched`` must fit ``geo.box``.
    """
    if sched.h_values.shape != (geo.box[0] - 1, geo.box[1]):
        raise ShapeError(f"schedule does not match the geodesic's box {geo.box}")
    m = whole(m, "m", 0, len(geo.edge_list) + 1)
    eps = sched.flat_values()[geo.edge_list[:m]]
    terms = np.r_[0.0, eps * geo.edge_weights[:m] / (1.0 + eps)]
    return float(np.cumsum(terms)[-1])  # in path order; np.sum adds pairwise
