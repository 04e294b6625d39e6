"""Euclidean combinatorial functionals and their two couplings.

The functionals (closed TSP tour, perfect matching, nearest-neighbor sum) are
all homogeneous of degree 1: scaling every point by lambda scales the value by
lambda exactly.  That identity powers the global scaling coupling.  The second
coupling resamples half the points of a uniform-square instance inside a small
neighborhood of the other half, with an exact mixture affinity per resampled
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import cKDTree

from .coupling import PerturbationPlan, product_tv_bound
from .densities import scaled_affinity
from .errors import (
    DegenerateRegionError,
    DomainError,
    InternalConsistencyError,
    ShapeError,
    SizeError,
    real,
    whole,
)
from .rng import uniform_open

TSP_EXACT_MAX = 15
MATCHING_MAX = 16
MAX_REJECTION = 10**6  # candidates one Rhee resampling draw may use

@dataclass(frozen=True)
class PointSet:
    """A finite set of points in R^d, one row per point."""

    dim: int
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", whole(self.dim, "dim"))
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ShapeError(f"points must be (n, {self.dim}), got {pts.shape}")
        if pts.shape[0]:
            # bounds every squared distance between two points; it is not
            # finite either when a coordinate is not
            spread = sum(
                (hi - lo) * (hi - lo)
                for hi, lo in zip(pts.max(axis=0).tolist(), pts.min(axis=0).tolist())
            )
            if not math.isfinite(spread):
                if not np.all(np.isfinite(pts)):
                    raise DomainError("all coordinates must be finite")
                raise DomainError(
                    "squared coordinate differences overflow; rescale the points"
                )
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[0]

    def scaled(self, factor):
        return PointSet(self.dim, self.points * real(factor, "factor"))


@dataclass(frozen=True)
class FunctionalValue:
    """Value of a geometric functional with its optimality witness."""

    value: float
    witness: object  # tour order, matching pairs, or None


def distance_matrix(ps):
    diff = ps.points[:, None, :] - ps.points[None, :, :]
    return np.sqrt(np.square(diff).sum(axis=2))


def _check_cover(indices, n, witness):
    """``indices`` as ints if they list each of 0 .. n-1 once, else ``DomainError``."""
    name = f"{witness} index"
    indices = [whole(i, name, 0, n) for i in indices]
    if sorted(indices) != list(range(n)):
        raise DomainError(f"a {witness} must cover each of the {n} points once")
    return indices


def _closed_length(pts):
    seg = pts - np.roll(pts, -1, axis=0)
    return float(np.sqrt(np.square(seg).sum(axis=1)).sum())


def tour_length(ps, order):
    """Length of the closed tour visiting every point once, in the given order."""
    return _closed_length(ps.points[_check_cover(order, ps.n, "tour")])


def _pairs_length(ps, pairs):
    total = 0.0
    for i, j in pairs:
        total += float(np.linalg.norm(ps.points[i] - ps.points[j]))
    return total


def matching_length(ps, pairs):
    """Length of a perfect matching of the points, given as index pairs."""
    try:
        ends = [k for i, j in pairs for k in (i, j)]
    except (TypeError, ValueError):  # an entry that is not a pair
        raise DomainError("a matching is a sequence of index pairs") from None
    _check_cover(ends, ps.n, "matching")
    return _pairs_length(ps, pairs)


def _subsets(k):
    """Every k-bit mask with its popcount and its run of trailing ones.

    One pass per bit keeps the temporaries at the size of one mask array.
    """
    masks = np.arange(1 << k)
    popcount = np.zeros_like(masks)
    trailing = np.zeros_like(masks)
    run = np.ones_like(masks)
    for bit in range(k):
        member = (masks >> bit) & 1
        popcount += member
        run &= member
        trailing += run
    return masks, popcount, trailing


def _frozen(*tables):
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _held_karp_layers(m):
    """Index tables of the Held-Karp layers over m nodes, one per popcount.

    Layer s (s = 2..m) lists every pair (mask, j) with |mask| = s and j in
    mask as four frozen index arrays: the flat slot ``mask * m + j`` of the
    (2^m, m) table, the predecessor ``mask ^ (1 << j)``, the end node j and
    the flat start ``pair * m`` of its candidate row.  They depend on m alone;
    the size checks in ``tsp_exact`` bound the cache to TSP_EXACT_MAX - 2 entries.
    """
    masks, popcount, _ = _subsets(m)
    layers = []
    for size in range(2, m + 1):  # singletons are seeded by the caller
        layer = masks[popcount == size]
        row, end = np.nonzero((layer[:, None] >> np.arange(m)) & 1)
        mask = layer[row]
        rows = np.arange(row.size) * m
        layers.append(_frozen(mask * m + end, mask ^ (1 << end), end, rows))
    return tuple(layers)


def tsp_exact(ps):
    """Optimal closed tour by the Held-Karp subset dynamic program.

    Tours start at node 0.  One vectorized step per popcount layer relaxes
    every (subset, end node j) pair of the layer at once: the candidates are
    dp[subset minus j] + dist[j, .], which ``distance_matrix`` makes equal to
    dist[., j], and ``ndarray.argmin`` keeps the first minimum of each row, so
    ties go to the smallest predecessor node.  The index tables of each layer
    depend only on n; they are built on the first call for that n and cached,
    frozen, for later calls (about 3.5 MiB at n = TSP_EXACT_MAX = 15).
    """
    n = ps.n
    if n < 3 or n > TSP_EXACT_MAX:
        raise SizeError(f"tsp_exact supports 3 <= n <= {TSP_EXACT_MAX}, got {n}")
    dist = distance_matrix(ps)
    m = n - 1  # nodes 1..n-1, anchored at node 0
    sub = dist[1:, 1:]
    first_leg = dist[0, 1:]
    full = 1 << m
    dp = np.empty((full, m))
    dp.fill(np.inf)
    parent = np.empty((full, m), dtype=np.int16)
    parent.fill(-1)
    nodes = np.arange(m)
    dp[1 << nodes, nodes] = first_leg
    flat_dp = dp.reshape(-1)
    flat_parent = parent.reshape(-1)
    for slot, prev, end, rows in _held_karp_layers(m):
        cand = dp.take(prev, axis=0)  # a row gather, faster than dp[prev]
        cand += sub.take(end, axis=0)
        k = cand.argmin(1)
        flat_dp[slot] = cand.ravel()[k + rows]
        flat_parent[slot] = k
    closing = dp[full - 1] + first_leg
    last = int(np.argmin(closing))
    order = [last + 1]
    mask = full - 1
    j = last
    while parent[mask, j] >= 0:
        k = int(parent[mask, j])
        mask ^= 1 << j
        order.append(k + 1)
        j = k
    order.append(0)
    order.reverse()
    # the witness is a tour by construction, so its length skips the check
    return FunctionalValue(_closed_length(ps.points[order]), tuple(order))


@lru_cache(maxsize=None)
def _matching_layers(n):
    """Index tables of the matching DP over n points, one per popcount 2L.

    The DP always pairs the lowest unmatched point, so the only subsets it
    reaches are those whose run of trailing ones t is at least half their
    size, and the last pair (i, j) added to such a subset has i < t and j > i
    in it.  Layer L lists the reached subsets of size 2L and, per subset, a
    row of candidate (predecessor subset, flat index i * n + j of the pair
    distance) sorted by predecessor.  Candidates whose predecessor is never
    reached are left out; rows are padded to the layer's widest with the
    sentinel predecessor 2^n, whose dp slot holds +inf.  The raveled
    predecessors and the flat start ``row * width`` of each row follow.  The
    arrays are frozen; the size checks in ``matching_exact`` bound the cache
    to MATCHING_MAX // 2 entries.
    """
    full = 1 << n
    masks, popcount, trailing = _subsets(n)
    # pairs (i, j), i < j, by decreasing j then i: decreasing pair bits, so
    # increasing predecessor subset
    second, first = (index[::-1] for index in np.tril_indices(n, -1))
    bits = (1 << first) | (1 << second)
    layers = []
    for half in range(1, n // 2 + 1):
        reached = (popcount == 2 * half) & (trailing >= half)
        new = masks[reached]
        valid = (
            ((new[:, None] & bits) == bits)
            & (first < trailing[reached][:, None])
            & (first >= half - 1)  # the predecessor is reached too
        )
        row, col = np.nonzero(valid)
        at = np.cumsum(valid, axis=1)[row, col] - 1  # keeps the pair order
        shape = (new.size, int(at.max()) + 1)
        pred = np.full(shape, full)
        pred[row, at] = new[row] ^ bits[col]
        pair = np.zeros(shape, dtype=int)
        pair[row, at] = first[col] * n + second[col]
        rows = np.arange(shape[0]) * shape[1]
        layers.append(_frozen(new, pred, pair, pred.ravel(), rows))
    return tuple(layers)


def matching_exact(ps):
    """Minimum-weight perfect matching by bitmask dynamic programming.

    Every step pairs the lowest unmatched point.  One vectorized step per
    popcount layer computes dp[subset] as the minimum over its candidate last
    pairs of dp[predecessor] + dist[i, j], with the candidates ordered by
    predecessor subset so that ``ndarray.argmin`` keeps the smallest
    predecessor among equal costs.  The index tables depend only on n; they
    are built on the first call for that n and cached, frozen, for later
    calls (about 0.3 MiB at n = MATCHING_MAX = 16).  The value is recomputed
    from the witness pairs, a perfect matching by construction, as
    ``matching_length`` would.
    """
    n = ps.n
    if n % 2 != 0 or n < 2 or n > MATCHING_MAX:
        raise SizeError(
            f"matching_exact supports even 2 <= n <= {MATCHING_MAX}, got {n}"
        )
    pair_dist = distance_matrix(ps).reshape(-1)
    full = 1 << n
    dp = np.empty(full + 1)
    dp.fill(np.inf)  # slot 2^n is the padding sentinel
    dp[0] = 0.0
    prev = np.zeros(full, dtype=np.int64)
    for new, pred, pair, flat_pred, rows in _matching_layers(n):
        cand = dp[pred]
        cand += pair_dist[pair]
        at = cand.argmin(1) + rows
        dp[new] = cand.ravel()[at]
        prev[new] = flat_pred[at]
    pairs = []
    mask = full - 1
    while mask:
        before = int(prev[mask])
        pair = mask ^ before
        low = pair & -pair
        pairs.append((low.bit_length() - 1, (pair ^ low).bit_length() - 1))
        mask = before
    pairs.reverse()
    return FunctionalValue(_pairs_length(ps, pairs), tuple(pairs))


def nn_sum(ps):
    """Sum over points of the distance to the nearest other point.

    A k-d tree query for the two nearest points of each point returns the
    point itself at distance 0 and then its nearest other point (at distance
    0 too for a duplicate).  The tree squares and sums the coordinate
    differences as ``distance_matrix`` does, so the sum is the same as the
    minimum over each row of the dense matrix, in O(n log n) time and O(n)
    memory.
    """
    if ps.n < 2:
        raise SizeError(f"nn_sum needs n >= 2, got {ps.n}")
    dist = cKDTree(ps.points).query(ps.points, k=2)[0]
    return FunctionalValue(float(dist[:, 1].sum()), None)


def evaluate_functional(ps, kind):
    """Dispatch a functional evaluation by kind."""
    if kind == "tsp-exact":
        return tsp_exact(ps)
    if kind == "matching-exact":
        return matching_exact(ps)
    if kind == "nn-sum":
        return nn_sum(ps)
    raise DomainError(f"unknown functional kind {kind!r}")


def scaling_coupling(ps, alpha, r, kind, density):
    """Global scaling coupling: every coordinate shrinks by 1/(1 + eps).

    Returns (base value, scaled value, tv_bound).  The scaled value is
    computed both from the homogeneity identity value / (1+eps)^r and by
    re-evaluating the functional on the scaled points; disagreement beyond
    1e-9 relative means the functional is not homogeneous of degree r.
    """
    n = ps.n
    if n < 2:
        raise SizeError(f"scaling_coupling needs n >= 2 points, got {n}")
    r = real(r, "degree r", 0)
    eps = real(real(alpha, "alpha") / math.sqrt(n), "alpha / sqrt(n)", 0, 0.5, "[)")
    base = evaluate_functional(ps, kind)
    identity_value = base.value / (1.0 + eps) ** r
    rescaled = evaluate_functional(ps.scaled(1.0 / (1.0 + eps)), kind)
    tol = 1e-9 * max(1.0, abs(identity_value))
    if not abs(rescaled.value - identity_value) <= tol:  # NaN fails it too
        raise InternalConsistencyError(
            f"{kind} is not homogeneous of degree {r}: identity gives "
            f"{identity_value!r}, re-evaluation gives {rescaled.value!r}"
        )
    coords = n * ps.dim
    rho = scaled_affinity(density, eps).rho
    plan = PerturbationPlan(
        "scale", np.full(coords, eps), np.full(coords, rho)
    )
    return base, rescaled, product_tv_bound(plan)


@dataclass(frozen=True)
class RheeCoupling:
    """Bookkeeping for one draw of the resampling coupling.

    ``resample_indices`` lists the points (0-based, all at least n // 2)
    whose perturbed copy came from the neighborhood region D; the affinity is
    exact given the region volume, which is itself a Monte-Carlo estimate with
    the reported standard error.
    """

    resample_indices: tuple
    vol_D_estimate: float
    vol_D_sigma: float


def rhee_mixture_affinity(vol, theta):
    """Affinity between the D-mixture density and the uniform law.

    The resampled point has density (1 - theta) + theta/vol on D and
    (1 - theta) outside, so the affinity against the uniform density is
    (1 - vol) sqrt(1 - theta) + vol sqrt(1 - theta + theta/vol), an exact
    finite formula.
    """
    vol = real(vol, "vol", 0, 1, "(]")
    theta = real(theta, "theta", 0, 1, "[)")
    rho = (1.0 - vol) * math.sqrt(1.0 - theta) + vol * math.sqrt(
        1.0 - theta + theta / vol
    )
    return min(rho, 1.0)


def rhee_coupling_sample(n, alpha, beta, rng, probes=100000):
    """One draw of the resampling coupling on the unit square (d = 2).

    The first m = n//2 points are shared.  D is the set of square points
    within alpha * n^(-1/2) of those m points; each later point is replaced,
    with probability beta * n^(-1/2), by a uniform draw from D obtained by
    rejection sampling.  The tree queries stop searching just beyond the
    radius (a point farther out comes back at distance inf); the tree
    compares squared distances, so the cut-off carries a relative margin of
    1e-9 and the ``<= radius`` test on the returned distance alone decides
    membership in D.
    """
    n = whole(n, "n", 8)
    probes = whole(probes, "probes")
    alpha = real(alpha, "alpha", 0, 1)
    theta = real(real(beta, "beta") / math.sqrt(n), "beta / sqrt(n)", 0, 1, "[)")
    m = n // 2
    radius = alpha * n ** (-1.0 / 2.0)  # alpha * n^(-1/d) with d = 2
    cutoff = radius * (1.0 + 1e-9)

    x = uniform_open(rng, (n, 2))
    tree = cKDTree(x[:m])

    probe_pts = uniform_open(rng, (probes, 2))
    hit = tree.query(probe_pts, k=1, distance_upper_bound=cutoff)[0] <= radius
    vol_hat = float(hit.mean())
    vol_sigma = math.sqrt(max(vol_hat * (1.0 - vol_hat), 1e-12) / probes)
    if vol_hat <= 0.0:
        raise DegenerateRegionError(
            "no Monte-Carlo probe landed in the resampling region"
        )

    resampled = []
    x_prime = x.copy()
    batch = 256
    for i in range(m, n):
        if uniform_open(rng) >= theta:
            continue
        attempts = 0
        y = None
        while y is None:
            cand = uniform_open(rng, (batch, 2))
            ok = tree.query(cand, k=1, distance_upper_bound=cutoff)[0] <= radius
            attempts += batch
            if ok.any():
                y = cand[int(np.argmax(ok))]
            elif attempts >= MAX_REJECTION:
                raise DegenerateRegionError(
                    f"rejection sampling exceeded {MAX_REJECTION} attempts; "
                    f"region volume estimate {vol_hat:g}"
                )
        x_prime[i] = y
        resampled.append(i)

    coupling = RheeCoupling(tuple(resampled), vol_hat, vol_sigma)
    return PointSet(2, x), PointSet(2, x_prime), coupling


def rhee_conservative_affinity(coupling, theta):
    """Affinity at the volume estimate lowered by three standard errors.

    The mixture affinity increases with the region volume, so evaluating it at
    the lowered volume folds the Monte-Carlo error of the volume estimate into
    the certificate conservatively.
    """
    vol = max(coupling.vol_D_estimate - 3.0 * coupling.vol_D_sigma, 1e-9)
    return rhee_mixture_affinity(vol, theta)
