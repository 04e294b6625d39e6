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

from .coupling import PerturbationPlan, product_tv_bound
from .densities import checked_density, scaled_affinity
from .errors import (
    SAFE_SUM,
    DegenerateRegionError,
    DomainError,
    InternalConsistencyError,
    SizeError,
    real,
    reals,
    whole,
)
from .rng import uniform_open

TSP_EXACT_MAX = 15
MATCHING_MAX = 16
MAX_REJECTION = 10**6  # candidates one Rhee resampling draw may use

@dataclass(frozen=True)
class PointSet:
    """A finite set of points in R^d, one row per point, with every coordinate
    in [-b, b], b = sqrt(SAFE_SUM / dim) / 2, so that no distance overflows."""

    dim: int
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", whole(self.dim, "dim"))
        # coordinates differ by at most 2 b, so dim squares sum to <= SAFE_SUM
        bound = 0.5 * math.sqrt(SAFE_SUM / self.dim)
        pts = reals(self.points, "points", (None, self.dim), -bound, bound, "[]")
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[0]

    def scaled(self, factor):
        return PointSet(self.dim, self.points * real(factor, "factor"))


@dataclass(frozen=True)
class FunctionalValue:
    """Value of a geometric functional with the witness it is the length of.

    The witness is optimal when an exact solver returns it; ``scaling_coupling``
    pairs the base witness with its length on the shrunk points.
    """

    value: float
    witness: object  # tour order, matching pairs, or None


def _point_set(ps):
    """``ps`` if it is a ``PointSet``, else ``DomainError`` naming the argument."""
    if not isinstance(ps, PointSet):
        raise DomainError(f"ps must be a PointSet, got {type(ps).__name__}")
    return ps


def _distances(points):
    """Distance matrix of (n, d) point rows."""
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.square(diff).sum(axis=-1))


def _check_cover(indices, n, witness):
    """``indices`` as ints if they list each of 0 .. n-1 once, else ``DomainError``."""
    name = f"{witness} index"
    indices = [whole(i, name, 0, n) for i in indices]
    if sorted(indices) != list(range(n)):
        raise DomainError(f"a {witness} must cover each of the {n} points once")
    return indices


def _closed_length(pts):
    seg = pts - np.concatenate((pts[1:], pts[:1]))  # each point's successor
    return float(np.sqrt(np.square(seg).sum(axis=1)).sum())


def tour_length(ps, order):
    """Length of the closed tour visiting every point once, in the given order."""
    order = _check_cover(order, _point_set(ps).n, "tour")
    return _closed_length(ps.points[order])


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
    _check_cover(ends, _point_set(ps).n, "matching")
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
    mask as three frozen index arrays: the flat slot ``j * 2^m + mask`` of the
    node-major (m, 2^m) table, the predecessor ``mask ^ (1 << j)`` and the end
    node j.  They depend on m alone; the size checks in ``tsp_exact`` bound the
    cache to TSP_EXACT_MAX - 2 entries.
    """
    masks, popcount, _ = _subsets(m)
    layers = []
    for size in range(2, m + 1):  # singletons are seeded by the caller
        layer = masks[popcount == size]
        row, end = np.nonzero((layer[:, None] >> np.arange(m)) & 1)
        end = np.ascontiguousarray(end)  # nonzero gives strided views of one array
        mask = layer[row]
        layers.append(_frozen((end << m) + mask, mask ^ (1 << end), end))
    return tuple(layers)


def tsp_exact(ps):
    """Optimal closed tour of a point set by the Held-Karp subset DP.

    dp[k, mask] is the shortest path from node 0 through the nodes of mask
    (nodes 1..n-1 as bits 0..n-2) that ends at node k.  One vectorized step
    per popcount layer relaxes every (mask, j) pair of the layer at once: the
    candidates dp[., mask minus j] + dist[., j] are gathered node-major and
    only their minimum is kept.  The tour, which starts at node 0, is then
    read back one node at a time from the full mask: each step recomputes,
    with the same additions, the candidate column of its (mask, j) and takes
    its ``ndarray.argmin``, the first minimum, so ties go to the smallest
    predecessor node, as in a loop over the subsets.

    The index tables of each layer depend only on n; they are built on the
    first call for that n and cached, frozen, for later calls (about 2.6 MiB
    at n = TSP_EXACT_MAX = 15).  The table of partial lengths takes
    8 (n - 1) 2^(n-1) bytes, 1.75 MiB at n = 15.
    """
    n = _point_set(ps).n
    if n < 3 or n > TSP_EXACT_MAX:
        raise SizeError(f"tsp_exact supports 3 <= n <= {TSP_EXACT_MAX}, got {n}")
    dist = _distances(ps.points)
    m = n - 1  # nodes 1..n-1, anchored at node 0
    sub = np.ascontiguousarray(dist[1:, 1:])
    first_leg = dist[0, 1:]
    full = 1 << m
    dp = np.empty((m, full))
    dp.fill(np.inf)
    nodes = np.arange(m)
    dp[nodes, 1 << nodes] = first_leg
    flat_dp = dp.reshape(-1)
    for slot, prev, end in _held_karp_layers(m):
        cand = dp.take(prev, axis=1)
        cand += sub.take(end, axis=1)
        flat_dp[slot] = np.minimum.reduce(cand, axis=0)
    j = int((dp[:, full - 1] + first_leg).argmin())
    order = [j + 1]
    mask = full - 1
    while mask != 1 << j:  # a singleton is the first leg
        mask ^= 1 << j
        j = int((dp[:, mask] + sub[:, j]).argmin())
        order.append(j + 1)
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
        width = int(at.max()) + 1
        pred = np.full((new.size, width), full)
        pred[row, at] = new[row] ^ bits[col]
        pair = np.zeros((new.size, width), dtype=int)
        pair[row, at] = first[col] * n + second[col]
        rows = np.arange(new.size) * width
        layers.append(_frozen(new, pred, pair, pred.ravel(), rows))
    return tuple(layers)


def matching_exact(ps):
    """Minimum-weight perfect matching of a point set by bitmask DP.

    Every step pairs the lowest unmatched point.  One vectorized step per
    popcount layer computes dp[subset] as the minimum over its candidate last
    pairs of dp[predecessor] + dist[i, j], with the candidates ordered by
    predecessor subset so that ``ndarray.argmin`` keeps the smallest
    predecessor among equal costs, and records that predecessor; the matching
    is read back from the full subset.  The value is recomputed from the
    witness pairs, a perfect matching by construction, as ``matching_length``
    would.

    The index tables depend only on n; they are built on the first call for
    that n and cached, frozen, for later calls (about 0.3 MiB at
    n = MATCHING_MAX = 16).
    """
    n = _point_set(ps).n
    if n % 2 != 0 or n < 2 or n > MATCHING_MAX:
        raise SizeError(
            f"matching_exact supports even 2 <= n <= {MATCHING_MAX}, got {n}"
        )
    pair_dist = _distances(ps.points).reshape(-1)
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
    differences as ``_distances`` does, so the sum is the same as the
    minimum over each row of the dense matrix, in O(n log n) time and O(n)
    memory.  ``scipy.spatial`` is imported on the first call, so importing
    this module does not load it.
    """
    from scipy.spatial import cKDTree

    if _point_set(ps).n < 2:
        raise SizeError(f"nn_sum needs n >= 2, got {ps.n}")
    dist = cKDTree(ps.points).query(ps.points, k=2)[0]
    return FunctionalValue(float(dist[:, 1].sum()), None)


def scaling_coupling(ps, alpha, r, kind, density):
    """Global scaling coupling: every coordinate shrinks by 1/(1 + eps).

    Returns (base value, scaled value, tv_bound), with eps = alpha / sqrt(n).
    For ``tsp-exact`` and ``matching-exact`` the points are solved once: the
    scaled value is the length of the base witness on the shrunk points.  The
    certificate stays rigorous.  Write L'(s) for the length of witness s on
    the shrunk points, X for the base optimum and Y = min_s L'(s) for the
    shrunk one.  Then Y' = L'(s_X) >= Y, so the certified gap X - Y' is at
    most |X - Y|, and {X - Y' <= delta} contains {|X - Y| <= delta}: the
    closeness indicator can only be conservative.  In exact arithmetic every
    tour and matching scales by 1/(1 + eps), so s_X is optimal on the shrunk
    points and Y' = Y.  ``nn_sum`` has no witness and is called once per set.

    The scaled value must agree with the homogeneity identity
    value / (1+eps)^r to 1e-9 max(1, |value / (1+eps)^r|), relative above 1
    and absolute below; disagreement means the functional is not homogeneous
    of degree r.  The TV bound depends only on (eps, rho, number of
    coordinates), so it is built once per such triple and kept in a 64-entry
    cache; the affinity rho is looked up on every call.
    """
    if kind not in ("tsp-exact", "matching-exact", "nn-sum"):
        raise DomainError(f"unknown functional kind {kind!r}")
    checked_density(density, "density")
    n = _point_set(ps).n
    if n < 2:
        raise SizeError(f"scaling_coupling needs n >= 2 points, got {n}")
    r = real(r, "degree r", 0)
    eps = real(real(alpha, "alpha") / math.sqrt(n), "alpha / sqrt(n)", 0, 0.5, "[)")
    shrunk = ps.scaled(1.0 / (1.0 + eps))
    if kind == "tsp-exact":
        base = tsp_exact(ps)
        rescaled = FunctionalValue(tour_length(shrunk, base.witness), base.witness)
    elif kind == "matching-exact":
        base = matching_exact(ps)
        rescaled = FunctionalValue(matching_length(shrunk, base.witness), base.witness)
    else:
        base, rescaled = nn_sum(ps), nn_sum(shrunk)
    identity_value = base.value / (1.0 + eps) ** r
    tol = 1e-9 * max(1.0, abs(identity_value))
    if not abs(rescaled.value - identity_value) <= tol:  # NaN fails it too
        raise InternalConsistencyError(
            f"{kind} is not homogeneous of degree {r}: identity gives "
            f"{identity_value!r}, the shrunk points give {rescaled.value!r}"
        )
    rho = scaled_affinity(density, eps).rho
    return base, rescaled, _scale_tv(eps, rho, n * ps.dim)


@lru_cache(maxsize=64)
def _scale_tv(eps, rho, coords):
    """TV bound of shrinking ``coords`` coordinates by 1/(1 + eps) at affinity rho.

    It is the same for every replicate of a model, so it is built once.
    """
    plan = PerturbationPlan("scale", np.full(coords, eps), np.full(coords, rho))
    return product_tv_bound(plan)


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


class _RegionGrid:
    """Cell list over m centers in [0, 1)^2 that answers "within ``radius``?".

    The square is cut into g x g cells of side 1/g >= cutoff = radius *
    (1 + 1e-9), with g at most 4 sqrt(m), and a point in [0, 1)^2 lies in
    cell (floor(x g), floor(y g)).  For each cell the table lists the
    centers of its 3 x 3 block of cells, one empty border cell padding the
    square, so the lists hold 9m entries and the count and start tables
    (g + 2)^2 <= (4 sqrt(m) + 2)^2 each: O(m) memory whatever the radius.
    """

    __slots__ = ("radius", "_g", "_w", "_count", "_first", "_block")

    def __init__(self, centers, radius):
        self.radius = radius
        cutoff = radius * (1.0 + 1e-9)
        cap = int(4.0 * math.sqrt(len(centers)))
        # cutoff < 1 (the radius is at most 8^(-1/2)), so g >= 1; a cutoff
        # below 1/cap, zero included, takes the cap
        self._g = cap if cutoff * cap < 1.0 else int(1.0 / cutoff)
        w = self._w = self._g + 2
        # a center in cell c belongs to the blocks of the cells c + (-1..1)^2,
        # keyed by their padded index c + (w + 1) + (-1..1) w + (-1..1)
        steps = np.array([0, 1, 2, w, w + 1, w + 2, 2 * w, 2 * w + 1, 2 * w + 2])
        keys = (self._cells(centers)[:, None] + steps).ravel()
        self._block = centers[np.argsort(keys, kind="stable") // 9]
        count = np.bincount(keys, minlength=w * w)
        first = np.cumsum(count) - count
        # indexed by the unpadded key of a point's own cell
        self._count, self._first = count[w + 1 :], first[w + 1 :]

    def _cells(self, points):
        cell = (points * self._g).astype(np.intp)  # floor: the points are >= 0
        return cell[:, 0] * self._w + cell[:, 1]

    def distances(self, points):
        """Distances from each point to every center of its 3 x 3 block.

        Returns (d, owner): one entry per (point, block center) pair, grouped
        by point, with d = ``sqrt(dx*dx + dy*dy)`` and owner the point's row.
        """
        cell = self._cells(points)
        count = self._count[cell]
        bounds = np.zeros(len(points) + 1, dtype=np.intp)
        np.cumsum(count, out=bounds[1:])
        total = bounds[-1]
        # pair j belongs to the number of points i >= 1 with bounds[i] <= j
        owner = np.cumsum(np.bincount(bounds[1:-1], minlength=total)[:total])
        at = (self._first[cell] - bounds[:-1]).take(owner)
        at += np.arange(total)
        diff = points.take(owner, axis=0)
        diff -= self._block.take(at, axis=0)
        diff *= diff
        d = diff[:, 0] + diff[:, 1]
        return np.sqrt(d, out=d), owner

    def contains(self, points):
        """Whether each point lies within ``radius`` of some center."""
        d, owner = self.distances(points)
        inside = np.zeros(len(points), dtype=bool)
        inside[owner.compress(d <= self.radius)] = True
        return inside


def rhee_coupling_sample(n, alpha, beta, rng, probes=100000):
    """One draw of the resampling coupling on the unit square (d = 2).

    The first m = n//2 points are shared.  D is the set of square points
    within radius = alpha * n^(-1/2) of those m points; each later point is
    replaced, with probability beta * n^(-1/2), by a uniform draw from D
    obtained by rejection sampling in batches of 256 candidates.

    Membership in D is read from a cell list over the m shared points
    (``_RegionGrid``), built once per draw and used for the probe volume
    estimate and for every batch.  A point is in D when the distance
    ``sqrt(dx*dx + dy*dy)`` to some center of its 3 x 3 block of cells is
    ``<= radius``.  The block holds every center that can pass.  The cell
    side 1/g is at least cutoff = radius * (1 + 1e-9), up to one rounding of
    ``1/cutoff``, so a point and a center that pass lie less than
    (1 - 1e-9 + a few ulps) cells apart on each axis.  ``floor(x * g)`` sees
    each coordinate through one rounding of x * g, off by at most g ulps of
    1, which stays far inside the 1e-9 margin for any g below 10^6; so the
    two cells are at most one apart.  When the cap g <= 4 sqrt(m) binds, the
    cells are wider still.  The tables take O(m) memory however small the
    radius, so a tiny region is rejected without building a table of
    1/radius^2 cells.  Uniform centers put about 9m/g^2 of them in a block
    (near 4.5 alpha^2 for a large g, 9/16 under the cap, never more than m),
    so a batch of k points costs O(k) expected time and memory.

    The draws are those of the k-d tree queries that the cell list replaced.
    Each distance is the floating-point expression the tree evaluates, the
    nearest center of a point in D always lies in its block, and the stream
    is read in the same order and amounts.  So the booleans, the volume
    estimate, each accepted candidate and the words consumed are unchanged.
    """
    n = whole(n, "n", 8)
    probes = whole(probes, "probes")
    alpha = real(alpha, "alpha", 0, 1)
    theta = real(real(beta, "beta") / math.sqrt(n), "beta / sqrt(n)", 0, 1, "[)")
    m = n // 2
    radius = alpha * n ** (-1.0 / 2.0)  # alpha * n^(-1/d) with d = 2

    x = uniform_open(rng, (n, 2))
    region = _RegionGrid(x[:m], radius)

    vol_hat = float(region.contains(uniform_open(rng, (probes, 2))).mean())
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
            ok = region.contains(cand)
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
