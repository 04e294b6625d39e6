"""Pure-Python reference solvers, kept only to cross-check the library kernels.

Each routine is the loop that ``flucert`` used before its solver became a
SciPy/NumPy call or a vectorized kernel: the potential-based Hungarian method,
a heap Dijkstra with smallest-index tie breaking, a partial-pivoting LU
log-determinant, a Gray-code sweep over spin configurations, a per-mask
Held-Karp loop and a per-mask push loop for the minimum matching.  The
enumeration of all n! assignments backs the Hungarian checks at small n.  They
take the same inputs as the ``flucert`` solvers and return plain values.  The
two Euclidean loops take the length of their witness as the library does: each
edge by ``sqrt(square(diff).sum())``, the distance the DP minimised (no BLAS
``np.linalg.norm``), summed by ``ndarray.sum`` in witness order.

The second half keeps the earlier forms of the per-replicate hot paths, which
the current ones must match bit for bit: the dense nearest-neighbor sum, the
resampling sampler with unbounded tree queries, its region membership by
bounded tree queries, the two-draw Bernoulli coupling, the exact Bernoulli TV
summed in index order, the per-edge dict lookup of the schedule affinities,
the FPP gap summed over vertex pairs and the passage time by undirected
Dijkstra on a COO box graph built per call.

The last three are closed forms that no certificate path needs but the tests
check the library against: the Hellinger affinity of one Bernoulli coordinate
(the exact Bernoulli TV must stay below its product bound), the energy of one
spin configuration (entry by entry of ``enumerate_energies``) and the forward
cost deformation (the map that ``invert_perturbation`` inverts).

The affinities that ``flucert`` computes in closed form are checked against
adaptive quadratures of each density's potential (negative log-density): the
scale affinity, the cost-deformation affinity and the row tail.  They
integrate over the whole support: a window [0, 41] on the half line would cut
1.5e-14 off the exponential scale affinity at eps = -0.45.
"""

import heapq
import math
from itertools import permutations

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree
from scipy.special import gammaln

from flucert.errors import DomainError, ShapeError

#: pivots below this magnitude mark the matrix as rank deficient
PIVOT_FLOOR = 1e-300
#: recompute the running energy and local fields every this many flips to
#: stop floating-point drift from accumulating across the sweep
REFRESH_INTERVAL = 256


def hungarian_loop(costs):
    """Optimal assignment by the O(n^3) augmenting-path method.

    Returns (permutation, cost) with permutation[i] the column of row i.
    """
    a = np.asarray(costs, dtype=float)
    n = a.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=int)  # match[j]: row assigned to column j
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            cur = a[i0 - 1, :] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            masked = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            u[match[used]] += delta
            v[used] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = int(way[j0])
            match[j0] = match[j1]
            j0 = j1
    perm = np.empty(n, dtype=int)
    for j in range(1, n + 1):
        perm[match[j] - 1] = j - 1
    return perm, float(a[np.arange(n), perm].sum())


def brute_force_assignment(costs):
    """Optimal assignment by enumerating all n! permutations.

    Returns (permutation, cost); among equal costs the lexicographically
    first permutation wins.
    """
    a = np.asarray(costs, dtype=float)
    rows = np.arange(a.shape[0])
    best_cost = math.inf
    best_perm = None
    for perm in permutations(range(a.shape[0])):
        cost = float(a[rows, perm].sum())
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    return np.array(best_perm), best_cost


def heap_dijkstra(grid):
    """Passage time and geodesic vertex path on an ``FppGrid``.

    Ties between equal-cost predecessors go to the smaller vertex index.
    Returns (passage_time, path) or (inf, None) when the target is unreachable.
    """
    w, h = grid.width, grid.height

    def vid(x, y):
        return x * h + y

    dist = np.full(w * h, np.inf)
    pred = np.full(w * h, -1, dtype=np.int64)
    done = np.zeros(w * h, dtype=bool)
    src = vid(*grid.source)
    tgt = vid(*grid.target)
    dist[src] = 0.0
    heap = [(0.0, src)]
    hw, vw = grid.h_weights, grid.v_weights
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == tgt:
            break
        x, y = divmod(u, h)
        if x + 1 < w:
            _relax(dist, pred, heap, done, u, vid(x + 1, y), d + hw[x, y])
        if x > 0:
            _relax(dist, pred, heap, done, u, vid(x - 1, y), d + hw[x - 1, y])
        if y + 1 < h:
            _relax(dist, pred, heap, done, u, vid(x, y + 1), d + vw[x, y])
        if y > 0:
            _relax(dist, pred, heap, done, u, vid(x, y - 1), d + vw[x, y - 1])
    if not done[tgt]:
        return math.inf, None
    path = [tgt]
    while path[-1] != src:
        path.append(int(pred[path[-1]]))
    return float(dist[tgt]), tuple(divmod(u, h) for u in reversed(path))


def _relax(dist, pred, heap, done, u, v, cand):
    if done[v]:
        return
    if cand < dist[v]:
        dist[v] = cand
        pred[v] = u
        heapq.heappush(heap, (cand, v))
    elif cand == dist[v] and (pred[v] == -1 or u < pred[v]):
        pred[v] = u


def lu_log_abs_det(matrix):
    """Partial-pivoting elimination accumulating log |pivot| and the sign.

    Returns (log_abs_det, sign); a pivot below ``PIVOT_FLOOR`` gives (-inf, 0).
    """
    mat = np.array(matrix, dtype=float, copy=True)
    n = mat.shape[0]
    sign = 1
    acc = 0.0
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(mat[k:, k])))
        pivot = mat[pivot_row, k]
        if abs(pivot) < PIVOT_FLOOR:
            return -math.inf, 0
        if pivot_row != k:
            mat[[k, pivot_row]] = mat[[pivot_row, k]]
            sign = -sign
        if pivot < 0.0:
            sign = -sign
        acc += math.log(abs(pivot))
        if k + 1 < n:
            factors = mat[k + 1 :, k] / pivot
            mat[k + 1 :, k + 1 :] -= np.outer(factors, mat[k, k + 1 :])
    return acc, sign


def gray_code_energies(dis):
    """Energies of all 2^n configurations of an ``SKDisorder`` by single flips.

    Entry ``E[b]`` is the energy of the configuration whose spin j is -1
    exactly when bit j of b is set.  Each Gray-code step flips one spin and
    updates the energy from the local field in O(n).
    """
    n = dis.n
    mat = dis.coupling_matrix()
    rows = [np.ascontiguousarray(mat[k]) for k in range(n)]
    sigma = np.ones(n)
    fields = mat @ sigma
    energy = 0.5 * float(sigma @ fields)
    energies = np.empty(1 << n)
    energies[0] = energy
    code = 0
    for step in range(1, 1 << n):
        k = (step & -step).bit_length() - 1
        s_old = sigma[k]
        energy -= 2.0 * s_old * fields[k]
        sigma[k] = -s_old
        fields -= (2.0 * s_old) * rows[k]
        code ^= 1 << k
        if step % REFRESH_INTERVAL == 0:
            fields = mat @ sigma
            energy = 0.5 * float(sigma @ fields)
        energies[code] = energy
    return energies / math.sqrt(n)


def held_karp_loop(ps):
    """Optimal closed tour of a ``PointSet`` by Held-Karp, one mask at a time.

    Tours start at node 0; ties between equal-cost predecessors go to the
    smaller node.  Returns (tour length, tour order).
    """
    pts = ps.points
    n = pts.shape[0]
    dist = np.sqrt(np.square(pts[:, None, :] - pts[None, :, :]).sum(axis=2))
    m = n - 1  # nodes 1..n-1, anchored at node 0
    sub = dist[1:, 1:]
    first_leg = dist[0, 1:]
    full = 1 << m
    dp = np.full((full, m), np.inf)
    parent = np.full((full, m), -1, dtype=np.int16)
    for j in range(m):
        dp[1 << j, j] = first_leg[j]
    for mask in range(1, full):
        if mask & (mask - 1) == 0:
            continue  # singletons were seeded above
        bits = mask
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            bits ^= low
            prev = mask ^ (1 << j)
            cand = dp[prev] + sub[:, j]
            k = int(np.argmin(cand))
            dp[mask, j] = cand[k]
            parent[mask, j] = k
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
    tour = pts[order]
    seg = tour - np.roll(tour, -1, axis=0)
    return float(np.sqrt(np.square(seg).sum(axis=1)).sum()), tuple(order)


def matching_loop(ps):
    """Minimum-weight perfect matching of a ``PointSet``, one mask at a time.

    Each reachable mask pushes its cost to every mask that pairs its lowest
    free point; the first strict improvement wins.  Returns (matching
    length, pairs) with the pairs in the order the matching was built.
    """
    pts = ps.points
    n = pts.shape[0]
    dist = np.sqrt(np.square(pts[:, None, :] - pts[None, :, :]).sum(axis=2))
    dist = dist.tolist()
    full = 1 << n
    dp = [math.inf] * full
    choice = [0] * full
    dp[0] = 0.0
    for mask in range(full):
        base = dp[mask]
        if base == math.inf:
            continue
        free = ~mask & (full - 1)
        if free == 0:
            continue
        low = free & -free
        i = low.bit_length() - 1
        row = dist[i]
        rest = free ^ low
        while rest:
            jbit = rest & -rest
            j = jbit.bit_length() - 1
            rest ^= jbit
            new = mask | low | jbit
            cost = base + row[j]
            if cost < dp[new]:
                dp[new] = cost
                choice[new] = low | jbit
    pairs = []
    mask = full - 1
    while mask:
        pair = choice[mask]
        i = (pair & -pair).bit_length() - 1
        j = (pair ^ (pair & -pair)).bit_length() - 1
        pairs.append((i, j))
        mask ^= pair
    pairs.reverse()
    i, j = np.array(pairs).T
    seg = pts[i] - pts[j]
    return float(np.sqrt(np.square(seg).sum(axis=1)).sum()), tuple(pairs)


def dense_nn_sum(ps):
    """Nearest-neighbor sum of a ``PointSet`` from the dense distance matrix."""
    pts = ps.points
    dist = np.sqrt(np.square(pts[:, None, :] - pts[None, :, :]).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min(axis=1).sum())


def kdtree_region_hits(centers, points, radius):
    """Membership in the radius-``radius`` region by bounded k-d tree queries.

    The query ``rhee_coupling_sample`` ran before its cell list: the search
    stops at cutoff = radius * (1 + 1e-9), beyond which a point comes back at
    distance inf; the tree compares squared distances, so the margin keeps
    every point at distance <= radius in reach.  Returns (hits, distance to
    the nearest center, inf where none is within the cutoff).
    """
    cutoff = radius * (1.0 + 1e-9)
    dist = cKDTree(centers).query(points, k=1, distance_upper_bound=cutoff)[0]
    return dist <= radius, dist


def rhee_sample_unbounded(n, alpha, beta, rng, probes):
    """The resampling coupling draw with unbounded nearest-neighbor queries.

    Takes a valid (n, alpha, beta, probes) and the stream of
    ``rhee_coupling_sample``.  Returns (x, x_prime, resampled indices,
    volume estimate).
    """
    theta = beta / math.sqrt(n)
    m = n // 2
    radius = alpha * n ** (-1.0 / 2.0)
    x = rng.random((n, 2)) + 2.0**-54
    tree = cKDTree(x[:m])
    probe_pts = rng.random((probes, 2)) + 2.0**-54
    vol_hat = float((tree.query(probe_pts, k=1)[0] <= radius).mean())
    resampled = []
    x_prime = x.copy()
    for i in range(m, n):
        if rng.random() + 2.0**-54 >= theta:
            continue
        y = None
        while y is None:
            cand = rng.random((256, 2)) + 2.0**-54
            ok = tree.query(cand, k=1)[0] <= radius
            if ok.any():
                y = cand[int(np.argmax(ok))]
        x_prime[i] = y
        resampled.append(i)
    return x, x_prime, tuple(resampled), vol_hat


def bernoulli_two_draws(n, alpha, rng):
    """The Bernoulli mixing coupling from two separate draws of n uniforms."""
    eps = alpha / math.sqrt(n)
    base = rng.random(n) + 2.0**-54
    force = rng.random(n) + 2.0**-54
    x = (base < 0.5).astype(np.int8)
    x_prime = np.where(force < eps, np.int8(1), x)
    return x, x_prime


def bernoulli_exact_tv_in_order(n, eps):
    """Exact Bernoulli TV with its terms summed by ``fsum`` in index order."""
    if eps == 0.0:
        return 0.0
    k = np.arange(n + 1, dtype=float)
    log_choose = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    log_fair = log_choose - n * math.log(2.0)
    log_tilted = (
        log_choose
        + k * math.log((1.0 + eps) / 2.0)
        + (n - k) * math.log((1.0 - eps) / 2.0)
    )
    diffs = np.abs(np.exp(log_fair) - np.exp(log_tilted))
    return 0.5 * math.fsum(diffs.tolist())


def schedule_rhos_by_dict(eps, affinity):
    """Per-edge affinities by a dict from each distinct eps to ``affinity(eps)``."""
    rho_of = {float(e): affinity(float(e)) for e in np.unique(eps)}
    return np.array([rho_of[float(e)] for e in eps])


def ttq_by_vertex_pairs(grid, sched, path, m):
    """FPP gap over the first m edges of a vertex path, as a float loop.

    Each edge's weight and strength are read from the 2-D arrays by its
    sorted vertex pair, and the terms eps * w / (1 + eps) are added left to
    right from 0.0.
    """
    total = 0.0
    for u, v in list(zip(path[:-1], path[1:]))[:m]:
        (x1, y1), (x2, y2) = sorted((u, v))
        if (x2, y2) == (x1 + 1, y1):
            e, w = float(sched.h_values[x1, y1]), float(grid.h_weights[x1, y1])
        else:
            e, w = float(sched.v_values[x1, y1]), float(grid.v_weights[x1, y1])
        total += e * w / (1.0 + e)
    return total


def coo_passage_time(grid):
    """Passage time and flat geodesic edges of an ``FppGrid`` by SciPy's
    Dijkstra in undirected mode on a COO graph built per call.

    Each edge enters once, from its lower to its higher vertex id, in the flat
    edge layout.  Returns (passage_time, edge_list).
    """
    w, h = grid.width, grid.height
    ids = np.arange(w * h).reshape(w, h)
    rows = np.concatenate([ids[:-1, :].ravel(), ids[:, :-1].ravel()])
    cols = np.concatenate([ids[1:, :].ravel(), ids[:, 1:].ravel()])
    weights = np.concatenate([grid.h_weights.ravel(), grid.v_weights.ravel()])
    graph = csr_matrix((weights, (rows, cols)), shape=(w * h, w * h))
    src, tgt = int(ids[grid.source]), int(ids[grid.target])
    dist, pred = dijkstra(graph, directed=False, indices=src, return_predecessors=True)
    backward = [tgt]
    while backward[-1] != src:
        backward.append(int(pred[backward[-1]]))
    path = np.array(backward[::-1])
    lo = np.minimum(path[:-1], path[1:])
    vertical = np.abs(path[1:] - path[:-1]) == 1
    return float(dist[tgt]), np.where(vertical, (w - 1) * h + lo - lo // h, lo)


#: potential and lower end of the support of each built-in density
POTENTIALS = {
    "std-gaussian": (lambda x: 0.5 * x * x + 0.5 * math.log(2.0 * math.pi), -math.inf),
    "exponential-rate-1": (lambda x: x, 0.0),
}
#: a quadrature whose error estimate exceeds this is no reference
QUAD_TOL = 1e-8


def integrate(*pieces):
    """Sum of adaptive quadratures of ``(integrand, lo, hi)``, each checked."""
    total = 0.0
    for integrand, lo, hi in pieces:
        value, err = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert err <= QUAD_TOL, (lo, hi, err)
        total += value
    return total


def quad_scaled_affinity(name, eps):
    """Affinity between a built-in density f and the law of X/(1+eps), X ~ f."""
    potential, lo = POTENTIALS[name]
    s = 1.0 + eps

    def integrand(x):
        return math.sqrt(s) * math.exp(-0.5 * (potential(s * x) + potential(x)))

    return integrate((integrand, lo, math.inf))


def quad_perturbation_affinity(alpha, n):
    """Affinity between rate-1 exponential costs and their deformed law.

    The deformation x + eps d(x), eps = alpha/n, has slope 1 + eps sqrt(n)
    below 1/n and 1 + eps above; the integral is split at that breakpoint.
    """
    potential = POTENTIALS["exponential-rate-1"][0]
    eps, root_n = alpha / n, math.sqrt(n)
    slope = 1.0 + eps * root_n

    def low(x):
        return math.sqrt(slope) * math.exp(-0.5 * (potential(x * slope) + potential(x)))

    def high(x):
        shifted = x + eps * (x + 1.0 / root_n - 1.0 / n)
        return math.sqrt(1.0 + eps) * math.exp(
            -0.5 * (potential(shifted) + potential(x))
        )

    return integrate((low, 0.0, 1.0 / n), (high, 1.0 / n, math.inf))


def quad_row_tail_probability(n):
    """P(min of n i.i.d. rate-1 exponentials >= 1/n), from the upper-tail mass."""
    potential = POTENTIALS["exponential-rate-1"][0]
    return integrate((lambda x: math.exp(-potential(x)), 1.0 / n, math.inf)) ** n


def bernoulli_coordinate_affinity(eps):
    """Affinity between Bernoulli(1/2) and Bernoulli((1+eps)/2)."""
    eps = float(eps)
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must lie in [0, 1), got {eps}")
    return 0.5 * (math.sqrt(1.0 + eps) + math.sqrt(1.0 - eps))


def hamiltonian(dis, spins):
    """Energy n^(-1/2) sum_{i<j} g_ij s_i s_j of one configuration."""
    spins = np.asarray(spins, dtype=float)
    if spins.shape != (dis.n,):
        raise ShapeError(f"spin vector must have length {dis.n}")
    if not np.all(np.abs(spins) == 1.0):
        raise DomainError("spins must be +/-1")
    mat = dis.coupling_matrix()
    return 0.5 * float(spins @ mat @ spins) / math.sqrt(dis.n)


def deformation(x, n):
    """Piecewise-linear profile: sqrt(n) x below 1/n, x + n^-1/2 - n^-1 above."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):  # NaN fails it too
        raise DomainError("the deformation profile is defined on x >= 0")
    root_n = math.sqrt(n)
    out = np.where(x <= 1.0 / n, root_n * x, x + 1.0 / root_n - 1.0 / n)
    return float(out) if out.ndim == 0 else out
