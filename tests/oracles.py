"""Pure-Python reference solvers, kept only to cross-check the library kernels.

Each routine is the loop that ``flucert`` used before its solver became a
SciPy/NumPy call: the potential-based Hungarian method, a heap Dijkstra with
smallest-index tie breaking, and a partial-pivoting LU log-determinant.  They
take the same inputs as the ``flucert`` solvers and return plain values.
"""

import heapq
import math

import numpy as np

#: pivots below this magnitude mark the matrix as rank deficient
PIVOT_FLOOR = 1e-300


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
