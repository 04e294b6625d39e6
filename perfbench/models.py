"""One adapter per model: the paper's coupling pipeline from public functions.

Each factory returns a ``Model``.  ``draw(rep, tr)`` samples replicate
``rep`` from ``seed_stream(seed, rep, coord)``, solves the base and the
perturbed instance and returns the certified gap, a lower bound on |X - Y|.
``tv_bound(draws)`` is the analytic TV bound and ``check(draw)`` runs the
independent oracles on one replicate.  Every ``flucert`` function is looked up
on its module at call time, so the traced run sees it wrapped.  When the
library API changes, the adapter of the model that changed is the one place
to edit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from flucert import (
    assignment,
    coupling,
    densities,
    euclidean,
    fpp,
    random_matrix,
    rng,
    spin_glass,
)

CONFIDENCE = 0.95


@dataclass(frozen=True)
class Draw:
    """One replicate: certified gap, proof inequalities, and the oracle inputs."""

    gap: float
    proofs: tuple  # (name, holds) pairs checked on every replicate
    payload: tuple


@dataclass(frozen=True)
class Model:
    name: str
    n: int
    replicates: int  # 0 for a TV-only entry, which gets no certificate
    delta: float
    draw: Optional[Callable]
    tv_bound: Callable
    check: Optional[Callable]
    variates_per_replicate: int  # computed from the sizes, for rng.draws
    sizes: dict


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _gauss():
    return densities.standard_density("std-gaussian")


def _expo():
    return densities.standard_density("exponential-rate-1")


def _scale_plan_tv(density, eps, coords):
    rho = densities.scaled_affinity(density, eps).rho
    plan = coupling.PerturbationPlan(
        "scale", np.full(coords, eps), np.full(coords, rho)
    )
    return coupling.product_tv_bound(plan)


def _tv_only(name, n, tv_bound, sizes):
    return Model(name, n, 0, 0.0, None, tv_bound, None, 0, sizes)


# -- spin glass ------------------------------------------------------------


def _einsum_energies(dis):
    """Batch-matrix enumeration with no incremental updates."""
    n = dis.n
    mat = dis.coupling_matrix()
    configs = np.arange(1 << n)[:, None]
    spins = 1.0 - 2.0 * ((configs >> np.arange(n)) & 1)
    return 0.5 * np.einsum("ci,ij,cj->c", spins, mat, spins) / math.sqrt(n)


def _max_abs_diff(a, b):
    return float(np.max(np.abs(a - b)))


def sk(seed, coord, n, replicates, delta, alpha=1.0, beta=1.0):
    """Free energy under the disorder scaling; gap = Jensen lower bound."""
    gauss = _gauss()
    pairs = n * (n - 1) // 2

    def draw(rep, tr):
        with tr.stage("sample"):
            stream = rng.seed_stream(seed, rep, coord)
            couplings = densities.sample_iid(gauss, pairs, stream)
            dis = spin_glass.SKDisorder(n, couplings)
        with tr.stage("base_solve"):
            energies = spin_glass.enumerate_energies(dis)
        with tr.stage("perturbed_solve"):
            scaled = spin_glass.scale_disorder(dis, alpha)
            scaled_energies = spin_glass.enumerate_energies(scaled)
            _lhs, rhs, holds = spin_glass.jensen_gap_check(
                dis, alpha, beta, energies, scaled_energies
            )
        payload = (dis, scaled, energies, scaled_energies)
        return Draw(max(rhs, 0.0), (("jensen", holds),), payload)

    def tv_bound(draws):
        # couplings are multiplied by 1/(1 - alpha/n), i.e. divided by 1 + eps
        return _scale_plan_tv(gauss, -alpha / n, pairs)

    def check(d):
        dis, scaled, energies, scaled_energies = d.payload
        return [
            (
                "enumerate_energies~einsum",
                _max_abs_diff(energies, _einsum_energies(dis)) <= 1e-9,
            ),
            (
                "enumerate_energies~einsum(scaled)",
                _max_abs_diff(scaled_energies, _einsum_energies(scaled)) <= 1e-9,
            ),
        ]

    sizes = {"n": n, "alpha": alpha, "beta": beta}
    return Model("sk", n, replicates, delta, draw, tv_bound, check, pairs, sizes)


# -- Euclidean functionals -------------------------------------------------

_SOLVER_KEY = {
    "tsp-exact": "euclidean.tsp_exact",
    "matching-exact": "euclidean.matching_exact",
}


def euclidean_scaling(seed, coord, kind, n, replicates, delta, alpha=1.0):
    """Global scaling coupling of i.i.d. Gaussian points; gap = L - L'."""
    gauss = _gauss()
    eps = alpha / math.sqrt(n)
    length = {
        "tsp-exact": euclidean.tour_length,
        "matching-exact": euclidean.matching_length,
    }[kind]

    def draw(rep, tr):
        with tr.stage("sample"):
            stream = rng.seed_stream(seed, rep, coord)
            points = densities.sample_iid(gauss, 2 * n, stream).reshape(n, 2)
            ps = euclidean.PointSet(2, points)
        with tr.stage("base_solve", split=(_SOLVER_KEY[kind], "perturbed_solve")):
            base, rescaled, tv = euclidean.scaling_coupling(ps, alpha, 1, kind, gauss)
        return Draw(base.value - rescaled.value, (), (ps, base, rescaled, tv))

    def tv_bound(draws):
        return _scale_plan_tv(gauss, eps, 2 * n)

    def check(d):
        ps, base, rescaled, tv = d.payload
        shrunk = ps.scaled(1.0 / (1.0 + eps))
        return [
            (f"{kind} witness length", length(ps, base.witness) == base.value),
            (
                f"{kind} witness length(scaled)",
                length(shrunk, rescaled.witness) == rescaled.value,
            ),
            ("scaling_coupling tv", tv == tv_bound([])),
        ]

    sizes = {"n": n, "alpha": alpha, "kind": kind}
    return Model(kind, n, replicates, delta, draw, tv_bound, check, 2 * n, sizes)


def _kdtree_nn_sum(points):
    dist, _ = cKDTree(points).query(points, k=2)
    return float(dist[:, 1].sum())


def rhee_nn(seed, coord, n, replicates, delta, alpha=0.5, beta=1.0, probes=20000):
    """Resampling coupling on the unit square; gap = |NN-sum - NN-sum'|."""
    theta = beta / math.sqrt(n)
    m = n // 2

    def draw(rep, tr):
        with tr.stage("sample"):
            stream = rng.seed_stream(seed, rep, coord)
            ps, ps_prime, cpl = euclidean.rhee_coupling_sample(
                n, alpha, beta, stream, probes=probes
            )
        tr.observe("euclidean.rhee.vol_D_estimate", cpl.vol_D_estimate)
        with tr.stage("base_solve"):
            value = euclidean.nn_sum(ps).value
        with tr.stage("perturbed_solve"):
            value_prime = euclidean.nn_sum(ps_prime).value
        payload = (ps, ps_prime, cpl, value, value_prime)
        return Draw(abs(value - value_prime), (), payload)

    def tv_bound(draws):
        rho = min(
            euclidean.rhee_conservative_affinity(d.payload[2], theta) for d in draws
        )
        plan = coupling.PerturbationPlan(
            "mixing", np.full(n - m, theta), np.full(n - m, rho)
        )
        return coupling.product_tv_bound(plan)

    def check(d):
        ps, ps_prime, _cpl, value, value_prime = d.payload
        return [
            ("nn_sum~kdtree", _close(value, _kdtree_nn_sum(ps.points))),
            (
                "nn_sum~kdtree(perturbed)",
                _close(value_prime, _kdtree_nn_sum(ps_prime.points)),
            ),
        ]

    # 2n point coordinates and 2 per probe, plus one uniform per later point;
    # the rejection sampler's draws depend on the data and are not counted
    variates = 2 * n + 2 * probes + (n - m)
    sizes = {"n": n, "alpha": alpha, "beta": beta, "probes": probes}
    return Model(
        "rhee-nn-sum", n, replicates, delta, draw, tv_bound, check, variates, sizes
    )


def euclidean_scale_tv(n, alpha=1.0):
    """TV of the Euclidean scale plan at eps = alpha / sqrt(n), 2n coordinates."""
    gauss = _gauss()
    eps = alpha / math.sqrt(n)

    def tv_bound(draws):
        return _scale_plan_tv(gauss, eps, 2 * n)

    return _tv_only("euclidean-scale-tv", n, tv_bound, {"n": n, "alpha": alpha})


# -- assignment ------------------------------------------------------------


def _lsa_cost(a):
    rows, cols = linear_sum_assignment(a)
    return float(a[rows, cols].sum())


def assignment_gap(seed, coord, n, replicates, delta, alpha=1.0):
    """Cost deformation coupling; gap = GapCertificate.lower_bound."""
    expo = _expo()

    def draw(rep, tr):
        with tr.stage("sample"):
            stream = rng.seed_stream(seed, rep, coord)
            costs = densities.sample_iid(expo, n * n, stream).reshape(n, n)
            cm = assignment.CostMatrix(n, costs)
        with tr.stage("base_solve", split=("assignment.hungarian", "perturbed_solve")):
            cert = assignment.gap_certificate(cm, alpha)
        return Draw(cert.lower_bound, (("gap_certificate", cert.holds),), (cm, cert))

    def tv_bound(draws):
        rho = assignment.perturbation_affinity(expo, alpha, n).rho
        coords = n * n
        plan = coupling.PerturbationPlan(
            "nonlinear", np.full(coords, alpha / n), np.full(coords, rho)
        )
        return coupling.product_tv_bound(plan)

    def check(d):
        cm, cert = d.payload
        perturbed = assignment.perturb_costs(cm, alpha)
        return [
            (
                "hungarian~linear_sum_assignment",
                _close(cert.cost, _lsa_cost(cm.entries)),
            ),
            (
                "hungarian~linear_sum_assignment(perturbed)",
                _close(cert.cost_perturbed, _lsa_cost(perturbed.entries)),
            ),
        ]

    sizes = {"n": n, "alpha": alpha}
    return Model(
        "assignment", n, replicates, delta, draw, tv_bound, check, n * n, sizes
    )


def assignment_tv(n, alpha=1.0):
    """Deformation affinity and the big-row probability; TV over n^2 costs."""
    expo = _expo()

    def tv_bound(draws):
        rho = assignment.perturbation_affinity(expo, alpha, n).rho
        assignment.row_tail_probability(expo, n)
        # n^2 equal affinities: a plan would need n^2-long arrays
        return coupling.tv_upper_from_affinity(rho ** (n * n))

    return _tv_only("assignment-tv", n, tv_bound, {"n": n, "alpha": alpha})


# -- first-passage percolation ---------------------------------------------


def _fpp_skeleton(side):
    """Unit-weight box with the source and target mid-way up opposite sides."""
    return fpp.FppGrid(
        side,
        side,
        np.ones((side - 1, side)),
        np.ones((side, side - 1)),
        (0, side // 2),
        (side - 1, side // 2),
    )


def _csgraph_passage_time(grid):
    w, h = grid.width, grid.height
    ids = np.arange(w * h).reshape(w, h)
    rows = np.concatenate([ids[:-1, :].ravel(), ids[:, :-1].ravel()])
    cols = np.concatenate([ids[1:, :].ravel(), ids[:, 1:].ravel()])
    weights = np.concatenate([grid.h_weights.ravel(), grid.v_weights.ravel()])
    graph = coo_matrix((weights, (rows, cols)), shape=(w * h, w * h)).tocsr()
    dist = dijkstra(graph, directed=False, indices=ids[grid.source])
    return float(dist[ids[grid.target]])


def fpp_graded(seed, coord, side, replicates, delta, alpha=1.0):
    """Distance-graded schedule on a side x side box; gap = ttq_lower_bound."""
    expo = _expo()
    skeleton = _fpp_skeleton(side)
    sched = fpp.graded_schedule(skeleton, alpha, side)
    n_h = (side - 1) * side

    def draw(rep, tr):
        with tr.stage("sample"):
            stream = rng.seed_stream(seed, rep, coord)
            w = densities.sample_iid(expo, 2 * n_h, stream)
            grid = fpp.FppGrid(
                side,
                side,
                w[:n_h].reshape(side - 1, side),
                w[n_h:].reshape(side, side - 1),
                skeleton.source,
                skeleton.target,
            )
        with tr.stage("base_solve"):
            geo = fpp.passage_time(grid)
        with tr.stage("perturbed_solve"):
            perturbed = fpp.perturb(grid, sched)
            geo_prime = fpp.passage_time(perturbed)
            gap = fpp.ttq_lower_bound(geo, sched, len(geo.edge_list))
        t, t_prime = geo.passage_time, geo_prime.passage_time
        holds = gap <= t - t_prime + 1e-9 * t
        return Draw(gap, (("ttq<=T-T'", holds),), (grid, perturbed, geo, geo_prime))

    def tv_bound(draws):
        return fpp.schedule_tv_bound(sched, expo)[1]

    def check(d):
        grid, perturbed, geo, geo_prime = d.payload
        return [
            (
                "passage_time~dijkstra",
                _close(geo.passage_time, _csgraph_passage_time(grid)),
            ),
            (
                "passage_time~dijkstra(perturbed)",
                _close(geo_prime.passage_time, _csgraph_passage_time(perturbed)),
            ),
            (
                "geodesic weight sum",
                _close(float(geo.edge_weights.sum()), geo.passage_time),
            ),
        ]

    sizes = {"side": side, "alpha": alpha, "schedule_n": side}
    return Model(
        "fpp", side, replicates, delta, draw, tv_bound, check, 2 * n_h, sizes
    )


def fpp_schedule_tv(n, alpha=1.0):
    """Graded schedule on a ceil(sqrt n)-sided box: one quadrature per distance."""
    expo = _expo()
    side = max(3, math.isqrt(n - 1) + 1)
    sched = fpp.graded_schedule(_fpp_skeleton(side), alpha, n)

    def tv_bound(draws):
        return fpp.schedule_tv_bound(sched, expo)[1]

    sizes = {"n": n, "alpha": alpha, "side": side}
    return _tv_only("fpp-schedule-tv", n, tv_bound, sizes)


# -- random matrices -------------------------------------------------------


def _slogdet(spec, inputs):
    sign, value = np.linalg.slogdet(random_matrix.build(spec, inputs))
    return float(value) if sign != 0 else -math.inf


def covariance_shift(seed, coord, p, samples, replicates, delta, alpha=1.0):
    """Sample covariance under input shrinking; gap = the exact log-det shift."""
    gauss = _gauss()
    spec = random_matrix.covariance_spec(p, samples)
    eps = alpha / math.sqrt(spec.n_inputs)

    def draw(rep, tr):
        with tr.stage("sample"):
            stream = rng.seed_stream(seed, rep, coord)
            inputs = densities.sample_iid(gauss, spec.n_inputs, stream)
        with tr.stage("base_solve", split=("random_matrix.build", "perturbed_solve")):
            base, scaled, shift, exact = random_matrix.scaling_shift_check(
                spec, inputs, alpha
            )
        return Draw(shift, (("shift exact", exact),), (inputs, base, scaled))

    def tv_bound(draws):
        return _scale_plan_tv(gauss, eps, spec.n_inputs)

    def check(d):
        inputs, base, scaled = d.payload
        return [
            ("log_abs_det~slogdet", _close(base, _slogdet(spec, inputs))),
            (
                "log_abs_det~slogdet(scaled)",
                _close(scaled, _slogdet(spec, inputs / (1.0 + eps))),
            ),
        ]

    sizes = {"p": p, "samples": samples, "alpha": alpha}
    return Model(
        "covariance", p, replicates, delta, draw, tv_bound, check, spec.n_inputs, sizes
    )


# -- Bernoulli mixing ------------------------------------------------------


def bernoulli(seed, coord, n, replicates, delta, alpha=1.0):
    """Bernoulli mixing coupling of S = sum X; gap = S' - S, TV exact."""

    def draw(rep, tr):
        with tr.stage("sample"):
            stream = rng.seed_stream(seed, rep, coord)
            x, x_prime = coupling.bernoulli_mixing_coupling(n, alpha, stream)
        with tr.stage("base_solve"):
            total = int(x.sum())
        with tr.stage("perturbed_solve"):
            gap = int(x_prime.sum()) - total
        return Draw(float(gap), (), (x, x_prime, gap))

    def tv_bound(draws):
        return coupling.bernoulli_exact_tv(n, alpha / math.sqrt(n))

    def check(d):
        x, x_prime, gap = d.payload
        return [
            ("mixing is upward", bool(np.all(x_prime >= x))),
            ("gap counts forced flips", gap == int(np.count_nonzero(x_prime != x))),
        ]

    sizes = {"n": n, "alpha": alpha}
    return Model("bernoulli", n, replicates, delta, draw, tv_bound, check, 2 * n, sizes)
