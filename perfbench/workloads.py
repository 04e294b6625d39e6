"""The benchmark's workloads, at full size and at a tiny size for the tests.

Building a workload is its fixed-parameter set-up (schedules, skeleton
grids); everything random is drawn inside the timed passes from
``seed_stream(seed, rep, coord)``, with one coordinate per model entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import models

WORKLOAD_NAMES = ("enum-exact", "poly-solvers", "scaling-sweep")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    models: tuple

    def sizes(self):
        return [
            {"model": m.name, "replicates": m.replicates, "delta": m.delta, **m.sizes}
            for m in self.models
        ]


def enum_exact(seed, scale):
    sk_n, tsp_n, match_n, reps = (12, 10, 12, 14) if scale == "full" else (8, 6, 6, 2)
    return (
        models.sk(seed, 0, sk_n, reps, delta=0.5),
        models.euclidean_scaling(seed, 1, "tsp-exact", tsp_n, reps, delta=2.5),
        models.euclidean_scaling(seed, 2, "matching-exact", match_n, reps, delta=1.5),
    )


def poly_solvers(seed, scale):
    if scale == "full":
        n, side, fpp_alpha, p, samples, reps = 100, 40, 0.9, 160, 320, 24
    else:
        n, side, fpp_alpha, p, samples, reps = 12, 12, 0.5, 6, 14, 2
    return (
        models.assignment_gap(seed, 0, n, reps, delta=0.05),
        # eps at the source is alpha / sqrt(log side), which must stay below 1/2
        models.fpp_graded(seed, 1, side, reps, delta=1.0, alpha=fpp_alpha),
        models.covariance_shift(seed, 2, p, samples, reps, delta=1.0),
    )


def scaling_sweep(seed, scale):
    if scale == "full":
        ladder = (100, 200, 400, 800, 1600, 3200, 6400)
        reps, rhee_max, rhee_reps = 1000, 400, 4
    else:
        ladder = (100, 400)
        reps, rhee_max, rhee_reps = 60, 100, 2
    entries = []
    for i, n in enumerate(ladder):
        # an interval of length alpha sqrt(n) / 4 is half the mean forced-flip count
        entries.append(models.bernoulli(seed, 8 * i, n, reps, delta=0.25 * n**0.5))
        if n <= rhee_max:
            entries.append(models.rhee_nn(seed, 8 * i + 1, n, rhee_reps, delta=0.05))
        entries.append(models.euclidean_scale_tv(n))
        entries.append(models.fpp_schedule_tv(n))
        entries.append(models.assignment_tv(n))
    return tuple(entries)


_BUILDERS = {
    "enum-exact": enum_exact,
    "poly-solvers": poly_solvers,
    "scaling-sweep": scaling_sweep,
}


def build(name, seed, scale="full"):
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return Workload(name, int(seed), _BUILDERS[name](int(seed), scale))
