"""Certificate passes, timing, output checks and the run's metrics.

A certificate pass runs every model of a workload once: its replicate loop
(sample, base solve, perturbed solve, certified gap), then the analytic TV
bound and ``coupling.certify``.  Passes repeat on the same seed, so every
pass must reproduce the same certificates bit for bit.  The oracle checks run
in one extra pass after the timed ones, outside every timed region.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy

from flucert import coupling, densities
from flucert.errors import CertToolError

import models
import tracer as tracing

#: name -> unit, in the order the result line prints them
END_TO_END = {
    "cert_wall_s": "s",
    "replicates_per_s": "1/s",
    "replicate_p50_ms": "ms",
    "replicate_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {}
for _key in tracing.LAYER_KEYS:
    PER_LAYER[f"{_key}.calls"] = "count"
    PER_LAYER[f"{_key}.busy_s"] = "s"
PER_LAYER.update(
    {
        "spin_glass.configs_per_s": "1/s",
        "euclidean.rhee.vol_D_estimate": "ratio",
        "densities.scaled_affinity.cache_hits": "count",
        "densities.scaled_affinity.cache_misses": "count",
        "densities.quad_error_max": "abs",
        "rng.draws": "count",
        **{f"stage.{s}.self_s": "s" for s in tracing.STAGES},
        "trace.cert_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.unstaged_s": "s",
        "checks.count": "count",
        "checks.violations": "count",
    }
)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
MIN_PASSES = 3
MIN_PASSES_TRACED = 4  # alternating, so at least two traced and two untraced

#: the unwrapped lru-cached function, whatever the traced run binds in its place
_SCALED_AFFINITY = densities.scaled_affinity


@dataclass
class PassResult:
    wall_s: float = 0.0
    rep_times: list = field(default_factory=list)  # one per replicate, in pass order
    tail_times: list = field(default_factory=list)  # TV bound + certify, one per model
    certificates: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)  # (model, rep, reason)
    checks: list = field(default_factory=list)  # (model, rep, name, ok)
    cache_hits: int = 0
    cache_misses: int = 0
    variates: int = 0


def _certificate_record(model, cert, tv, draws):
    if cert is None:
        return {"model": model.name, "n": model.n, "tv_bound": tv}
    return {
        "model": model.name,
        "n": model.n,
        "replicates": len(draws),
        "delta": cert.delta,
        "confidence": cert.confidence,
        "p_close_hat": cert.p_close_hat,
        "p_close_slack": cert.p_close_slack,
        "tv_bound": cert.tv_bound,
        "bound": cert.bound,
        "var_lower_bound": (1.0 - cert.bound) * cert.delta**2 / 4.0,
        "gap_mean": float(np.mean([d.gap for d in draws])),
    }


def run_pass(workload, tr, check=False):
    """One certificate pass; with ``check`` the oracles run after each replicate."""
    res = PassResult()
    _SCALED_AFFINITY.cache_clear()
    t_pass = perf_counter()
    for model in workload.models:
        draws = []
        for rep in range(model.replicates):
            tr.replicate = f"{model.name}/{model.n}/{rep}"
            t0 = perf_counter()
            try:
                d = model.draw(rep, tr)
            except CertToolError as exc:
                d = None
                res.failures.append((model.name, rep, f"{type(exc).__name__}: {exc}"))
            res.rep_times.append(perf_counter() - t0)
            if d is None:
                continue
            results = list(d.proofs)
            if check:
                try:
                    results += model.check(d)
                except CertToolError as exc:
                    results.append((f"oracle raised {type(exc).__name__}", False))
                res.checks += [(model.name, rep, nm, bool(ok)) for nm, ok in results]
            broken = [name for name, ok in results if not ok]
            if broken:
                reason = "check failed: " + ", ".join(broken)
                res.failures.append((model.name, rep, reason))
            else:
                draws.append(d)
        res.attempted += model.replicates
        res.variates += model.replicates * model.variates_per_replicate
        tr.replicate = None
        if model.replicates and not draws:  # every replicate failed
            res.tail_times.append(0.0)
            res.certificates.append({"model": model.name, "n": model.n})
            continue
        t_tail = perf_counter()
        with tr.stage("tv_bound"):
            tv = model.tv_bound(draws)
        cert = None
        if model.replicates:
            with tr.stage("certify"):
                close = np.array([d.gap <= model.delta for d in draws])
                cert = coupling.certify(close, tv, models.CONFIDENCE, model.delta)
        res.tail_times.append(perf_counter() - t_tail)
        res.certificates.append(_certificate_record(model, cert, tv, draws))
    res.wall_s = perf_counter() - t_pass
    info = _SCALED_AFFINITY.cache_info()
    res.cache_hits, res.cache_misses = info.hits, info.misses
    return res


def tail_percentile(count):
    """Highest listed percentile with at least ten samples beyond it (the
    median when there are too few samples for any)."""
    fitting = [p for p in TAIL_PERCENTILES if count * (100.0 - p) / 100.0 >= 10.0]
    return fitting[-1] if fitting else TAIL_PERCENTILES[0]


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measurement:
    metrics: dict
    certificates: list
    attempted: int
    failed: int
    correct: bool
    details: dict
    spans: list


def measure(workload, seconds, trace, setup_s=None):
    """Warm-up pass, timed passes for ``seconds``, then the check pass."""
    run_pass(workload, tracing.NullTracer())
    tracer = tracing.Tracer() if trace else None
    untraced, traced = [], []
    t_start = perf_counter()
    min_passes = MIN_PASSES_TRACED if trace else MIN_PASSES
    k = 0
    while k < min_passes or perf_counter() - t_start < seconds:
        if trace and k % 2 == 1:
            tracer.keep_spans = not traced
            with tracer.installed():
                traced.append(run_pass(workload, tracer))
        else:
            untraced.append(run_pass(workload, tracing.NullTracer()))
        k += 1
    peak = peak_rss_mb()
    checked = run_pass(workload, tracing.NullTracer(), check=True)

    reference = checked.certificates
    timed = untraced + traced
    mismatched = sum(p.certificates != reference for p in timed)
    attempted = checked.attempted + sum(p.attempted for p in timed)
    failed = len(checked.failures) + sum(len(p.failures) for p in timed)
    violations = sum(not ok for *_, ok in checked.checks)
    correct = failed == 0 and violations == 0 and mismatched == 0

    # Every pass repeats the same work, so each replicate and each TV/certify
    # step is taken at its fastest repetition: contention from other tenants
    # of the machine only ever adds time.
    best_reps = np.min([p.rep_times for p in untraced], axis=0)
    best_tails = np.min([p.tail_times for p in untraced], axis=0)
    pct = tail_percentile(best_reps.size)
    details = {
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "pass_walls_s": [p.wall_s for p in untraced],
        "pass_wall_median_s": statistics.median(p.wall_s for p in untraced),
        "replicate_samples": int(best_reps.size),
        "replicate_tail_percentile": pct,
        "replicate_tail_beyond": int(best_reps.size * (100.0 - pct) / 100.0),
        "fail_frac": failed / attempted,
        "failures": [list(f) for p in [checked, *timed] for f in p.failures],
        "passes_mismatching_certificates": mismatched,
        "checks": {"count": len(checked.checks), "violations": violations},
        "check_violations": [list(c) for c in checked.checks if not c[-1]],
    }
    if trace:
        metrics = _per_layer(workload, tracer, traced, untraced, checked)
    else:
        metrics = {
            "cert_wall_s": float(best_reps.sum() + best_tails.sum()),
            "replicates_per_s": best_reps.size / float(best_reps.sum()),
            "replicate_p50_ms": 1e3 * float(np.median(best_reps)),
            "replicate_tail_ms": 1e3 * float(np.percentile(best_reps, pct)),
            "peak_rss_mb": peak,
            "setup_s": setup_s,
        }
    return Measurement(
        metrics=metrics,
        certificates=reference,
        attempted=attempted,
        failed=failed,
        correct=correct,
        details=details,
        spans=tracer.spans if trace else [],
    )


def _per_layer(workload, tracer, traced, untraced, checked):
    """Per-pass averages of the traced passes' counters."""
    k = len(traced)
    out = {}
    for key in tracing.LAYER_KEYS:
        out[f"{key}.calls"] = tracer.calls[key] / k
        out[f"{key}.busy_s"] = tracer.busy_s[key] / k
    enum_key = "spin_glass.enumerate_energies"
    spins = [m.n for m in workload.models if m.name == "sk"]
    busy = tracer.busy_s[enum_key]
    configs = 2 ** spins[0] * tracer.calls[enum_key] if spins else 0
    out["spin_glass.configs_per_s"] = configs / busy if busy else 0.0
    vols = tracer.observed["euclidean.rhee.vol_D_estimate"]
    out["euclidean.rhee.vol_D_estimate"] = float(np.mean(vols)) if vols else 0.0
    cache = "densities.scaled_affinity"
    out[f"{cache}.cache_hits"] = statistics.mean(p.cache_hits for p in traced)
    out[f"{cache}.cache_misses"] = statistics.mean(p.cache_misses for p in traced)
    out["densities.quad_error_max"] = tracer.quad_error_max
    out["rng.draws"] = traced[0].variates
    for stage in tracing.STAGES:
        out[f"stage.{stage}.self_s"] = tracer.stage_self_s[stage] / k
    # traced and untraced passes alternate, so their means see the same machine
    traced_wall = statistics.mean(p.wall_s for p in traced)
    out["trace.cert_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.mean(p.wall_s for p in untraced)
    staged = sum(out[f"stage.{s}.self_s"] for s in tracing.STAGES)
    out["trace.unstaged_s"] = traced_wall - staged
    out["checks.count"] = len(checked.checks)
    out["checks.violations"] = sum(not ok for *_, ok in checked.checks)
    return out


def environment(root):
    """Versions, BLAS backend, thread settings and the source revision."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            )
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
    }
