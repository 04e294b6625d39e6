"""Tests of the benchmark's own code, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for _path in (os.path.join(ROOT, "src"), BENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from flucert import assignment, densities, euclidean, fpp, rng  # noqa: E402

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_cli(tmp_path, workload, trace, seed=3):
    out = subprocess.run(
        [
            sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
            "--scale", "tiny", "--out", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT,
    )
    line = json.loads(out.stdout.strip().splitlines()[-1])
    with open(tmp_path / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        return line, json.load(fh)


def certificates(workload, seed, trace=False):
    workload = workloads.build(workload, seed, "tiny")
    return harness.measure(workload, 0.0, trace).certificates


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_every_metric_with_its_unit(tmp_path, workload, trace):
    line, record = run_cli(tmp_path, workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(np.isfinite(v["value"]) for v in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert record["fail_frac"] == 0.0
    assert record["checks"]["count"] > 0 and record["checks"]["violations"] == 0
    pinned = dict.fromkeys(harness.THREAD_VARS, "1")
    assert record["environment"]["thread_env"] == pinned


def test_end_to_end_metrics_are_positive(tmp_path):
    line, _ = run_cli(tmp_path, "poly-solvers", 0)
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_same_seed_same_certificates(workload):
    assert certificates(workload, 5) == certificates(workload, 5)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_other_seed_other_draws(workload):
    def gaps(certs):
        return [c.get("gap_mean") for c in certs]

    assert gaps(certificates(workload, 5)) != gaps(certificates(workload, 6))


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_traced_matches_untraced(workload):
    m = harness.measure(workloads.build(workload, 5, "tiny"), 0.0, True)
    assert m.correct and m.details["passes_mismatching_certificates"] == 0
    assert m.certificates == certificates(workload, 5)


def test_tracer_wraps_aliases_and_restores_them():
    original = densities.scaled_affinity
    t = tracer.Tracer()
    with t.installed():
        assert fpp.scaled_affinity is not original
        wrapped = densities.scaled_affinity
        assert fpp.scaled_affinity is wrapped and euclidean.scaled_affinity is wrapped
    for ns in (densities, fpp, euclidean):
        assert ns.scaled_affinity is original


def test_stage_split_and_nested_tv_stage():
    expo = densities.standard_density("exponential-rate-1")
    gauss = densities.standard_density("std-gaussian")
    costs = densities.sample_iid(expo, 36, rng.seed_stream(1)).reshape(6, 6)
    points = densities.sample_iid(gauss, 12, rng.seed_stream(2)).reshape(6, 2)
    cm = assignment.CostMatrix(6, costs)
    ps = euclidean.PointSet(2, points)
    t = tracer.Tracer()
    t.keep_spans = True
    with t.installed():
        with t.stage("base_solve", split=("assignment.hungarian", "perturbed_solve")):
            assignment.gap_certificate(cm, 1.0)
        with t.stage("base_solve"):
            euclidean.scaling_coupling(ps, 0.5, 1, "tsp-exact", gauss)
    assert t.calls["assignment.hungarian"] == 2
    assert t.calls["assignment.perturb_costs"] == 1
    assert t.calls["densities.scaled_affinity"] == 1
    for stage in ("base_solve", "perturbed_solve", "tv_bound"):
        assert t.stage_self_s[stage] > 0
    stages = [s for s in t.spans if s[3] == "stage"]
    assert [s[4] for s in stages].count("perturbed_solve") == 1
    by_id = {s[0]: s for s in t.spans}
    for span in t.spans:
        parent = by_id.get(span[1])
        assert parent is None or parent[5] <= span[5] <= span[6] <= parent[6]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert not out.stdout.strip()
