"""The benchmark's certificates at tiny scale, pinned to stored values.

Builds the three ``perfbench`` workloads at ``"tiny"`` scale for seeds 1-3,
runs one untimed certificate pass of each and compares every certificate
record with ``data/certificates_tiny.json``.  Strings and ints must be equal;
floats must agree to a relative 1e-12, which leaves room for an ulp of
difference in SciPy's ``ndtri`` or the C math library between versions and no
more.  One checked pass of each workload at full scale, seeds 1-3, must
raise no failure and fail no oracle check; so the witness checks at n = 10
and 12, the re-solve of the shrunk covariance at p = 160, and the sweep's
Rhee point sets up to n = 400 and FPP boxes of side 81 run here too.

To rewrite the stored values (only where a certificate is meant to change):

    PYTHONPATH=src python tests/test_certificates_pinned.py --write
"""

import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
for _path in (os.path.join(ROOT, "src"), BENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "certificates_tiny.json")
SEEDS = (1, 2, 3)
REL_TOL = 1e-12


def _records():
    out = []
    for name in workloads.WORKLOAD_NAMES:
        for seed in SEEDS:
            workload = workloads.build(name, seed, "tiny")
            result = harness.run_pass(workload, tracer.NullTracer())
            assert not result.failures, result.failures
            for record in result.certificates:
                out.append({"workload": name, "seed": seed, **record})
    return out


def _same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=REL_TOL)
        )
    return type(a) is type(b) and a == b


@pytest.fixture(scope="module")
def computed():
    return _records()


def test_record_count(computed):
    with open(PINNED) as fh:
        pinned = json.load(fh)
    assert len(computed) == len(pinned) == 45


def test_certificates_match_pinned(computed):
    with open(PINNED) as fh:
        pinned = json.load(fh)
    for got, want in zip(computed, pinned):
        where = (want["workload"], want["seed"], want["model"], want["n"])
        assert set(got) == set(want), where
        for key, value in want.items():
            assert _same(got[key], value), (where, key, got[key], value)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["enum-exact", "poly-solvers", "scaling-sweep"])
def test_full_scale_pass_passes_its_checks(name, seed):
    # tiny scale stops at n = 6 and p = 6; full scale solves TSP at n = 10 and
    # matching at n = 12, where the benchmark checks each witness length with
    # ==, re-solves the shrunk covariance at p = 160 against the shift, and
    # builds the sweep's full-size Rhee point sets and FPP boxes
    workload = workloads.build(name, seed)
    result = harness.run_pass(workload, tracer.NullTracer(), check=True)
    assert not result.failures, result.failures
    assert result.checks
    assert [c for c in result.checks if not c[3]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.makedirs(os.path.dirname(PINNED), exist_ok=True)
    with open(PINNED, "w") as fh:
        json.dump(_records(), fh, indent=1)
        fh.write("\n")
