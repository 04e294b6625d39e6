"""Certificate benchmark for flucert: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload enum-exact --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  The full run record (inputs, versions, thread settings, metrics,
check counts and certificates) is written under ``--out``.
"""

import os
import sys

# Pin BLAS/OpenMP threads before anything imports numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

# not imported from workloads.py: that imports flucert, and the set-up probe
# must start its clock before flucert is first imported
WORKLOAD_NAMES = ("enum-exact", "poly-solvers", "scaling-sweep")
SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument(
        "--seconds", type=float, default=25.0, help="length of the timed passes"
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the benchmark's own tests")
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench"),
                    help="directory for the run record")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(args):
    """Print the time to import flucert and build the workload's fixed parameters."""
    t0 = time.perf_counter()
    import flucert.assignment  # noqa: F401
    import flucert.euclidean  # noqa: F401
    import flucert.fpp  # noqa: F401
    import flucert.random_matrix  # noqa: F401
    import flucert.spin_glass  # noqa: F401

    imported = time.perf_counter() - t0
    import workloads  # the benchmark's own code and its oracles: not set-up

    t1 = time.perf_counter()
    workloads.build(args.workload, args.seed, args.scale)
    print(repr(imported + time.perf_counter() - t1))


def setup_times(args):
    """Set-up time of fresh processes, several times over."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def scaling_curve(measurement, seed):
    """Certified bound and implied variance bound against n, per model."""
    curves = {}
    for cert in measurement.certificates:
        point = {k: v for k, v in cert.items() if k != "model"}
        curves.setdefault(cert["model"], []).append(point)
    return {
        "workload": "scaling-sweep",
        "seed": seed,
        "variance_bound": "Var X >= (1 - bound) * delta^2 / 4",
        "curves": curves,
    }


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    try:
        import harness
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import flucert: {exc}", file=sys.stderr)
        return 2

    setup = None if args.trace else setup_times(args)
    workload = workloads.build(args.workload, args.seed, args.scale)
    m = harness.measure(
        workload, args.seconds, bool(args.trace),
        setup_s=statistics.median(setup) if setup else None,
    )
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    metrics = {
        name: {"value": m.metrics[name], "unit": unit} for name, unit in units.items()
    }

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "scale": args.scale,
        "confidence": harness.models.CONFIDENCE,
        "sizes": workload.sizes(),
        "environment": harness.environment(ROOT),
        "metrics": metrics,
        "setup_s_samples": setup,
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        **m.details,
        "certificates": m.certificates,
    }
    _write_json(stem + ".json", record)
    if args.trace:
        _write_json(stem + "-spans.json", {
            "fields": ["id", "parent", "replicate", "kind", "name", "t0", "t1"],
            "spans": m.spans,
        })
    if args.workload == "scaling-sweep":
        _write_json(os.path.join(args.out, f"scaling_curve-seed{args.seed}.json"),
                    scaling_curve(m, args.seed))

    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'fail_frac':48s} {m.details['fail_frac']:>14.6g} ratio")
    print(f"record: {stem}.json")
    result = {"correct": m.correct, "attempted": m.attempted, "failed": m.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
