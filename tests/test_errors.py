"""Every size, count and index enters through ``errors.whole``, every scalar
real parameter through ``errors.real``, and every float array through
``errors.reals``.

One table lists each entry point that takes a count, as a call of the count
alone, with a value it accepts and an integer just outside its range.  Each
entry must reject a non-integral, boolean or out-of-range count with a
``DomainError`` that names the argument, and accept NumPy integers.  A second
table does the same for the real parameters: each entry must reject a bool, a
str, None, an array, NaN and a value outside its interval with a
``DomainError`` that names the argument, and accept Python and NumPy numbers.
A third table lists the entry points that take a float array, with an array
each accepts.  Each must reject one NaN or infinite entry, and a bool,
complex, str, object, None or ragged input, with a ``DomainError`` that names
the argument; reject an array with an extra axis with a ``ShapeError`` that
names it; and accept nested lists of ints.

The interval each entry type passes to ``reals`` is its overflow bound.  A
table of the six bounded types (points, couplings, energies, covariance
inputs, FPP weights, costs) builds each at its stated bound and solves it
with warnings as errors, and one ulp above the bound expects a
``DomainError`` naming the array.  Inputs that once overflowed downstream
(with a warning, an inf result or an error one call deeper) must be rejected
at entry the same way, as must covariance inputs whose squares overflow.

A fourth table lists every argument that must be of a library type (a
``PointSet``, a ``Density1D``, a cost matrix, a grid, a schedule, a
geodesic, a disorder, a covariance spec, a plan, a Rhee coupling), through
``errors.typed``.  Each must reject None, a number, a str, an array, a nested
list, a dict, a tuple of the accepted value's fields and a duck with the same
attributes, with a ``DomainError`` that names the argument, the type it needs
and the type it got.
"""

import math
import re
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from flucert import assignment, coupling, densities, euclidean, fpp, random_matrix
from flucert import rng, spin_glass
from flucert.errors import SAFE_SUM, DomainError, ShapeError, real, reals, whole

EXPO = densities.standard_density("exponential-rate-1")
GAUSS = densities.standard_density("std-gaussian")


def grid(width=3, height=3, source=(0, 0), target=(2, 2), side=3):
    """A unit-weight grid whose weight shapes come from ``side``, not the sizes."""
    h, v = np.ones((side - 1, side)), np.ones((side, side - 1))
    return fpp.FppGrid(width, height, h, v, source, target)


BOX = grid(4, 4, (0, 0), (3, 3), side=4)
GEODESIC = fpp.passage_time(BOX)  # 6 edges
SCHEDULE = fpp.graded_schedule(BOX, 0.5, 12)

# (id, name in the message, call of the count, accepted value, out-of-range value)
ENTRIES = [
    ("seed_stream seed", "seed", lambda k: rng.seed_stream(k), 3, 2**64),
    ("seed_stream replicate", "replicate", lambda k: rng.seed_stream(1, k), 3, 2**32),
    (
        "seed_stream coordinate",
        "coordinate",
        lambda k: rng.seed_stream(1, 0, k),
        3,
        2**32,
    ),
    (
        "bernoulli_mixing_coupling",
        "n",
        lambda k: coupling.bernoulli_mixing_coupling(k, 0.5, rng.seed_stream(1)),
        3,
        0,
    ),
    ("bernoulli_exact_tv", "n", lambda k: coupling.bernoulli_exact_tv(k, 0.1), 3, 0),
    (
        "hoeffding_slack",
        "indicator count",
        lambda k: coupling.hoeffding_slack(k, 0.9),
        3,
        0,
    ),
    (
        "sample_iid",
        "n",
        lambda k: densities.sample_iid(EXPO, k, rng.seed_stream(1)),
        3,
        0,
    ),
    (
        "rhee_coupling_sample n",
        "n",
        lambda k: euclidean.rhee_coupling_sample(
            k, 0.3, 0.5, rng.seed_stream(1), probes=500
        ),
        8,
        7,
    ),
    (
        "rhee_coupling_sample probes",
        "probes",
        lambda k: euclidean.rhee_coupling_sample(
            12, 0.3, 0.5, rng.seed_stream(1), probes=k
        ),
        500,
        0,
    ),
    ("graded_schedule", "n", lambda k: fpp.graded_schedule(grid(), 0.5, k), 12, 4),
    (
        "ttq_lower_bound",
        "m",
        lambda k: fpp.ttq_lower_bound(GEODESIC, SCHEDULE, k),
        3,
        7,
    ),
    ("SKDisorder", "n", lambda k: spin_glass.SKDisorder(k, np.zeros(3)), 3, 0),
    ("CostMatrix", "n", lambda k: assignment.CostMatrix(k, np.ones((3, 3))), 3, 0),
    ("FppGrid width", "width", lambda k: grid(width=k), 3, 1),
    ("FppGrid height", "height", lambda k: grid(height=k), 3, 1),
    ("FppGrid source x", "source x", lambda k: grid(source=(k, 0)), 1, 3),
    ("FppGrid source y", "source y", lambda k: grid(source=(0, k)), 1, -1),
    ("FppGrid target x", "target x", lambda k: grid(target=(k, 2)), 1, -1),
    ("FppGrid target y", "target y", lambda k: grid(target=(2, k)), 1, 3),
    ("PointSet", "dim", lambda k: euclidean.PointSet(k, np.zeros((2, 3))), 3, 0),
    (
        "MatrixEnsembleSpec order",
        "order",
        lambda k: random_matrix.covariance_spec(k, 8),
        3,
        0,
    ),
    (
        "MatrixEnsembleSpec sample_count",
        "sample_count",
        lambda k: random_matrix.covariance_spec(1, k),
        3,
        -1,
    ),
    (
        "invert_perturbation",
        "n",
        lambda k: assignment.invert_perturbation(0.5, 1.0, k),
        3,
        0,
    ),
    (
        "perturbation_affinity",
        "n",
        lambda k: assignment.perturbation_affinity(EXPO, 0.1, k),
        3,
        0,
    ),
    (
        "row_tail_probability",
        "n",
        lambda k: assignment.row_tail_probability(EXPO, k),
        3,
        0,
    ),
]

BAD_KINDS = {
    "fraction": lambda good, out: 2.5,
    "whole float": lambda good, out: 4.0,
    "bool": lambda good, out: True,
    "nan": lambda good, out: math.nan,
    "inf": lambda good, out: math.inf,
    "str": lambda good, out: "3",
    "numpy float": lambda good, out: np.float64(good),
    "out of range": lambda good, out: out,
}

ENTRY_IDS = [entry[0] for entry in ENTRIES]


@pytest.mark.parametrize("kind", list(BAD_KINDS))
@pytest.mark.parametrize("entry, name, call, good, out", ENTRIES, ids=ENTRY_IDS)
def test_bad_count_rejected_at_entry(entry, name, call, good, out, kind):
    with pytest.raises(DomainError, match=f"need a whole {name} "):
        call(BAD_KINDS[kind](good, out))


@pytest.mark.parametrize("to_numpy", [np.int64, np.uint64])
@pytest.mark.parametrize("entry, name, call, good, out", ENTRIES, ids=ENTRY_IDS)
def test_numpy_integers_accepted(entry, name, call, good, out, to_numpy):
    call(to_numpy(good))


COVARIANCE = random_matrix.covariance_spec(2, 4)
COVARIANCE_INPUTS = np.arange(1.0, 9.0) ** 2 / 8  # a full-rank covariance
POINTS = euclidean.PointSet(2, rng.uniform_open(rng.seed_stream(1), (16, 2)))
SIX_POINTS = euclidean.PointSet(2, POINTS.points[:6])
COSTS = assignment.CostMatrix(3, np.arange(1.0, 10.0).reshape(3, 3) / 10)
DISORDER = spin_glass.SKDisorder(3, np.array([0.5, -1.0, 2.0]))
ENERGIES = spin_glass.enumerate_energies(DISORDER)
CERTIFICATE = dict(
    delta=1, p_close_hat=0.5, p_close_slack=0, tv_bound=1, confidence=0.9
)


def certificate(field, value):
    return coupling.CouplingCertificate(**{**CERTIFICATE, field: value})


def jensen(alpha=1, beta=1):
    return spin_glass.jensen_gap_check(DISORDER, alpha, beta, ENERGIES, ENERGIES)


def rhee(alpha=0.3, beta=1):
    return euclidean.rhee_coupling_sample(16, alpha, beta, rng.seed_stream(1), 500)


# (id, name the message starts with, call of the real, accepted value, value
# outside the interval); a whole accepted value is tried as an int too, but
# (0, 1) holds no integer
REALS = [
    ("tv_upper_from_affinity", "rho", coupling.tv_upper_from_affinity, 1, 1.5),
    (
        "bernoulli_mixing_coupling",
        "alpha",
        lambda x: coupling.bernoulli_mixing_coupling(4, x, rng.seed_stream(1)),
        1,
        2,
    ),
    ("bernoulli_exact_tv", "eps", lambda x: coupling.bernoulli_exact_tv(4, x), 0, 1),
    (
        "hoeffding_slack",
        "confidence",
        lambda x: coupling.hoeffding_slack(10, x),
        0.9,
        1,
    ),
    *[
        (f"CouplingCertificate {field}", field, partial(certificate, field), good, out)
        for field, good, out in [
            ("delta", 1, -1),
            ("p_close_hat", 1, 2),
            ("p_close_slack", 0, -1),
            ("tv_bound", 1, 2),
            ("confidence", 0.9, 0),
        ]
    ],
    ("certify delta", "delta", lambda x: coupling.certify([1, 0], 1, 0.9, x), 1, -1),
    ("certify tv_bound", "tv_bound", lambda x: coupling.certify([1, 0], x, 0.9), 1, 2),
    (
        "certify confidence",
        "confidence",
        lambda x: coupling.certify([1, 0], 1, x),
        0.9,
        1,
    ),
    ("scaled_affinity", "eps", lambda x: densities.scaled_affinity(GAUSS, x), 0, 0.5),
    ("AffinityResult rho", "rho", lambda x: densities.AffinityResult(x, 0), 1, 2),
    (
        "AffinityResult quadrature_error_estimate",
        "quadrature_error_estimate",
        lambda x: densities.AffinityResult(1, x),
        0,
        -1,
    ),
    (
        "scaling_coupling alpha",
        "alpha",
        lambda x: euclidean.scaling_coupling(SIX_POINTS, x, 1, "tsp-exact", GAUSS),
        1,
        2,
    ),
    (
        "scaling_coupling r",
        "degree r",
        lambda x: euclidean.scaling_coupling(SIX_POINTS, 1, x, "tsp-exact", GAUSS),
        1,
        0,
    ),
    ("PointSet.scaled", "factor", POINTS.scaled, 2, math.inf),
    (
        "rhee_mixture_affinity vol",
        "vol",
        lambda x: euclidean.rhee_mixture_affinity(x, 0.5),
        1,
        0,
    ),
    (
        "rhee_mixture_affinity theta",
        "theta",
        lambda x: euclidean.rhee_mixture_affinity(0.5, x),
        0,
        1,
    ),
    ("rhee_coupling_sample alpha", "alpha", lambda x: rhee(alpha=x), 0.3, 1),
    ("rhee_coupling_sample beta", "beta", lambda x: rhee(beta=x), 1, 4),
    (
        "graded_schedule",
        "alpha",
        lambda x: fpp.graded_schedule(grid(), x, 10**6),
        1,
        2,
    ),
    (
        "invert_perturbation",
        "alpha",
        lambda x: assignment.invert_perturbation(0.5, x, 4),
        1,
        -1,
    ),
    (
        "perturbation_affinity",
        "alpha",
        lambda x: assignment.perturbation_affinity(EXPO, x, 4),
        1,
        2,
    ),
    (
        "gap_certificate",
        "alpha",
        lambda x: assignment.gap_certificate(COSTS, x),
        1,
        -1,
    ),
    (
        "result_from_energies",
        "beta",
        lambda x: spin_glass.result_from_energies(ENERGIES, x),
        1,
        -1,
    ),
    (
        "scale_disorder",
        "alpha",
        lambda x: spin_glass.scale_disorder(DISORDER, x),
        1,
        2,
    ),
    ("jensen_gap_check alpha", "alpha", lambda x: jensen(alpha=x), 1, 2),
    ("jensen_gap_check beta", "beta", lambda x: jensen(beta=x), 1, -1),
    (
        "scaling_shift_check",
        "alpha",
        lambda x: random_matrix.scaling_shift_check(COVARIANCE, COVARIANCE_INPUTS, x),
        1,
        2,
    ),
]

BAD_REALS = {
    "bool": lambda out: True,
    "numpy bool": lambda out: np.True_,
    "str": lambda out: "0.5",
    "none": lambda out: None,
    "array": lambda out: np.array([0.5]),
    "nan": lambda out: math.nan,
    "out of range": lambda out: out,
}

#: ``scaled_affinity`` stays an ``lru_cache``, whose cache info the benchmark
#: reads.  The cache hashes the arguments before the function runs, so an
#: unhashable array, list, dict or namespace raises ``TypeError`` there, not
#: ``DomainError``.
UNHASHABLE = {
    ("scaled_affinity", kind) for kind in ("array", "nested list", "dict", "duck")
}

REAL_IDS = [entry[0] for entry in REALS]


@pytest.mark.parametrize("kind", list(BAD_REALS))
@pytest.mark.parametrize("entry, name, call, good, out", REALS, ids=REAL_IDS)
def test_bad_real_rejected_at_entry(entry, name, call, good, out, kind):
    if (entry, kind) in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            call(BAD_REALS[kind](out))
        return
    with pytest.raises(DomainError, match=f"^need a real {re.escape(name)} "):
        call(BAD_REALS[kind](out))


ACCEPTED_REALS = [
    pytest.param(call, convert(good), id=f"{entry}-{convert.__name__}")
    for entry, _name, call, good, _out in REALS
    for convert in (np.float64, int, np.int64)
    if convert is np.float64 or float(good).is_integer()
]


@pytest.mark.parametrize("call, value", ACCEPTED_REALS)
def test_python_and_numpy_reals_accepted(call, value):
    call(value)


MATRIX = np.array([[3.25, 1.0], [2.25, 7.0]])

# (id, name the message starts with, call of the array, an array it accepts)
ARRAYS = [
    (
        "PerturbationPlan eps",
        "eps",
        lambda a: coupling.PerturbationPlan("mixing", a, np.full(3, 0.9)),
        np.array([0.1, -0.2, 0.3]),
    ),
    (
        "PerturbationPlan rho",
        "rho",
        lambda a: coupling.PerturbationPlan("mixing", np.zeros(3), a),
        np.array([0.0, 0.9, 1.0]),
    ),
    ("PointSet", "points", lambda a: euclidean.PointSet(2, a), POINTS.points),
    ("CostMatrix", "costs", lambda a: assignment.CostMatrix(3, a), COSTS.entries),
    (
        "invert_perturbation",
        "perturbed costs",
        lambda a: assignment.invert_perturbation(a, 1.0, 4),
        np.array([0.0, 0.2, 2.0]),
    ),
    (
        "FppGrid h_weights",
        "h_weights",
        lambda a: fpp.FppGrid(3, 3, a, np.ones((3, 2)), (0, 0), (2, 2)),
        np.arange(1.0, 7.0).reshape(2, 3),
    ),
    (
        "FppGrid v_weights",
        "v_weights",
        lambda a: fpp.FppGrid(3, 3, np.ones((2, 3)), a, (0, 0), (2, 2)),
        np.arange(1.0, 7.0).reshape(3, 2),
    ),
    (
        "EpsSchedule h_values",
        "h_values",
        lambda a: fpp.EpsSchedule(a, np.full((4, 2), 0.1)),
        np.array([[0.0, 0.1, 0.2]] * 3),
    ),
    (
        "EpsSchedule v_values",
        "v_values",
        lambda a: fpp.EpsSchedule(np.full((3, 3), 0.1), a),
        np.array([[0.0, 0.3]] * 4),
    ),
    (
        "build covariance",
        "inputs",
        lambda a: random_matrix.build(COVARIANCE, a),
        COVARIANCE_INPUTS,
    ),
    (
        "scaling_shift_check",
        "inputs",
        lambda a: random_matrix.scaling_shift_check(COVARIANCE, a, 1.0),
        COVARIANCE_INPUTS,
    ),
    ("log_abs_det", "matrix", random_matrix.log_abs_det, MATRIX),
    (
        "SKDisorder",
        "couplings",
        lambda a: spin_glass.SKDisorder(3, a),
        DISORDER.couplings,
    ),
    (
        "result_from_energies",
        "energies",
        lambda a: spin_glass.result_from_energies(a, 1.0),
        ENERGIES,
    ),
    (
        "jensen_gap_check",
        "energies",
        lambda a: spin_glass.jensen_gap_check(DISORDER, 1, 1, ENERGIES, a),
        ENERGIES,
    ),
]

ARRAY_IDS = [entry[0] for entry in ARRAYS]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry, name, call, good", ARRAYS, ids=ARRAY_IDS)
def test_non_finite_array_rejected_at_entry(entry, name, call, good, bad):
    values = good.copy()
    call(values)
    values.flat[values.size // 2] = bad
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        call(values)


# (id, call of the covariance inputs) for every path into the covariance product
COVARIANCE_PATHS = [
    ("build", lambda a: random_matrix.build(COVARIANCE, a)),
    (
        "log_abs_det of build",
        lambda a: random_matrix.log_abs_det(random_matrix.build(COVARIANCE, a)),
    ),
    (
        "scaling_shift_check",
        lambda a: random_matrix.scaling_shift_check(COVARIANCE, a, 1.0),
    ),
]


@pytest.mark.parametrize(
    "entry, call", COVARIANCE_PATHS, ids=[entry[0] for entry in COVARIANCE_PATHS]
)
def test_overflowing_covariance_rejected_at_entry(entry, call):
    # finite inputs of 1e160 overflow the product; the error must name them,
    # not the "matrix" one call deeper, and come before any numpy warning
    call(1e150 * COVARIANCE_INPUTS)
    with pytest.raises(DomainError, match=r"^inputs must be finite reals in \[-"):
        call(1e160 * COVARIANCE_INPUTS)


def finite(*values):
    assert all(math.isfinite(v) for v in values), values


def solve_points(x):
    ps = euclidean.PointSet(2, x * np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]]))
    solvers = (euclidean.tsp_exact, euclidean.matching_exact, euclidean.nn_sum)
    finite(*(solve(ps).value for solve in solvers))


def solve_disorder(x):
    signs = np.where(np.arange(66) % 3, 1.0, -1.0)
    energies = spin_glass.enumerate_energies(spin_glass.SKDisorder(12, x * signs))
    result = spin_glass.result_from_energies(energies, 1.0)
    finite(result.free_energy, result.gibbs_energy)


def solve_energies(beta):
    def solve(x):
        result = spin_glass.result_from_energies(x * np.array([1, -1, 1, 1]), beta)
        finite(result.free_energy, result.gibbs_energy)

    return solve


def jensen_at(n, x, beta):
    """``jensen_gap_check`` at alpha = 0 on n spins with every coupling x."""
    dis = spin_glass.SKDisorder(n, np.full(n * (n - 1) // 2, x))
    energies = spin_glass.enumerate_energies(dis)
    lhs, rhs, _holds = spin_glass.jensen_gap_check(dis, 0.0, beta, energies, energies)
    finite(lhs, rhs)


def solve_covariance(x):
    inputs = x * COVARIANCE_INPUTS / COVARIANCE_INPUTS.max()
    finite(random_matrix.log_abs_det(random_matrix.build(COVARIANCE, inputs)))


def solve_grid(x):
    h, v = np.full((2, 3), x), np.full((3, 2), x)
    finite(fpp.passage_time(fpp.FppGrid(3, 3, h, v, (0, 0), (2, 2))).passage_time)


def solve_costs(x):
    costs = x * np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    finite(assignment.hungarian(assignment.CostMatrix(3, costs)).cost)


# (id, name the message starts with, call that builds the entry type from
# entries of size x and solves it, the bound its docstring states)
BOUNDS = [
    ("PointSet", "points", solve_points, 0.5 * math.sqrt(SAFE_SUM / 2)),
    ("SKDisorder", "couplings", solve_disorder, SAFE_SUM / (2 * 66)),
    ("result_from_energies beta 2", "energies", solve_energies(2.0), SAFE_SUM / 4),
    ("result_from_energies beta 0", "energies", solve_energies(0.0), SAFE_SUM),
    ("build", "inputs", solve_covariance, math.sqrt(SAFE_SUM / (4 * 8))),
    ("FppGrid", "h_weights", solve_grid, SAFE_SUM / 12),
    ("CostMatrix", "costs", solve_costs, SAFE_SUM / (4 * 3)),
    # at alpha = 0 and above beta = sqrt(n) / 2, jensen_gap_check cuts the
    # SKDisorder bound by sqrt(n) / (2 beta)
    (
        "jensen_gap_check beta 3",
        "couplings",
        partial(jensen_at, 3, beta=3.0),
        SAFE_SUM / (4 * 3 * 3) * math.sqrt(3),
    ),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "entry, name, call, bound", BOUNDS, ids=[entry[0] for entry in BOUNDS]
)
def test_array_at_its_overflow_bound_solves(entry, name, call, bound):
    call(bound)
    with pytest.raises(DomainError, match=f"^{name} must be finite reals in "):
        call(math.nextafter(bound, math.inf))


HEAVY = fpp.FppGrid(4, 4, np.full((3, 4), 1e10), np.full((4, 3), 1e10), (0, 0), (3, 3))

# (id, name the message starts with, call) for finite inputs whose sums
# overflowed downstream before their entry type bounded them
OVERFLOWS = [
    # ttq_lower_bound warned in eps * w: a strength must stay below 1/2
    (
        "FPP schedule",
        "h_values",
        lambda: fpp.ttq_lower_bound(
            fpp.passage_time(HEAVY),
            fpp.EpsSchedule(np.full((3, 4), 1e300), np.full((4, 3), 1e300)),
            6,
        ),
    ),
    # couplings at the SKDisorder bound passed jensen_gap_check's entry, and
    # result_from_energies refused their energies at beta = 3 by the table's name
    *[
        (f"SK couplings at beta 3, n = {n}", "couplings", partial(jensen_at, n, x, 3))
        for n, x in ((2, SAFE_SUM / 2), (3, SAFE_SUM / 6))
    ],
    # enumerate_energies warned in matmul and returned inf and NaN energies
    (
        "SK couplings",
        "couplings",
        lambda: spin_glass.enumerate_energies(
            spin_glass.SKDisorder(12, np.full(66, 1e307))
        ),
    ),
    # hungarian warned in its sum and returned cost = inf
    (
        "assignment costs",
        "costs",
        lambda: assignment.hungarian(assignment.CostMatrix(3, np.full((3, 3), 1e308))),
    ),
    # beta E passed, then beta E - top warned in the subtraction
    (
        "beta E spread",
        "energies",
        lambda: spin_glass.result_from_energies(np.array([1e308, -1e308]), 1.0),
    ),
    # Dijkstra left the target at distance inf, raised after the solve
    (
        "FPP path sums",
        "h_weights",
        lambda: fpp.passage_time(
            fpp.FppGrid(3, 3, np.full((2, 3), 1e308), np.ones((3, 2)), (0, 0), (2, 2))
        ),
    ),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "entry, name, call", OVERFLOWS, ids=[entry[0] for entry in OVERFLOWS]
)
def test_overflow_rejected_at_entry(entry, name, call):
    with pytest.raises(DomainError, match=f"^{name} must be finite reals in "):
        call()


BAD_ARRAYS = {
    "bool": lambda good: good > 0,
    "complex": lambda good: good + 0j,
    "str": lambda good: good.astype(str),
    "object": lambda good: good.astype(object),
    "none": lambda good: None,
    "ragged": lambda good: [good.tolist(), 0.0],
}


@pytest.mark.parametrize("kind", list(BAD_ARRAYS))
@pytest.mark.parametrize("entry, name, call, good", ARRAYS, ids=ARRAY_IDS)
def test_non_real_array_rejected_at_entry(entry, name, call, good, kind):
    with pytest.raises(DomainError, match=f"^{name} must be finite reals, "):
        call(BAD_ARRAYS[kind](good))


#: ``invert_perturbation`` maps costs of any shape, a scalar too
SHAPED = [entry for entry in ARRAYS if entry[0] != "invert_perturbation"]


@pytest.mark.parametrize(
    "entry, name, call, good", SHAPED, ids=[entry[0] for entry in SHAPED]
)
def test_misshapen_array_rejected_at_entry(entry, name, call, good):
    with pytest.raises(ShapeError, match=f"^{name} must have shape "):
        call(good[..., None])


@pytest.mark.parametrize("entry, name, call, good", ARRAYS, ids=ARRAY_IDS)
def test_nested_lists_of_ints_accepted(entry, name, call, good):
    call(np.rint(good).astype(int).tolist())


PLAN = coupling.PerturbationPlan("mixing", np.zeros(3), np.full(3, 0.9))
RHEE = rhee()[2]

# (id, name the message starts with, type it needs, call of the argument, a
# value it accepts) for every argument that an entry reads as a library type
TYPED = [
    ("tsp_exact", "ps", euclidean.PointSet, euclidean.tsp_exact, SIX_POINTS),
    ("matching_exact", "ps", euclidean.PointSet, euclidean.matching_exact, SIX_POINTS),
    ("nn_sum", "ps", euclidean.PointSet, euclidean.nn_sum, SIX_POINTS),
    (
        "tour_length",
        "ps",
        euclidean.PointSet,
        lambda ps: euclidean.tour_length(ps, range(6)),
        SIX_POINTS,
    ),
    (
        "matching_length",
        "ps",
        euclidean.PointSet,
        lambda ps: euclidean.matching_length(ps, [(0, 1), (2, 3), (4, 5)]),
        SIX_POINTS,
    ),
    (
        "scaling_coupling ps",
        "ps",
        euclidean.PointSet,
        lambda ps: euclidean.scaling_coupling(ps, 1.0, 1, "tsp-exact", GAUSS),
        SIX_POINTS,
    ),
    (
        "scaling_coupling density",
        "density",
        densities.Density1D,
        lambda f: euclidean.scaling_coupling(SIX_POINTS, 1.0, 1, "tsp-exact", f),
        GAUSS,
    ),
    (
        "rhee_conservative_affinity",
        "coupling",
        euclidean.RheeCoupling,
        lambda c: euclidean.rhee_conservative_affinity(c, 0.5),
        RHEE,
    ),
    (
        "sample_iid",
        "f",
        densities.Density1D,
        lambda f: densities.sample_iid(f, 3, rng.seed_stream(1)),
        GAUSS,
    ),
    (
        "scaled_affinity",
        "f",
        densities.Density1D,
        lambda f: densities.scaled_affinity(f, 0.1),
        GAUSS,
    ),
    (
        "perturbation_affinity",
        "f",
        densities.Density1D,
        lambda f: assignment.perturbation_affinity(f, 0.1, 4),
        EXPO,
    ),
    (
        "row_tail_probability",
        "f",
        densities.Density1D,
        lambda f: assignment.row_tail_probability(f, 4),
        EXPO,
    ),
    ("hungarian", "cm", assignment.CostMatrix, assignment.hungarian, COSTS),
    (
        "perturb_costs",
        "cm",
        assignment.CostMatrix,
        lambda cm: assignment.perturb_costs(cm, 1.0),
        COSTS,
    ),
    (
        "gap_certificate",
        "cm",
        assignment.CostMatrix,
        lambda cm: assignment.gap_certificate(cm, 1.0),
        COSTS,
    ),
    ("passage_time", "grid", fpp.FppGrid, fpp.passage_time, BOX),
    (
        "graded_schedule",
        "grid",
        fpp.FppGrid,
        lambda g: fpp.graded_schedule(g, 0.5, 12),
        BOX,
    ),
    ("perturb grid", "grid", fpp.FppGrid, lambda g: fpp.perturb(g, SCHEDULE), BOX),
    (
        "perturb sched",
        "sched",
        fpp.EpsSchedule,
        lambda s: fpp.perturb(BOX, s),
        SCHEDULE,
    ),
    (
        "ttq_lower_bound geo",
        "geo",
        fpp.GeodesicResult,
        lambda g: fpp.ttq_lower_bound(g, SCHEDULE, 3),
        GEODESIC,
    ),
    (
        "ttq_lower_bound sched",
        "sched",
        fpp.EpsSchedule,
        lambda s: fpp.ttq_lower_bound(GEODESIC, s, 3),
        SCHEDULE,
    ),
    (
        "schedule_tv_bound sched",
        "sched",
        fpp.EpsSchedule,
        lambda s: fpp.schedule_tv_bound(s, GAUSS),
        SCHEDULE,
    ),
    (
        "schedule_tv_bound density",
        "density",
        densities.Density1D,
        lambda f: fpp.schedule_tv_bound(SCHEDULE, f),
        GAUSS,
    ),
    (
        "enumerate_energies",
        "dis",
        spin_glass.SKDisorder,
        spin_glass.enumerate_energies,
        DISORDER,
    ),
    (
        "scale_disorder",
        "dis",
        spin_glass.SKDisorder,
        lambda d: spin_glass.scale_disorder(d, 1.0),
        DISORDER,
    ),
    (
        "jensen_gap_check",
        "dis",
        spin_glass.SKDisorder,
        lambda d: spin_glass.jensen_gap_check(d, 1, 1, ENERGIES, ENERGIES),
        DISORDER,
    ),
    (
        "build",
        "spec",
        random_matrix.MatrixEnsembleSpec,
        lambda spec: random_matrix.build(spec, COVARIANCE_INPUTS),
        COVARIANCE,
    ),
    (
        "scaling_shift_check",
        "spec",
        random_matrix.MatrixEnsembleSpec,
        lambda spec: random_matrix.scaling_shift_check(spec, COVARIANCE_INPUTS, 1.0),
        COVARIANCE,
    ),
    (
        "product_tv_bound",
        "plan",
        coupling.PerturbationPlan,
        coupling.product_tv_bound,
        PLAN,
    ),
]

#: one shared set of wrong values; the tuple holds the fields of the value the
#: entry accepts, and the duck has each of them as an attribute.  Before
#: ``errors.typed`` owned these arguments, most failed with ``AttributeError``
#: one call deeper.
NOT_TYPED = {
    "none": lambda good: None,
    "number": lambda good: 2.0,
    "str": lambda good: "std-gaussian",
    "array": lambda good: SIX_POINTS.points,
    "nested list": lambda good: SIX_POINTS.points.tolist(),
    "dict": lambda good: {"name": "std-gaussian", "n": 3},
    "tuple": lambda good: tuple(vars(good).values()),
    "duck": lambda good: SimpleNamespace(**vars(good)),
}


@pytest.mark.parametrize("kind", list(NOT_TYPED))
@pytest.mark.parametrize(
    "entry, name, cls, call, good", TYPED, ids=[entry[0] for entry in TYPED]
)
def test_wrong_type_rejected_at_entry(entry, name, cls, call, good, kind):
    call(good)
    bad = NOT_TYPED[kind](good)
    if (entry, kind) in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            call(bad)
        return
    message = f"{name} must be a {cls.__name__}, got {type(bad).__name__}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(bad)


class TestWhole:
    @pytest.mark.parametrize("value", [0, 7, np.int8(7), np.uint64(2**64 - 1)])
    def test_returns_a_python_int(self, value):
        n = whole(value, "k", 0, 2**64)
        assert n == value and type(n) is int

    def test_range_is_half_open(self):
        assert whole(4, "k", 4, 5) == 4
        with pytest.raises(DomainError, match=r"need a whole k in \[4, 5\), got 5"):
            whole(5, "k", 4, 5)

    def test_unbounded_message(self):
        with pytest.raises(DomainError, match=r"need a whole n >= 1, got 2\.5"):
            whole(2.5, "n")

    @pytest.mark.parametrize("value", [False, np.float64(3.0), None, [3]])
    def test_non_integers_rejected(self, value):
        with pytest.raises(DomainError):
            whole(value, "k", 0)


class TestReal:
    @pytest.mark.parametrize(
        "value", [0, 0.25, np.float32(0.5), np.int8(1), np.uint64(1), Fraction(1, 3)]
    )
    def test_returns_a_python_float(self, value):
        x = real(value, "x", 0, 1, "[]")
        assert x == float(value) and type(x) is float

    @pytest.mark.parametrize("ends", ["[]", "[)", "(]", "()"])
    def test_each_end_open_or_closed(self, ends):
        assert real(0.5, "x", 0, 1, ends) == 0.5
        for value, bracket in ((0, ends[0]), (1, ends[1])):
            if bracket in "[]":
                assert real(value, "x", 0, 1, ends) == value
            else:
                message = f"need a real x in {ends[0]}0, 1{ends[1]}, got {value}"
                with pytest.raises(DomainError, match=re.escape(message)):
                    real(value, "x", 0, 1, ends)

    def test_default_is_every_finite_real(self):
        assert real(-1e308, "x") == -1e308
        for value in (math.inf, -math.inf):
            with pytest.raises(DomainError, match=r"need a real x in \(-inf, inf\)"):
                real(value, "x")

    def test_closed_infinite_end_admits_inf(self):
        assert real(math.inf, "x", 0, math.inf, "[]") == math.inf

    def test_message_names_argument_and_interval(self):
        message = "need a real alpha in [0, 0.5), got 2.5"
        with pytest.raises(DomainError, match=re.escape(message)):
            real(2.5, "alpha", 0, 0.5, "[)")

    @pytest.mark.parametrize(
        "value",
        [
            False,
            np.bool_(False),
            "0.5",
            None,
            [0.5],
            np.array(0.5),
            np.array([0.5]),
            0.5j,
            np.float64(math.nan),
            10**400,
        ],
    )
    def test_non_reals_rejected(self, value):
        with pytest.raises(DomainError, match="need a real x "):
            real(value, "x")


class TestReals:
    @pytest.mark.parametrize(
        "value",
        [[0, 1], [[0.5, 1.0]], np.arange(3), np.float32([0.5]), np.uint8([1]), 0.25],
        ids=["int list", "nested list", "int array", "float32", "uint8", "scalar"],
    )
    def test_returns_a_float64_array(self, value):
        a = reals(value, "x", None, 0, 2, "[]")
        assert type(a) is np.ndarray and a.dtype == np.float64
        assert np.array_equal(a, np.asarray(value, dtype=float))

    def test_float64_array_returned_as_is(self):
        a = np.array([0.5, 1.5])
        assert reals(a, "x") is a

    @pytest.mark.parametrize("ends", ["[]", "[)", "(]", "()"])
    def test_each_end_open_or_closed(self, ends):
        assert reals([0.5], "x", None, 0, 1, ends).tolist() == [0.5]
        for value, bracket in ((0, ends[0]), (1, ends[1])):
            values = [0.5, value, 0.5]
            if bracket in "[]":
                assert reals(values, "x", None, 0, 1, ends).tolist() == values
            else:
                message = f"x must be finite reals in {ends[0]}0, 1{ends[1]}, "
                with pytest.raises(DomainError, match=re.escape(message)):
                    reals(values, "x", None, 0, 1, ends)

    def test_default_is_every_finite_real(self):
        assert reals([-1e308, 1e308], "x").tolist() == [-1e308, 1e308]
        for value in (math.inf, -math.inf):
            with pytest.raises(DomainError, match=r"x must be finite reals in \(-inf"):
                reals([0.0, value], "x")

    def test_closed_infinite_end_admits_inf(self):
        assert reals([math.inf], "x", None, 0, math.inf, "[]").tolist() == [math.inf]

    @pytest.mark.parametrize("row, col", [(0, 0), (1, 2), (2, 1)])
    def test_nan_anywhere_rejected(self, row, col):
        values = np.zeros((3, 3))
        values[row, col] = math.nan
        with pytest.raises(DomainError, match=r"got entries in \[nan, nan\]"):
            reals(values, "x")

    def test_message_names_argument_interval_and_range(self):
        message = "alpha must be finite reals in [0, 0.5), got entries in [0.25, 2.5]"
        with pytest.raises(DomainError, match=re.escape(message)):
            reals([0.25, 2.5], "alpha", None, 0, 0.5, "[)")

    def test_none_in_shape_admits_any_length(self):
        assert reals(np.zeros((4, 2)), "x", (None, 2)).shape == (4, 2)
        assert reals(np.zeros((4, 2)), "x", (None, None)).shape == (4, 2)
        for shape in [(None, 3), (None,), (None, 2, None), (3, 2)]:
            with pytest.raises(ShapeError, match=r"^x must have shape .* got \(4, 2\)"):
                reals(np.zeros((4, 2)), "x", shape)

    @pytest.mark.parametrize("value", [[], np.zeros((0, 2))])
    def test_empty_array_accepted(self, value):
        # an empty array has no entry outside any interval
        a = reals(value, "x", None, 0, 0, "()")
        assert a.size == 0 and a.dtype == np.float64

    @pytest.mark.parametrize(
        "value",
        [
            np.array([True, False]),
            [0.5, 0.5j],
            "0.5",
            ["0.5"],
            None,
            [None],
            [Fraction(1, 2)],
            [[0.5], [0.5, 0.5]],
            [[0.5], 0.5],
            [10**400],
        ],
    )
    def test_non_reals_rejected(self, value):
        with pytest.raises(DomainError, match="^x must be finite reals, "):
            reals(value, "x")
