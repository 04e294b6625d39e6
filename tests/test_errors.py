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
names it; and accept nested lists of ints.  Covariance inputs whose squares
overflow are rejected the same way, before any product warns.  A fourth
table lists the entry points that take a ``PointSet``; each must reject
anything else, a nested list or a bare array included, with a
``DomainError`` that names the argument.
"""

import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from flucert import assignment, coupling, densities, euclidean, fpp, random_matrix
from flucert import rng, spin_glass
from flucert.errors import DomainError, ShapeError, real, reals, whole

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
        lambda x: euclidean.scaling_coupling(POINTS, x, 1, "nn-sum", GAUSS),
        1,
        2,
    ),
    (
        "scaling_coupling r",
        "degree r",
        lambda x: euclidean.scaling_coupling(POINTS, 1, x, "nn-sum", GAUSS),
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
#: unhashable array raises ``TypeError`` there instead of ``DomainError``.
UNHASHABLE = {("scaled_affinity", "array")}

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
    with pytest.raises(DomainError, match="^inputs.* overflow; rescale the inputs$"):
        call(1e160 * COVARIANCE_INPUTS)


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


SIX_POINTS = euclidean.PointSet(2, POINTS.points[:6])

# (id, call of the point set) for every entry point that takes a PointSet
POINT_SET_ENTRIES = [
    ("tsp_exact", euclidean.tsp_exact),
    ("matching_exact", euclidean.matching_exact),
    ("nn_sum", euclidean.nn_sum),
    ("tour_length", lambda ps: euclidean.tour_length(ps, range(6))),
    (
        "matching_length",
        lambda ps: euclidean.matching_length(ps, [(0, 1), (2, 3), (4, 5)]),
    ),
    (
        "scaling_coupling",
        lambda ps: euclidean.scaling_coupling(ps, 1.0, 1, "tsp-exact", GAUSS),
    ),
]

NOT_POINT_SETS = {
    # a nested list used to fail with AttributeError on .points or .n
    "nested list": SIX_POINTS.points.tolist(),
    "array": SIX_POINTS.points,
    "none": None,
    "points tuple": (2, SIX_POINTS.points),
}


@pytest.mark.parametrize("kind", list(NOT_POINT_SETS))
@pytest.mark.parametrize(
    "entry, call", POINT_SET_ENTRIES, ids=[entry[0] for entry in POINT_SET_ENTRIES]
)
def test_non_point_set_rejected_at_entry(entry, call, kind):
    call(SIX_POINTS)
    with pytest.raises(DomainError, match="^ps must be a PointSet, got "):
        call(NOT_POINT_SETS[kind])


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
