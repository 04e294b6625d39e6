"""Every size, count and index enters through ``errors.whole``, and no NaN or
infinite array enters at all.

One table lists each entry point that takes a count, as a call of the count
alone, with a value it accepts and an integer just outside its range.  Each
entry must reject a non-integral, boolean or out-of-range count with a
``DomainError`` that names the argument, and accept NumPy integers.  A second
table lists the entry points that take a float array; each must reject one
NaN or infinite entry with a ``DomainError`` that names the argument.
"""

import math

import numpy as np
import pytest

from flucert import assignment, coupling, densities, euclidean, fpp, random_matrix
from flucert import rng, spin_glass
from flucert.errors import DomainError, whole

EXPO = densities.standard_density("exponential-rate-1")


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
        lambda k: random_matrix.MatrixEnsembleSpec("wigner", k),
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

# (id, name in the message, call of a finite float array, length it needs)
ARRAYS = [
    (
        "build wigner",
        "inputs",
        lambda a: random_matrix.build(random_matrix.MatrixEnsembleSpec("wigner", 2), a),
        3,
    ),
    ("build covariance", "inputs", lambda a: random_matrix.build(COVARIANCE, a), 8),
    (
        "scaling_shift_check",
        "inputs",
        lambda a: random_matrix.scaling_shift_check(COVARIANCE, a, 1.0),
        8,
    ),
    (
        "log_abs_det",
        "matrix",
        lambda a: random_matrix.log_abs_det(a.reshape(2, 2) + 3.0 * np.eye(2)),
        4,
    ),
    ("SKDisorder", "couplings", lambda a: spin_glass.SKDisorder(3, a), 3),
    ("CostMatrix", "costs", lambda a: assignment.CostMatrix(2, a.reshape(2, 2)), 4),
]

ARRAY_IDS = [entry[0] for entry in ARRAYS]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry, name, call, size", ARRAYS, ids=ARRAY_IDS)
def test_non_finite_array_rejected_at_entry(entry, name, call, size, bad):
    values = np.arange(1.0, size + 1.0) ** 2 / size
    call(values)
    values[size // 2] = bad
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        call(values)


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
