"""Counter-based random streams, reproducible per (seed, replicate, coordinate)."""

import numpy as np

from .errors import whole

_MAX_INDEX = 2**32


def seed_stream(seed, replicate=0, coordinate=0):
    """Philox generator keyed by (seed, replicate, coordinate).

    Streams for distinct (replicate, coordinate) pairs are statistically
    independent, and the same triple always reproduces the same draws
    bit-exactly.  The seed is an integer in [0, 2**64), and the replicate and
    coordinate indices are integers in [0, 2**32); anything else, a whole
    float included, raises ``DomainError``.  The 128-bit Philox key is the uint64
    pair (seed, replicate << 32 | coordinate), passed as an array: NumPy
    converts a tuple key through float64 when one word is at least 2**63 and
    the other is not, which merged distinct keys.  Every call builds a fresh
    bit generator, so streams share no state.
    """
    seed = whole(seed, "seed", 0, 2**64)
    replicate = whole(replicate, "replicate", 0, _MAX_INDEX)
    coordinate = whole(coordinate, "coordinate", 0, _MAX_INDEX)
    key = np.array((seed, (replicate << 32) | coordinate), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_open(rng, size=None):
    """Uniforms strictly inside (0, 1), one counter step per entry.

    ``rng.random`` consumes exactly one 64-bit word per double, so entry i of
    the result depends only on the stream key and the index i.  The 2**-54
    offset keeps inverse-CDF transforms away from 0 and 1.
    """
    return rng.random(size) + 2.0**-54
