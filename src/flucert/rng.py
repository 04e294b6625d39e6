"""Counter-based random streams, reproducible per (seed, replicate, coordinate)."""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError, whole

_MAX_INDEX = 2**32
#: the largest double below 1; ``uniform_open`` clamps to it
_TOP = 1.0 - 2.0**-53


class _KeyHolder(ISeedSequence):
    """Hands a fixed Philox key to ``Philox(seed=...)``.

    Philox reads its key from ``generate_state(2, np.uint64)`` of the seed
    sequence it is given.  ``Philox(key=...)`` would instead build an unused
    ``SeedSequence()`` from OS entropy first.  The holder answers only that
    one request, and it cannot spawn.
    """

    __slots__ = ("_words",)

    def __init__(self, low, high):
        self._words = (low, high)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise DomainError(
                f"a Philox key holder gives 2 uint64 words, not {n_words} of {dtype}"
            )
        return np.array(self._words, dtype=np.uint64)


def seed_stream(seed, replicate=0, coordinate=0):
    """Philox generator keyed by (seed, replicate, coordinate).

    Streams for distinct (replicate, coordinate) pairs are statistically
    independent, and the same triple always reproduces the same draws
    bit-exactly.  The seed is an integer in [0, 2**64), and the replicate and
    coordinate indices are integers in [0, 2**32); anything else, a whole
    float included, raises ``DomainError``.  The 128-bit Philox key is the uint64
    pair (seed, replicate << 32 | coordinate), passed as an array: NumPy
    converts a tuple key through float64 when one word is at least 2**63 and
    the other is not, which merged distinct keys.  A private key holder
    passes the array as the seed sequence, because ``Philox(key=...)`` would
    first build a ``SeedSequence`` from OS entropy and throw it away; that
    was more than half of the cost of a stream.  The state and the draws are
    those of ``Philox(key=...)``.  Every call builds a fresh bit generator,
    so streams share no state, and a stream cannot spawn.
    """
    seed = whole(seed, "seed", 0, 2**64)
    replicate = whole(replicate, "replicate", 0, _MAX_INDEX)
    coordinate = whole(coordinate, "coordinate", 0, _MAX_INDEX)
    key = _KeyHolder(seed, (replicate << 32) | coordinate)
    return np.random.Generator(np.random.Philox(key))


def uniform_open(rng, size=None):
    """Uniforms strictly inside (0, 1), one counter step per entry.

    ``rng.random`` consumes exactly one 64-bit word per double, so entry i of
    the result depends only on the stream key and the index i.  The 2**-54
    offset keeps inverse-CDF transforms away from 0.  Added to the largest
    draw, 1 - 2**-53, it ties and rounds to 1.0, so the sum is clamped to
    1 - 2**-53; no other draw changes.
    """
    u = rng.random(size)
    if size is None:
        return min(u + 2.0**-54, _TOP)
    u += 2.0**-54
    return np.minimum(u, _TOP, out=u)
