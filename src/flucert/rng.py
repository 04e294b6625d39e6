"""Counter-based random streams, reproducible per (seed, replicate, coordinate)."""

import numpy as np

from .errors import DomainError

_MAX_INDEX = 2**32


def seed_stream(seed, replicate=0, coordinate=0):
    """Philox generator keyed by (seed, replicate, coordinate).

    Streams for distinct (replicate, coordinate) pairs are statistically
    independent, and the same triple always reproduces the same draws
    bit-exactly.  Replicate and coordinate indices must fit in 32 bits.  The
    128-bit Philox key is the uint64 pair (seed, replicate << 32 | coordinate),
    passed as an array: NumPy converts a tuple key through float64 when one
    word is at least 2**63 and the other is not, which merged distinct keys.
    Every call builds a fresh bit generator, so streams share no state.
    """
    seed = int(seed)
    replicate = int(replicate)
    coordinate = int(coordinate)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must fit in 64 bits, got {seed}")
    if not 0 <= replicate < _MAX_INDEX:
        raise DomainError(f"replicate index must be below 2**32, got {replicate}")
    if not 0 <= coordinate < _MAX_INDEX:
        raise DomainError(f"coordinate index must be below 2**32, got {coordinate}")
    key = np.array((seed, (replicate << 32) | coordinate), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_open(rng, size=None):
    """Uniforms strictly inside (0, 1), one counter step per entry.

    ``rng.random`` consumes exactly one 64-bit word per double, so entry i of
    the result depends only on the stream key and the index i.  The 2**-54
    offset keeps inverse-CDF transforms away from 0 and 1.
    """
    return rng.random(size) + 2.0**-54
