"""Tests for the counter-based seed streams."""

import numpy as np
import pytest
from numpy.random import Generator, Philox

from flucert.errors import DomainError
from flucert.rng import _KeyHolder, seed_stream, uniform_open


def test_same_triple_reproduces():
    a = seed_stream(123, 4, 5).random(16)
    b = seed_stream(123, 4, 5).random(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_replicates_collide_nowhere():
    # cheap collision scan: first 4 outputs differ across 10^4 replicates
    rows = np.array([seed_stream(9, rep, 0).random(4) for rep in range(10**4)])
    assert len(np.unique(rows, axis=0)) == rows.shape[0]


def test_distinct_coordinates_differ():
    a = seed_stream(1, 0, 0).random(4)
    b = seed_stream(1, 0, 1).random(4)
    assert not np.array_equal(a, b)


def test_replicate_bound_rejected():
    with pytest.raises(DomainError):
        seed_stream(0, 2**32, 0)
    with pytest.raises(DomainError):
        seed_stream(0, 0, 2**32)
    with pytest.raises(DomainError):
        seed_stream(-1, 0, 0)


def test_uniform_open_strictly_inside():
    u = uniform_open(seed_stream(7), 10**5)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


class _TopDraw:
    """A generator stub whose every draw is the largest double below 1."""

    def random(self, size=None):
        top = 1.0 - 2.0**-53
        return top if size is None else np.full(size, top)


def test_uniform_open_top_draw_stays_below_one():
    # (1 - 2**-53) + 2**-54 is a tie that rounds to 1.0
    top = 1.0 - 2.0**-53
    assert uniform_open(_TopDraw()) == top
    for size in (3, (2, 2)):
        u = uniform_open(_TopDraw(), size)
        np.testing.assert_array_equal(u, np.full(size, top))


@pytest.mark.parametrize(
    "seed, rep, coord",
    [
        (0, 0, 0),
        (2**64 - 1, 0, 0),
        (0, 2**32 - 1, 0),
        (0, 0, 2**32 - 1),
        (2**64 - 1, 2**32 - 1, 2**32 - 1),
        (12345, 77, 3),
    ],
)
def test_key_is_seed_and_packed_indices(seed, rep, coord):
    # the 128-bit integer form of the key: low word seed, high word packed
    # indices; no float conversion can touch it
    key = seed | (rep << 32 | coord) << 64
    keyed = Philox(key=key)
    stream = seed_stream(seed, rep, coord)
    state = stream.bit_generator.state["state"]
    assert state["key"].tolist() == [seed, rep << 32 | coord]
    for part in ("key", "counter"):
        assert state[part].tolist() == keyed.state["state"][part].tolist()
    expected = Generator(keyed).random(64)
    np.testing.assert_array_equal(stream.random(64), expected)
    if seed == 2**64 - 1 and rep == coord == 2**32 - 1:
        # both words at or above 2**63: the tuple form is exact here too
        tuple_form = Generator(Philox(key=(seed, rep << 32 | coord)))
        np.testing.assert_array_equal(tuple_form.random(64), expected)


def test_keys_past_int64_stay_distinct():
    # a (seed, packed) tuple with one word at or above 2**63 and one below
    # goes through float64 in numpy: seed 2**64 - 1 became key 0, and
    # coordinates 0 and 1 of replicate 2**31 shared one key
    assert not np.array_equal(
        seed_stream(2**64 - 1).random(4), seed_stream(0).random(4)
    )
    assert not np.array_equal(
        seed_stream(2**63).random(4), seed_stream(2**63 + 1).random(4)
    )
    assert not np.array_equal(
        seed_stream(5, 2**31, 0).random(4), seed_stream(5, 2**31, 1).random(4)
    )


def test_interleaved_streams_match_streams_drawn_alone():
    alone = [seed_stream(3, rep, 1).random(40) for rep in (0, 1)]
    live = [seed_stream(3, 0, 1), seed_stream(3, 1, 1)]
    chunks = [[], []]
    for size in (1, 7, 2, 13, 17):  # 40 draws per stream, alternating
        for stream, out in zip(live, chunks):
            out.append(stream.random(size))
    for expected, out in zip(alone, chunks):
        np.testing.assert_array_equal(np.concatenate(out), expected)


@pytest.mark.skipif(
    not hasattr(Generator, "spawn"), reason="Generator.spawn is new in numpy 1.25"
)
def test_stream_cannot_spawn():
    with pytest.raises(TypeError):
        seed_stream(4, 1, 2).spawn(1)


@pytest.mark.parametrize(
    "n_words, dtype", [(2, np.uint32), (4, np.uint64), (1, np.uint64)]
)
def test_key_holder_answers_only_the_philox_request(n_words, dtype):
    holder = _KeyHolder(3, 4)
    assert holder.generate_state(2, np.uint64).tolist() == [3, 4]
    with pytest.raises(DomainError):
        holder.generate_state(n_words, dtype)
