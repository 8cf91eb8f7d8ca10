"""Stream derivation: the documented spawn-key contract, verified raw."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfald import rng


def _gen(seq):
    return np.random.Generator(np.random.Philox(seq))


def _key(generator):
    return generator.bit_generator.state["state"]["key"]


def _assert_keys_match_spawn_tree(seed, replicates, k, grid_path):
    """Every stream ``run_streams`` derives has the spawn tree's Philox key."""
    blocks = rng.run_streams(seed, replicates, k, grid_path)
    assert len(blocks) == len(replicates)
    for r, streams in zip(replicates, blocks):
        root = np.random.SeedSequence(seed, spawn_key=(2, *grid_path, r))
        *shared, devices = root.spawn(5)
        got = [streams.flags, streams.common, streams.channel, streams.gains]
        for stream, seq in zip(got, shared):
            assert np.array_equal(_key(stream), _key(_gen(seq)))
        assert len(streams.batch) == len(streams.noise) == k
        for dev, batch, noise in zip(devices.spawn(k), streams.batch, streams.noise):
            b, n = dev.spawn(2)
            assert np.array_equal(_key(batch), _key(_gen(b)))
            assert np.array_equal(_key(noise), _key(_gen(n)))


def test_data_stream_matches_documented_derivation():
    """Namespace 1 with no further path, Philox bit generator."""
    expected = np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(1,))))
    got = rng.data_generator(7)
    assert np.array_equal(got.standard_normal(8), expected.standard_normal(8))


def test_test_data_stream_uses_namespace_3():
    expected = np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(3,))))
    got = rng.test_data_generator(7)
    assert np.array_equal(got.standard_normal(8), expected.standard_normal(8))


def test_run_streams_match_documented_derivation():
    """Root (2, pc_idx, snr_idx, replicate) splits into 5 children, then devices.

    The spawn tree is the oracle; ``run_streams`` hashes each leaf's key directly.
    """
    for seed in (5, 1323755283):
        [streams] = rng.run_streams(seed, range(7, 8), 3, grid_path=(1, 3))
        root = np.random.SeedSequence(seed, spawn_key=(2, 1, 3, 7))
        flags_s, common_s, channel_s, gains_s, devices_s = root.spawn(5)

        assert np.array_equal(streams.flags.random(4), _gen(flags_s).random(4))
        assert np.array_equal(streams.common.standard_normal(4),
                              _gen(common_s).standard_normal(4))
        assert np.array_equal(streams.channel.standard_normal(4),
                              _gen(channel_s).standard_normal(4))
        assert np.array_equal(streams.gains.standard_normal(4), _gen(gains_s).standard_normal(4))

        assert len(streams.batch) == len(streams.noise) == 3
        for k, dev in enumerate(devices_s.spawn(3)):
            b, n = dev.spawn(2)
            assert np.array_equal(streams.batch[k].random(4), _gen(b).random(4))
            assert np.array_equal(streams.noise[k].standard_normal(4),
                                  _gen(n).standard_normal(4))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**260), grid_path=st.lists(st.integers(0, 2**70), max_size=3),
       first=st.integers(0, 2**32 + 2), count=st.integers(1, 3), k=st.integers(1, 3))
@example(seed=0, grid_path=[0, 0], first=0, count=3, k=30)          # the reference problem
@example(seed=2**32 + 5, grid_path=[0, 0], first=0, count=2, k=3)   # two seed words
@example(seed=2**128 + 3, grid_path=[1, 2], first=0, count=2, k=2)  # five: past the pool
@example(seed=9, grid_path=[2**32, 2**64 + 1], first=0, count=2, k=2)  # multi-word grid
@example(seed=9, grid_path=[1, 1], first=17, count=3, k=2)          # a later block
@example(seed=3, grid_path=[0, 0], first=5, count=3, k=1)           # K = 1, as SGLD runs
@example(seed=9, grid_path=[0, 0], first=2**32 - 2, count=2, k=2)   # largest one-word indices
@example(seed=9, grid_path=[0, 0], first=2**32 - 1, count=2, k=2)   # reaches 2**32
def test_block_keys_match_spawn_tree(seed, grid_path, first, count, k):
    """Any block gets the spawn tree's keys or, if it reaches 2**32, a ValueError."""
    replicates = range(first, first + count)
    if replicates[-1] >= 2**32:
        with pytest.raises(ValueError, match="replicate indices"):
            rng.run_streams(seed, replicates, k, tuple(grid_path))
    else:
        _assert_keys_match_spawn_tree(seed, replicates, k, tuple(grid_path))


def test_block_draw_equals_sequential_draws():
    """Drawing (n, d) at once consumes the stream like n draws of d.

    The engine relies on this to pre-draw whole-run blocks that replay
    exactly like a round-by-round reference.
    """
    a = rng.generator(rng.seed_sequence(3, rng.NS_RUN, 0, 0, 0))
    b = rng.generator(rng.seed_sequence(3, rng.NS_RUN, 0, 0, 0))
    block = a.standard_normal((17, 4))
    rows = np.stack([b.standard_normal(4) for _ in range(17)])
    assert np.array_equal(block, rows)

    c = rng.generator(rng.seed_sequence(3, rng.NS_RUN, 0, 0, 0))
    d = rng.generator(rng.seed_sequence(3, rng.NS_RUN, 0, 0, 0))
    block_u = c.random((9, 5))
    rows_u = np.stack([d.random(5) for _ in range(9)])
    assert np.array_equal(block_u, rows_u)


def test_replicates_get_distinct_streams():
    a, b = rng.run_streams(0, range(2), 1)
    assert not np.array_equal(a.flags.random(8), b.flags.random(8))
    assert not np.array_equal(a.common.standard_normal(8), b.common.standard_normal(8))


def test_grid_positions_get_distinct_streams():
    [a] = rng.run_streams(0, range(1), 1, grid_path=(0, 0))
    [b] = rng.run_streams(0, range(1), 1, grid_path=(0, 1))
    assert not np.array_equal(a.channel.standard_normal(8), b.channel.standard_normal(8))


def test_streams_within_a_replicate_are_distinct():
    [s] = rng.run_streams(0, range(1), 2)
    draws = [s.flags.random(6), s.common.random(6), s.channel.random(6),
             s.gains.random(6), s.batch[0].random(6), s.batch[1].random(6),
             s.noise[0].random(6), s.noise[1].random(6)]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_derivation_is_call_order_independent():
    """Deriving the same path twice gives the same stream, fresh each time."""
    [first] = rng.run_streams(11, range(2, 3), 3, grid_path=(4, 5))
    consumed = first.common.standard_normal(100)
    *_, again = rng.run_streams(11, range(3), 3, grid_path=(4, 5))
    assert np.array_equal(consumed, again.common.standard_normal(100))
