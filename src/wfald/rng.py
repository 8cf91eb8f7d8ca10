"""Deterministic random-stream derivation.

All randomness in a simulation fans out from a single integer master seed via
``numpy.random.SeedSequence`` spawn keys feeding counter-based Philox
generators.  The derivation is a pure function of (master seed, namespace,
path), so results never depend on execution order or on how work is split
across processes.

Namespace layout (first spawn-key element):

* ``1`` -- training dataset (depends on the master seed only, so every grid
  point and replicate of a sweep sees the same benchmark data and posterior),
* ``2`` -- per-replicate run streams; full key is
  ``(2, pc_index, snr_index, replicate)`` (direct runs use grid position
  ``(0, 0)``),
* ``3`` -- held-out test data.

Within one replicate the run key is split, in order, into: round-flag stream,
common-noise stream, channel stream, gain stream, and one parent per device
which is split again into (batch stream, local-noise stream).  Each leaf's
Philox key is that of ``SeedSequence(master_seed, spawn_key=path)`` for its
full path, e.g. ``(2, pc_index, snr_index, replicate, 4, k, 0)`` for device
k's batch stream, which equals the ``SeedSequence.spawn`` tree's child at
that path.  Streams are only ever consumed by the component they are named
for, which is what makes runs of different algorithms under one master seed
see identical round flags and identical mini-batch index sequences.

:func:`run_streams` derives a whole block of replicates at once.  Rather than
build 2K + 4 ``SeedSequence`` objects per replicate, it runs SeedSequence's
entropy hash in numpy ``uint32`` arithmetic: the words every path shares
(master seed, namespace, grid position) are hashed once, and the words that
vary (replicate, stream, device) are hashed for the whole block in a few
vectorized steps.  The keys are those of the spawn tree, bit for bit
(``tests/test_rng.py`` checks them against numpy's own ``SeedSequence``).

Scope: the streams are the same on every machine, but runs are bitwise
reproducible only on one CPU class.  A mini-batch is the first m indices of
an ``np.argpartition`` of the batch stream's keys; the index set is fixed by
the stream, while the order inside it comes from numpy's CPU-dispatched
selection code (ascending for shards of up to 256 samples, the SIMD
kernel's order above that on AVX2 and AVX-512 machines, introselect's order
without AVX2).  That order sets the rounding of the mini-batch gradient sum.
The BLAS kernel, chosen by CPU class, is a second source: it rounds the
targets ``theta_star @ U`` of ``generate_synthetic``, and through them every
output, and ``U @ U.T`` and ``U @ v`` of the posterior and V_c (README;
ROADMAP item 9 takes BLAS off the run path).
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

NS_DATA = 1
NS_RUN = 2
NS_TEST = 3

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def seed_sequence(master_seed: int, namespace: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for (master_seed, namespace, path), independent of call order."""
    return np.random.SeedSequence(master_seed, spawn_key=(namespace, *path))


def generator(seq: ISeedSequence) -> np.random.Generator:
    """Philox generator for a derived sequence (counter based, splittable)."""
    return np.random.Generator(np.random.Philox(seq))


def data_generator(master_seed: int) -> np.random.Generator:
    return generator(seed_sequence(master_seed, NS_DATA))


def test_data_generator(master_seed: int) -> np.random.Generator:
    return generator(seed_sequence(master_seed, NS_TEST))


class RunStreams:
    """The full set of streams one replicate consumes.

    ``batch[k]`` and ``noise[k]`` belong to device k.  ``flags`` drives the
    shared Bernoulli aggregation schedule, ``common`` the shared Langevin
    noise of noiseless aggregation rounds, ``channel`` the receiver noise of
    wireless rounds, ``gains`` the fading draws (untouched for constant
    gains).  Each generator is built from its Philox key when it is first
    read, so a process that reads only some of the streams builds only those.
    """

    def __init__(self, shared: np.ndarray, device: np.ndarray):
        self._shared = shared  # (4, 2) keys of flags, common, channel, gains
        self._device = device  # (K, 2, 2) keys of each device's batch, noise

    @functools.cached_property
    def flags(self) -> np.random.Generator:
        return _generator(self._shared[0])

    @functools.cached_property
    def common(self) -> np.random.Generator:
        return _generator(self._shared[1])

    @functools.cached_property
    def channel(self) -> np.random.Generator:
        return _generator(self._shared[2])

    @functools.cached_property
    def gains(self) -> np.random.Generator:
        return _generator(self._shared[3])

    @functools.cached_property
    def batch(self) -> list:
        return [_generator(key) for key in self._device[:, 0]]

    @functools.cached_property
    def noise(self) -> list:
        return [_generator(key) for key in self._device[:, 1]]


class _PhiloxKey(ISeedSequence):
    """A Philox key computed ahead, handed to ``Philox`` as its seed sequence."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words, the way SeedSequence reads an integer."""
    if value < 0:
        raise ValueError(f"seed words must be nonnegative, got {value}")
    return [(value >> shift) & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hashmix(value: np.ndarray, h: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix``: the mixed value and the next hash constant."""
    h_next = (h * _MULT_A) & _MASK32
    value = (value ^ np.uint32(h)) * np.uint32(h_next)
    return value ^ (value >> np.uint32(16)), h_next


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _seed_pool(entropy: list[int]) -> tuple[np.ndarray, int]:
    """Pool (1, 4) and hash constant after SeedSequence mixes in ``entropy`` (>= 4 words).

    Every value stays an array (never a numpy scalar, whose arithmetic warns
    on the wraparound the hash relies on).
    """
    h = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        mixed, h = _hashmix(np.array([word], dtype=np.uint32), h)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], mixed)
    pool = np.stack(pool, axis=-1)
    for word in entropy[_POOL_SIZE:]:
        pool, h = _absorb(pool, h, np.array([word], dtype=np.uint32))
    return pool, h


def _absorb(pool: np.ndarray, h: int, words: np.ndarray) -> tuple[np.ndarray, int]:
    """Mix one more entropy word into pools of shape (..., 4).

    ``words`` broadcasts against the pools' leading axes, so one call hashes
    the next word of many paths at once.  The hash constant ``h`` depends
    only on the word's position, so it is shared by every path.
    """
    out = np.empty(np.broadcast_shapes(pool.shape[:-1], words.shape) + (_POOL_SIZE,),
                   dtype=np.uint32)
    for i in range(_POOL_SIZE):
        mixed, h = _hashmix(words, h)
        out[..., i] = _mix(pool[..., i], mixed)
    return out, h


def _philox_keys(pool: np.ndarray) -> np.ndarray:
    """SeedSequence ``generate_state(2, uint64)`` for pools (..., 4): keys (..., 2)."""
    h = _INIT_B
    state = np.empty(pool.shape, dtype="<u4")
    for i in range(_POOL_SIZE):
        value = pool[..., i] ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        value *= np.uint32(h)
        state[..., i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


def _generator(key: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def run_streams(master_seed: int, replicates: range, k_devices: int,
                grid_path: tuple = (0, 0)) -> list[RunStreams]:
    """Derive every stream of the replicates ``replicates`` of one grid point.

    Replicate indices must lie below 2**32, where each is one entropy word.
    The derivation path deliberately excludes the algorithm so that runs of
    different algorithms under the same master seed share flag and batch
    streams (fair-comparison guarantee).
    """
    if min(replicates) < 0 or max(replicates) > _MASK32:
        raise ValueError(f"replicate indices must lie in [0, 2**32), got {replicates}")
    # SeedSequence pads the master seed's words to the pool size when a spawn
    # key follows, then appends the spawn key's words
    seed = _words(master_seed)
    seed += [0] * (_POOL_SIZE - len(seed))
    prefix = [*seed, *_words(NS_RUN), *(w for entry in grid_path for w in _words(entry))]
    pool, h = _absorb(*_seed_pool(prefix), np.array(replicates, dtype=np.uint32))  # (B, 4)
    # paths (..., replicate, j) for the four shared streams j < 4
    shared = _philox_keys(_absorb(pool[:, None], h, np.arange(4, dtype=np.uint32))[0])
    # paths (..., replicate, 4, k, c): c = 0 batch, c = 1 noise
    pool, h = _absorb(pool, h, np.array([4], dtype=np.uint32))
    pool, h = _absorb(pool[:, None], h, np.arange(k_devices, dtype=np.uint32))  # (B, K, 4)
    device = _philox_keys(_absorb(pool[:, :, None], h, np.arange(2, dtype=np.uint32))[0])
    return [RunStreams(shared[b], device[b]) for b in range(len(replicates))]
