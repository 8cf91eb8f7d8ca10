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
which is split again into (batch stream, local-noise stream).  Each leaf is
built from its full key, e.g. ``(2, pc_index, snr_index, replicate, 4, k, 0)``
for device k's batch stream, which equals the ``SeedSequence.spawn`` tree's
child at that path.  Streams are
only ever consumed by the component they are named for, which is what makes
runs of different algorithms under one master seed see identical round flags
and identical mini-batch index sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NS_DATA = 1
NS_RUN = 2
NS_TEST = 3


def seed_sequence(master_seed: int, namespace: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for (master_seed, namespace, path), independent of call order."""
    return np.random.SeedSequence(master_seed, spawn_key=(namespace, *path))


def generator(seq: np.random.SeedSequence) -> np.random.Generator:
    """Philox generator for a derived sequence (counter based, splittable)."""
    return np.random.Generator(np.random.Philox(seq))


def data_generator(master_seed: int) -> np.random.Generator:
    return generator(seed_sequence(master_seed, NS_DATA))


def test_data_generator(master_seed: int) -> np.random.Generator:
    return generator(seed_sequence(master_seed, NS_TEST))


@dataclass
class RunStreams:
    """The full set of streams one replicate consumes.

    ``batch[k]`` and ``noise[k]`` belong to device k.  ``flags`` drives the
    shared Bernoulli aggregation schedule, ``common`` the shared Langevin
    noise of noiseless aggregation rounds, ``channel`` the receiver noise of
    wireless rounds, ``gains`` the fading draws (untouched for constant
    gains).
    """

    flags: np.random.Generator
    common: np.random.Generator
    channel: np.random.Generator
    gains: np.random.Generator
    batch: list
    noise: list


def run_streams(master_seed: int, replicate: int, k_devices: int,
                grid_path: tuple = (0, 0)) -> RunStreams:
    """Derive every stream for one replicate of one grid point.

    The derivation path deliberately excludes the algorithm so that runs of
    different algorithms under the same master seed share flag and batch
    streams (fair-comparison guarantee).
    """
    def stream(*path):
        return generator(seed_sequence(master_seed, NS_RUN, *grid_path, replicate, *path))

    return RunStreams(
        flags=stream(0),
        common=stream(1),
        channel=stream(2),
        gains=stream(3),
        batch=[stream(4, k, 0) for k in range(k_devices)],
        noise=[stream(4, k, 1) for k in range(k_devices)],
    )
