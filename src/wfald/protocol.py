"""End-to-end training/sampling protocols.

One engine, :func:`run`, runs four protocols, chosen by ``config.algorithm``:

* ``WFALD``   -- federated Langevin sampling with wireless over-the-air
  aggregation: on aggregation rounds devices transmit their SGLD payload
  (particle minus scaled stochastic gradient, no injected noise) through the
  analog channel, and the receiver's scaled channel noise plays the role of
  the shared Langevin noise.
* ``FALD``    -- the noiseless counterpart: aggregation rounds average the
  locally updated particles exactly, with the shared noise drawn from the
  common stream.
* ``SGLD``    -- centralized single-chain Langevin sampling on the full
  dataset; run as the K = 1, p_c = 1 degenerate case of the noiseless
  protocol (the device cost with K = 1 is the full posterior cost).
* ``WFedAvg`` -- frequentist over-the-air federated averaging: identical
  scheduling, batching and channel, but no Langevin noise anywhere and pure
  full-power scaled channel inversion; the estimate is the final iterate.

Engine.  Replicates are independent, so the engine advances a block of up to
``REPLICATE_BLOCK`` of them together: one Python iteration per round updates
a (B, K, d) array of particles, and each per-round step (mini-batch
gradients, power control, superposition) is one vectorized call for the
whole block.  No round reads the device average, the drift statistics or
the post-burn-in sum, so those are computed once per tape window, on the
stacked particles and gradient sums of its rounds; a round only checks its
particles are finite.  A tape feeds the block.  For each replicate it
first draws the round flags of the whole run, which fix what every round
draws from the other streams: batch keys on every round, private noise where
tau < 1, common noise where tau > 0, and on wireless rounds the fading
gains, the receiver noise and, for a noiseless WFALD channel, the block that
restores the Langevin noise.  It then draws each of those streams a window
at a time, in the order a round-by-round run consumes it.  The window
length follows the block: a block of B replicates gets windows of
``TAPE_WINDOW * (REPLICATE_BLOCK // B)`` rounds (at most S), so a window
never holds more than ``TAPE_WINDOW`` rounds of a full block, and a thin
block, such as SGLD's single chain, hands fewer and longer windows over.
Memory stays bounded by the block and the window, not by the run.
The block is 32 so that a sweep point of 20 to 24 replicates runs as one
block and pays each round's numpy calls once.  To keep that block's memory
small, a window's mini-batch rows are stored in the narrowest signed integer
type that indexes their sample table (16-bit at the reference problem).

Processes.  One helper process (``os.fork``, so POSIX only) draws the tapes
of a :func:`sequence` of runs, back to back: a sweep worker runs its grid
points as one sequence, and a :func:`run` outside one is a sequence of one.
The helper is forked in the sequence's first run, and killed and reaped
after its last run or when the sequence ends, however it ends, so no child
outlives a sequence.
The helper is the one reader of the random streams: per run it builds the
device groups, and per block it derives the streams with
:func:`wfald.rng.run_streams`, draws the flags and reads the batch keys
(taking their ``argpartition``), the Langevin noise, the fading gains, the
receiver noise and the restore block.  The parent derives no stream; it
takes the flags and gains from the window slots, marks the near-zero gains
and runs the recurrence.  The helper draws one window ahead, the next
block's first after a block's last and the next run's first after a run's
last, into one of two slots of an anonymous shared mapping made before the
fork, so its draws overlap the recurrence, and a run's set-up and summaries,
without sharing an interpreter lock with them.  The slots are sized for the
sequence's largest run, and every run lays its window out from the start of
a slot, so they take the memory of the largest run, however many runs
there are.  Two pipes hand the slots over: the helper names each slot it
has filled with its run, block and rounds, and the parent hands a slot
back, with its run's current failure round, once it is done with that
window's drift statistics, so no view of a slot outlives its window.  The
failure round applies to that run only, so a run that fails, or that its
caller gives up on, leaves the next run's tape intact.  Windows are consumed
in round order, so the draws are those of a serial run.  A patch made
before a sequence's first run (of ``draw_gains``, say) reaches the helper
through the fork, but a profiler in the parent sees no call of
``run_streams`` or ``draw_gains``.  The parent's ``np.errstate`` governs
the arithmetic that can overflow, except a wireless round's power control,
residual noise power and transmit power, whose overflow the engine reports
as a failure of the round.  An exception in the helper reaches the caller
at the run it was drawing, with its type and message; a helper that dies
is a :class:`ProtocolError`.

Set-up.  :func:`run` forms the exact posterior once, and its result carries
it to the summaries.  Full-batch gradients use the device Hessians of
:func:`wfald.model.normal_equations` that the measured L and mu come from.

Invariance.  Philox streams are counter based, so a stream drawn in blocks of
any size yields exactly the values per-round draws yield (pinned by
``tests/test_rng.py``), and every replicate's arithmetic is the same
element-wise sequence whatever block it sits in.
Outputs are therefore bitwise independent of ``REPLICATE_BLOCK`` and
``TAPE_WINDOW``, both memory/speed constants, not settings, and of the runs
a sequence draws before or after a run.  A
``ProtocolError`` names the earliest failing round and, within it, the
lowest failing replicate.

Determinism: every replicate's streams are derived from
(master_seed, grid position, replicate) as described in :mod:`wfald.rng`;
re-running an identical configuration reproduces results bitwise.  Runs of
different algorithms under one master seed draw identical aggregation-flag
sequences and identical mini-batch index sequences.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import mmap
import operator
import os
import signal
from dataclasses import dataclass
from multiprocessing.connection import Pipe

import numpy as np

from . import rng as _rng
from .channel import (ChannelConfig, ProtocolError, check_power,
                      inversion_power_gain, noma_superpose, power_gain,
                      receive_aggregate, residual_noise_power)
from .model import (Dataset, GaussianDist, RegularityConstants, batch_size, exact_posterior,
                    measure_constants, normal_equations, partition_even)

ALGORITHMS = ("WFALD", "FALD", "SGLD", "WFedAvg")

#: benchmark regression coefficients for the d = 5 reference problem
BENCHMARK_THETA_STAR = np.array([-0.0615, -1.6057, 1.7629, 1.0240, -1.5902])

#: replicates advanced together: 32 runs a 20- to 24-replicate sweep point as
#: one block, and a window slot of 32 holds 1.25 MB at the reference problem
#: (K=30, n=1200; pinned by tests/test_protocol.py)
REPLICATE_BLOCK = 32

#: rounds of every random stream drawn at once by a block of 17 to 32
#: replicates; a block of B gets REPLICATE_BLOCK // B times as many, so no
#: slot outgrows a full block's.  The helper has two window slots, and 32
#: rounds put a sweep's peak RSS up 6 % (measured at 16 replicates per block)
TAPE_WINDOW = 16


# ---------------------------------------------------------------- config --- #


@dataclass
class RunConfig:
    """Everything needed to reproduce one experiment.

    ``snr_db`` of None means a noiseless channel.  ``region_radius`` of None
    resolves to five posterior standard deviations (largest axis).
    ``force_final_agg`` of None resolves to True for WFedAvg (its estimate is
    a single shared iterate) and False otherwise.  ``seed_path`` locates the
    run on a sweep grid for stream derivation; direct runs keep the default.
    """

    algorithm: str = "WFALD"
    k: int = 30
    dim: int = 5
    n_samples: int = 1200
    eta: float = 3e-3
    p_c: float = 0.5
    p_b: float = 0.4
    s_total: int = 200
    s_burn: int = 100
    snr_db: float | None = 20.0
    power: float = 1.0
    gain_model: str = "constant"
    gain_value: float = 1.0
    noise_std: float = 1.0
    theta_star: np.ndarray | None = None
    master_seed: int = 0
    replicates: int = 1
    region_radius: float | None = None
    tau_override: float | None = None
    force_final_agg: bool | None = None
    seed_path: tuple = (0, 0)

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        # range checks below are comparisons, which NaN passes
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if self.theta_star is not None and not np.isfinite(self.theta_star).all():
            raise ValueError("theta_star must be finite")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.k < 1:
            raise ValueError("need at least one device")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.n_samples < self.k:
            raise ValueError(f"cannot shard {self.n_samples} samples across {self.k} devices")
        if self.eta <= 0:
            raise ValueError(f"step size must be positive, got {self.eta}")
        if not 0 < self.p_c <= 1:
            raise ValueError(f"aggregation probability must be in (0, 1], got {self.p_c}")
        if not 0 < self.p_b <= 1:
            raise ValueError(f"batch fraction must be in (0, 1], got {self.p_b}")
        # below half a sample the batch floors at one, and the 1/p_b gradient
        # rescale would overstate it by 1/(p_b n)
        shard = self.n_samples if self.algorithm == "SGLD" else self.n_samples // self.k
        if self.p_b * shard < 0.5:
            raise ValueError(f"batch fraction {self.p_b} leaves p_b * n = {self.p_b * shard:.3g} "
                             f"< 0.5 samples of a {shard}-sample shard, so the mini-batch "
                             "would floor at one sample")
        if self.s_total < 1:
            raise ValueError("need at least one iteration")
        if not 0 <= self.s_burn < self.s_total:
            raise ValueError(f"burn-in {self.s_burn} must lie in [0, s_total)")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.tau_override is not None:
            if self.algorithm != "FALD":
                raise ValueError("tau_override is only meaningful for FALD")
            if not 0 <= self.tau_override <= 1:
                raise ValueError(f"tau_override must be in [0, 1], got {self.tau_override}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        if self.region_radius is not None and self.region_radius <= 0:
            raise ValueError("region_radius must be positive")
        self.channel()  # power, gain model and gain value
        if self.theta_star is not None and np.shape(self.theta_star) != (self.dim,):
            raise ValueError(f"theta_star must have {self.dim} entries, got "
                             f"{np.size(self.theta_star)}")

    @property
    def s_use(self) -> int:
        return self.s_total - self.s_burn

    def channel(self) -> ChannelConfig:
        return ChannelConfig.from_snr_db(self.snr_db, block_dim=self.dim, power=self.power,
                                         gain_model=self.gain_model, gain_value=self.gain_value)

    def resolve_theta_star(self, rng: np.random.Generator | None = None) -> np.ndarray:
        if self.theta_star is not None:
            return np.asarray(self.theta_star, dtype=float)
        if self.dim == len(BENCHMARK_THETA_STAR):
            return BENCHMARK_THETA_STAR.copy()
        if rng is None:
            raise ValueError(f"no default theta_star for dim={self.dim}; supply one")
        return rng.standard_normal(self.dim)


@dataclass
class RunResult:
    """Per-replicate trajectories and diagnostics of one configuration.

    ``avg_traj[r, s]`` is the device average after s update rounds (index 0 is
    the shared zero initialization), ``device_mean`` the per-device
    post-burn-in time averages, ``v_theta``/``v_c`` the client-drift
    statistics measured at the top of each round from the current particles
    and realized stochastic gradients.  ``beta``, ``alpha`` and ``power_use``
    are (replicates, rounds): the residual channel noise power, the common
    gain and the largest ||x_k||^2 / P of each wireless aggregation round,
    NaN on every other round.  ``posterior`` is the exact posterior of the
    run's dataset, the target every summary measures against.
    """

    config: RunConfig
    posterior: GaussianDist
    constants: RegularityConstants
    flags: np.ndarray
    avg_traj: np.ndarray
    device_mean: np.ndarray
    theta_final: np.ndarray
    v_theta: np.ndarray
    v_c: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    power_use: np.ndarray
    final_agg_forced: bool


# ------------------------------------------------------------- internals --- #


@dataclass
class _DeviceGroup:
    """Devices with equal shard size, stacked for vectorized gradient math."""

    devices: slice                     # a contiguous range of device indices
    n: int
    m: int
    # (g * n, d + 1): rows [u_i, v_i], device-major; None at full batch
    samples: np.ndarray | None = None
    hessian: np.ndarray | None = None  # (g, d, d): U_k U_k^T + I/K, full-batch fast path
    lin: np.ndarray | None = None      # (g, d): U_k v_k


def _group_shapes(n_samples: int, k: int, p_b: float) -> list[_DeviceGroup]:
    """The groups of equal shards :func:`partition_even` cuts, smallest first, without arrays.

    It gives the first n mod K devices one sample more, so the devices of
    one shard size form a contiguous range.
    """
    base, extra = divmod(n_samples, k)
    return [_DeviceGroup(devices=devices, n=n, m=batch_size(p_b, n))
            for devices, n in ((slice(extra, k), base), (slice(0, extra), base + 1))
            if devices.start < devices.stop]


def _build_groups(shards, k_total: int, p_b: float) -> list[_DeviceGroup]:
    groups = _group_shapes(sum(s.size for s in shards), len(shards), p_b)
    for g in groups:
        members = shards[g.devices]
        assert all(shard.size == g.n for shard in members)
        g.hessian, g.lin = map(np.stack, zip(*(normal_equations(s, k_total) for s in members)))
        if g.m < g.n:
            # in C order, so that the rows a batch takes are contiguous
            g.samples = np.ascontiguousarray(np.concatenate(
                [np.column_stack([s.covariates.T, s.targets]) for s in members]))
    return groups


class _Tape:
    """Every random draw of one block of replicates, a window of rounds at a time.

    The helper process builds one per block, and no other reader of the
    block's streams exists.  The constructor derives each replicate's streams
    and draws its round flags for the whole run; ``fill(s0, s1, drawn)``
    draws rounds [s0, s1) of every stream into the arrays of a window slot.
    Windows are filled in round order, so the draws are those of a
    round-by-round run.
    """

    def __init__(self, config: RunConfig, chan: ChannelConfig, groups, first: int,
                 count: int, force_final: bool):
        self.config, self.chan, self.groups = config, chan, groups
        self.streams = _rng.run_streams(config.master_seed, range(first, first + count),
                                        config.k, config.seed_path)
        self.flags = np.stack([st.flags.random(config.s_total) < config.p_c
                               for st in self.streams])
        if force_final:
            self.flags[:, -1] = True

    def fill(self, s0: int, s1: int, drawn: dict) -> None:
        cfg = self.config
        K, d, w, B = cfg.k, cfg.dim, s1 - s0, len(self.streams)
        gains, noise, restore = drawn.get("gains"), drawn.get("noise"), drawn.get("restore")
        agg = self.flags[:, s0:s1]
        drawn["flags"][...] = agg.T
        over_air = agg if noise is not None else np.zeros_like(agg)

        for j, g in enumerate(self.groups):
            rows = drawn.get(f"batch{j}")
            if rows is None:
                continue
            size = g.devices.stop - g.devices.start
            # at most TAPE_WINDOW rounds of keys at a time, however long the
            # window; each stream is still read in round order
            keys = np.empty((size, min(w, TAPE_WINDOW), g.n))
            first_row = (np.arange(size) * g.n)[:, None]
            for b, st in enumerate(self.streams):
                for c0 in range(0, w, TAPE_WINDOW):
                    part = keys[:, :min(TAPE_WINDOW, w - c0)]
                    for i, k in enumerate(range(g.devices.start, g.devices.stop)):
                        st.batch[k].random(out=part[i])
                    chosen = np.argpartition(part, g.m, axis=2)[:, :, :g.m]
                    np.add(chosen.transpose(1, 0, 2), first_row,
                           out=rows[c0:c0 + part.shape[1], b])

        xi = drawn.get("step_noise")
        if xi is not None:
            if cfg.tau_override is not None:
                tau = np.full(agg.shape, cfg.tau_override)
            else:
                tau = agg.astype(float)
            private = ~over_air & (tau < 1.0)
            shared = ~over_air & (tau > 0.0)
            xi.fill(0.0)
            common = np.zeros((w, B, d))
            for b, st in enumerate(self.streams):
                rounds = np.flatnonzero(private[b])
                if rounds.size:
                    z = np.empty((K, rounds.size, d))
                    for k in range(K):
                        st.noise[k].standard_normal(out=z[k])
                    xi[rounds, b] = z.transpose(1, 0, 2)
                rounds = np.flatnonzero(shared[b])
                if rounds.size:
                    common[rounds, b] = st.common.standard_normal((rounds.size, d))
            xi *= np.sqrt(1.0 - tau).T[:, :, None, None]
            xi += (np.sqrt(tau / K).T[:, :, None] * common)[:, :, None, :]
            xi *= np.sqrt(2.0 * cfg.eta)

        if noise is not None:
            gains.fill(1.0)
            blocks = 1 if restore is None else 2
            for b, st in enumerate(self.streams):
                rounds = np.flatnonzero(over_air[b])
                if rounds.size:
                    gains[rounds, b] = self.chan.draw_gains((rounds.size, K), st.gains)
                    draws = st.channel.standard_normal((rounds.size, blocks, d))
                    noise[rounds, b] = draws[:, 0]
                    if restore is not None:
                        restore[rounds, b] = draws[:, 1]


def _layout(config: RunConfig, chan: ChannelConfig, groups) -> dict:
    """A window slot's arrays, in slot order: name -> (per-replicate shape, dtype).

    A window of w rounds and B replicates holds each as a (w, B, *shape)
    array; an array the algorithm does not draw is left out.  Only the
    shapes of ``groups`` are read, so those of :func:`_group_shapes` do.

    * ``flags`` () whether the round aggregates;
    * ``batch<j>`` (g, m) rows of group j's sample table picked by the
      mini-batches (left out at full batch);
    * ``step_noise`` (K, d) Langevin increments sqrt(2 eta) xi_k, zero where
      a round injects none (left out for WFedAvg);
    * ``gains`` (K,) the fading gains |h_k| on wireless rounds, 1 on others
      (left out without a channel);
    * ``noise`` (d,) the receiver's standard-normal block on wireless rounds,
      unset on others (left out without a channel);
    * ``restore`` (d,) likewise, for noiseless WFALD, the block that restores
      the Langevin noise.
    """
    layout = {"flags": ((), np.dtype(bool))}
    for j, g in enumerate(groups):
        if g.m < g.n:
            # the narrowest signed type that holds every row of the table; a
            # row that overflowed it would wrap negative, which take() accepts
            size = g.devices.stop - g.devices.start
            layout[f"batch{j}"] = ((size, g.m), np.min_scalar_type(-size * g.n))
    f8 = np.dtype(np.float64)
    if config.algorithm != "WFedAvg":
        layout["step_noise"] = ((config.k, config.dim), f8)
    if config.algorithm in ("WFALD", "WFedAvg"):
        layout["gains"] = ((config.k,), f8)
        layout["noise"] = ((config.dim,), f8)
        if config.algorithm == "WFALD" and chan.noise_level == 0.0:
            layout["restore"] = ((config.dim,), f8)
    return layout


def _edges(replicates: int) -> list[int]:
    """Bounds of the balanced blocks of at most ``REPLICATE_BLOCK`` replicates."""
    n_blocks = -(-replicates // REPLICATE_BLOCK)
    return [replicates * j // n_blocks for j in range(n_blocks + 1)]


def _window_rounds(s_total: int, B: int) -> int:
    """Rounds in each window of a block of B replicates (its last may be shorter)."""
    return min(s_total, TAPE_WINDOW * (REPLICATE_BLOCK // B))


def _arrange(config: RunConfig, chan: ChannelConfig, groups, blocks) -> tuple[dict, dict, int]:
    """(layout, offsets, size) of a run's window slot, for the largest window of its ``blocks``.

    Each array of :func:`_layout` starts at its offset, a multiple of 64
    bytes, and ``size`` is the bytes they take.  That is never more than
    ``TAPE_WINDOW`` rounds of ``REPLICATE_BLOCK`` replicates.
    """
    layout = _layout(config, chan, groups)
    cells = max(_window_rounds(config.s_total, B) * B for B in blocks)
    offsets, size = {}, 0
    for name, (shape, dtype) in layout.items():
        offsets[name] = size
        size += -(-cells * math.prod(shape) * dtype.itemsize // 64) * 64
    return layout, offsets, int(size)


class _Slots:
    """One run's view of two window slots in an anonymous shared mapping.

    A block of B replicates gets windows of ``_window_rounds(S, B)`` rounds,
    so a thin block hands fewer, longer windows over; the run lays out the
    arrays of :func:`_arrange` from the start of each slot.  ``views(slot, w, B)``
    lays the arrays of a window of w rounds and B replicates over the start
    of their regions, C-contiguous, and returns them by name.  Without a
    ``buffer`` the run gets a mapping of two slots of its own ``size``; the
    runs of a sequence share one, made before the fork with slots as large
    as its largest run's.
    """

    def __init__(self, config: RunConfig, chan: ChannelConfig, groups, blocks, buffer=None):
        self.layout, self.offsets, self.size = _arrange(config, chan, groups, blocks)
        self.buffer = mmap.mmap(-1, 2 * self.size) if buffer is None else buffer

    def views(self, slot: int, w: int, B: int) -> dict:
        start = slot * (len(self.buffer) // 2)
        return {name: np.ndarray((w, B, *shape), dtype, self.buffer, start + self.offsets[name])
                for name, (shape, dtype) in self.layout.items()}


def _force_final(config: RunConfig) -> bool:
    """Whether the last round aggregates whatever its flag: by default for WFedAvg only."""
    if config.force_final_agg is None:
        return config.algorithm == "WFedAvg"
    return config.force_final_agg


def _blocks(edges) -> set:
    """The sizes of the blocks between ``edges``."""
    return set(np.diff(edges).tolist())


class _Helper:
    """The helper process that draws the tapes of a :func:`sequence` of runs, seen from the parent.

    ``runs`` holds each run's config and dataset, in order.  ``take`` hands
    out the runs in that order, and the first checks every config against
    its dataset, then forks the helper, which builds each run's device
    groups and tapes itself and draws the runs back to back.  It sends
    (run, slot, block, s0, s1) per filled window and (run,) after a run's
    last, or the exception it raised; the parent sends back (slot, stop),
    which the helper applies to the run whose window the slot held, if it
    is still drawing it.  ``close`` closes the parent's pipe ends, kills
    and reaps the helper, whatever state it is in, and lets the mapping go;
    the last run calls it, so the slots do not outlive that run.
    """

    def __init__(self, runs):
        self.runs = [(config, data) for config, data in runs]
        self.engines = None
        self.next, self.pid, self.lost, self.ready, self.free = 0, None, None, None, None
        self.buffer = None

    def take(self, config: RunConfig, data: Dataset) -> tuple[int, RunConfig]:
        """(index, engine config) of the run ``(config, data)``, which must come next."""
        index = self.next
        if index == len(self.runs) or self.runs[index][0] is not config \
                or self.runs[index][1] is not data:
            raise RuntimeError(f"run {index} of a sequence of {len(self.runs)} was called with "
                               "another config or dataset than the sequence holds")
        self.next += 1
        if self.ready is None:
            self._fork()
        return index, self.engines[index][0]

    def _fork(self):
        self.engines = [(_engine_config(config, data), data) for config, data in self.runs]
        # slots as large as the largest run's, worked out from the configs alone
        size = max(_arrange(config, config.channel(),
                            _group_shapes(config.n_samples, config.k, config.p_b),
                            _blocks(_edges(config.replicates)))[2] for config, _ in self.engines)
        self.buffer = mmap.mmap(-1, 2 * size)
        ready_out, ready_in = Pipe(duplex=False)
        free_out, free_in = Pipe(duplex=False)
        try:
            pid = os.fork()
        except OSError:
            for conn in (ready_out, ready_in, free_out, free_in):
                conn.close()
            raise
        if pid == 0:
            status = 1
            try:
                ready_out.close()
                free_in.close()
                self._draw(ready_in, free_out)
                status = 0
            except BaseException as exc:  # noqa: BLE001  (handed to the parent)
                # one that does not pickle leaves the parent a helper that died
                with contextlib.suppress(BaseException):
                    ready_in.send(exc)
            finally:
                # a forked child never returns into its parent's stack
                os._exit(status)
        ready_in.close()
        free_out.close()
        self.pid, self.ready, self.free = pid, ready_out, free_in

    def close(self):
        for conn in (self.ready, self.free):
            if conn is not None:
                conn.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        # the mapping goes with the last view of it
        self.buffer = None

    def _draw(self, ready, free) -> None:
        """The helper's loop: fill each run's windows into idle slots, in round order.

        It learns the parent's failure round only when it waits for a slot,
        so it may draw windows past it, which the parent drops.  A parent
        that has died closes the pipes: the helper reads EOF or gets EPIPE.
        """
        idle, owner = [1, 0], [None, None]
        for r, (config, data) in enumerate(self.engines):
            chan, edges, stop = config.channel(), _edges(config.replicates), config.s_total
            groups = _build_groups(partition_even(data, config.k), config.k, config.p_b)
            slots = _Slots(config, chan, groups, _blocks(edges), self.buffer)
            for j, (first, end) in enumerate(zip(edges[:-1], edges[1:])):
                tape, s0, rounds = None, 0, _window_rounds(config.s_total, end - first)
                while True:
                    if not idle:
                        slot, returned = free.recv()
                        idle.append(slot)
                        if owner[slot] == r:
                            stop = returned
                    if s0 >= stop:
                        break
                    tape = tape or _Tape(config, chan, groups, first, end - first,
                                         _force_final(config))
                    s1 = min(stop, s0 + rounds)
                    slot = idle.pop()
                    owner[slot] = r
                    tape.fill(s0, s1, slots.views(slot, s1 - s0, end - first))
                    ready.send((r, slot, j, s0, s1))
                    s0 = s1
            ready.send((r,))

    def windows(self, run: int, slots: _Slots, edges, stop):
        """Yield (replicates, (s0, s1, drawn)) over each block of run ``run``'s rounds [0, stop()).

        Windows come in round order; ``drawn`` holds the :func:`_layout`
        arrays of rounds [s0, s1) of the block ``replicates``.  A failure
        found in a window lowers ``stop()``; a window the helper drew from
        rounds past it is dropped, and one that only reaches past it is cut
        by the caller.  A window's slot goes back to the helper when the
        caller asks for the next window, that is, once it is done with it,
        or when the caller closes the generator.  What is left of an earlier
        run that its caller gave up on is dropped on the way, its slots sent
        back with a stop of 0.
        """
        while True:
            try:
                message = self.ready.recv()
            except Exception:  # noqa: BLE001  (EOF, or cut short by the helper's death)
                self._lost()
            if isinstance(message, BaseException):
                raise message
            r, *window = message
            if not window:
                if r == run:
                    return
                continue
            slot, j, s0, s1 = window
            try:
                if r == run and s0 < stop():
                    first, end = edges[j], edges[j + 1]
                    yield range(first, end), (s0, s1, slots.views(slot, s1 - s0, end - first))
            finally:
                # a helper that has died is found at the next read
                with contextlib.suppress(BrokenPipeError):
                    self.free.send((slot, stop() if r == run else 0))

    def _lost(self):
        if self.lost is None:
            os.kill(self.pid, signal.SIGKILL)
            _, status = os.waitpid(self.pid, 0)
            pid, self.pid = self.pid, None
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            self.lost = f"the tape helper process {pid} ended before the tape was drawn ({how})"
        raise ProtocolError(self.lost)


def _over_the_air(config: RunConfig, chan: ChannelConfig, drawn: dict, i: int, s: int,
                  sel, payloads: np.ndarray, out: RunResult, reps: np.ndarray, failures: list):
    """One wireless aggregation round for the replicates ``sel`` of a block.

    Reads round i of the window ``drawn``.  Returns the received aggregates
    (b, d) and records alpha, beta and the largest ||x_k||^2 / P of each
    replicate.  Failed checks go to ``failures``.
    """
    K, eta, power = config.k, config.eta, chan.power
    gains = drawn["gains"][i][sel]
    low = gains.min(axis=1)
    tiny = low < 1e-6 * gains.max(axis=1)
    if tiny.any():  # the median is at most the max, so only then can it mark a gain
        tiny = low < 1e-6 * np.median(gains, axis=1)
    if tiny.any():
        b = int(np.argmax(tiny))
        k = int(np.argmin(gains[b]))
        failures.append((reps[b], 0, f"near-zero channel gain {gains[b, k]:.3e} on device {k} "
                         f"at round {s} of replicate {reps[b]}; "
                         "inversion power control would explode"))
    # a payload norm, a noise rescale or a signal that overflows fails the
    # round, and the failure says so in one line, so numpy need not warn
    with np.errstate(divide="ignore", over="ignore"):
        if config.algorithm == "WFALD":
            alpha = power_gain(payloads, gains, power, chan.noise_level, eta, K)
        else:
            alpha = inversion_power_gain(payloads, gains, power)
        collapsed = ~(alpha > 0)
        if collapsed.any():
            # a payload norm overflowed, so no positive gain keeps it in budget
            b = int(np.argmax(collapsed))
            k = int(np.argmax(np.linalg.norm(payloads[b], axis=-1)))
            failures.append((reps[b], 1, f"common gain collapsed to {alpha[b]:.3g} by device {k} "
                             f"at round {s} of replicate {reps[b]}; the step size is likely "
                             "too large for this problem"))
            alpha = np.where(collapsed, 1.0, alpha)
        # the receiver scales its noise by 1/(K alpha), so a tiny gain can push
        # the residual noise power past the float range
        beta = residual_noise_power(alpha, chan.noise_level, eta, K)
        overflowed = beta.max() == np.inf
        if overflowed:
            unbounded = np.isinf(beta)
            b = int(np.argmax(unbounded))
            k = int(np.argmin(gains[b]))
            failures.append((reps[b], 2, f"common gain {alpha[b]:.3g} at round {s} of replicate "
                             f"{reps[b]} overflows the receiver's rescaled noise power; the "
                             f"round's smallest channel gain |h_k| is {gains[b, k]:.3e} "
                             f"(device {k})"))
        signals = (alpha[:, None] / gains)[..., None] * payloads
        sq = np.sum(signals * signals, axis=2)
    ok = check_power(sq, power)
    if not ok.all():
        b = int(np.argmin(ok.all(axis=1)))
        k = int(np.argmin(ok[b]))
        failures.append((reps[b], 3, f"transmit power violated by device {k} at round {s} "
                         f"of replicate {reps[b]}: ||x||^2 = {sq[b, k]:.6g} > {power}"))
    y, _ = noma_superpose(signals, gains, drawn["noise"][i][sel], chan.noise_level)
    if overflowed:
        # the round fails; keep the division by K alpha in range meanwhile
        alpha = np.where(unbounded, 1.0, alpha)
    received = receive_aggregate(y, alpha, K)
    if "restore" in drawn:
        # a noiseless channel cannot supply the Langevin noise the receiver
        # normally repurposes; restore it at full strength
        received = received + np.sqrt(2.0 * eta / K) * drawn["restore"][i][sel]
    out.alpha[reps, s] = alpha
    out.beta[reps, s] = beta
    out.power_use[reps, s] = sq.max(axis=1) / power
    return received


def _advance(config: RunConfig, chan: ChannelConfig, groups, A_global, b_global,
             replicates: range, windows, stop: int, out: RunResult):
    """Run the block ``replicates`` through rounds [0, stop) of its ``windows``.

    Each window is (s0, s1, drawn), as :meth:`_Helper.windows` yields them.
    Writes the block's rows of ``out``.  Returns None, or (round, message) of
    the earliest failing round, naming its lowest failing replicate.
    """
    K, d = config.k, config.dim
    eta, p_b = config.eta, config.p_b
    B = len(replicates)
    block = np.arange(replicates.start, replicates.stop)
    rows = slice(replicates.start, replicates.stop)
    avg_traj, v_theta, v_c = out.avg_traj[rows], out.v_theta[rows], out.v_c[rows]

    thetas = np.zeros((B, K, d))
    mean_acc = np.zeros((B, K, d))
    single = len(groups) == 1

    for s0, s1, drawn in windows:
        s1 = min(s1, stop)
        agg_by_round = drawn["flags"][:s1 - s0]
        out.flags[rows, s0:s1] = agg_by_round.T
        any_agg = agg_by_round.any(axis=1).tolist()
        all_agg = agg_by_round.all(axis=1).tolist()
        batches = [drawn.get(f"batch{j}") for j in range(len(groups))]
        step_noise = drawn.get("step_noise")
        # each round's entering particles and summed gradients, for the
        # statistics below; the recurrence replaces ``thetas`` and never
        # writes into it
        states, grad_sums = [thetas], []
        for i, s in enumerate(range(s0, s1)):
            grads = None if single else np.empty((B, K, d))
            for g, batch in zip(groups, batches):
                th = thetas if single else thetas[:, g.devices]
                if batch is None:
                    # the prior term sits inside the precomputed per-device hessian
                    gr = np.einsum("gde,bge->bgd", g.hessian, th) - g.lin
                else:
                    picked = g.samples.take(batch[i], axis=0)
                    Ub = picked[..., :d]
                    resid = np.einsum("bgmd,bgd->bgm", Ub, th) - picked[..., d]
                    gr = np.einsum("bgmd,bgm->bgd", Ub, resid) / p_b + th / K
                    # or the next round's batch is taken while this one is held
                    del picked, Ub
                if single:
                    grads = gr
                else:
                    grads[:, g.devices] = gr

            step = thetas - eta * grads
            new = step if step_noise is None else step + step_noise[i]
            failures = []
            if any_agg[i]:
                sel = slice(None) if all_agg[i] else np.flatnonzero(agg_by_round[i])
                if "gains" in drawn:
                    new[sel] = _over_the_air(config, chan, drawn, i, s, sel, step[sel], out,
                                             block[sel], failures)[:, None, :]
                elif K > 1:  # the average of one device is itself (SGLD's every round)
                    new[sel] = new[sel].sum(axis=1, keepdims=True) / K
            # a non-finite particle makes its device average non-finite
            if not np.isfinite(new).all():
                bad = ~np.isfinite(new).all(axis=2)
                b = int(np.argmax(bad.any(axis=1)))
                failures.append((block[b], 4, f"non-finite particle on device "
                                 f"{int(np.argmax(bad[b]))} at round {s} of replicate "
                                 f"{block[b]}; the step size is likely too large for "
                                 "this problem"))
            if failures:
                return s, min(failures)[2]

            thetas = new
            states.append(thetas)
            grad_sums.append(grads.sum(axis=1))

        # what no round reads, once per window on a (B, w + 1, K, d) stack of
        # the states entering its rounds and leaving its last, which replaces
        # them.  Summing over K adds each state's devices in the order a
        # per-round sum would
        stack = np.stack(states, axis=1)
        del states
        avg_traj[:, s0 + 1:s1 + 1] = stack[:, 1:].sum(axis=2) / K
        # the states after rounds s with s + 1 > s_burn join the running sum,
        # in round order
        for i in range(1 + max(0, config.s_burn - s0), s1 - s0 + 1):
            mean_acc += stack[:, i]
        # dispersion measured relative to particle 0 so bitwise-equal
        # particles (the state right after an aggregation) give exactly 0;
        # in place, as nothing reads the stack after this.  Particle 0 is
        # copied out first, or numpy would copy the whole overlapping stack
        dev = stack[:, :-1]
        dev -= dev[:, :, :1].copy()
        dev -= dev.sum(axis=2, keepdims=True) / K
        dev *= dev
        v_theta[:, s0:s1] = dev.sum(axis=3).sum(axis=2) / K
        diff = ((np.einsum("de,bwe->bwd", A_global, avg_traj[:, s0:s1]) - b_global)
                - np.stack(grad_sums, axis=1))
        v_c[:, s0:s1] = np.einsum("bwd,bwd->bw", diff, diff)
        # drop this window before its slot goes back to the helper
        del drawn, agg_by_round, batches, step_noise, grad_sums, stack, dev, diff

    out.device_mean[rows] = mean_acc / config.s_use
    out.theta_final[rows] = thetas
    return None


def _engine_config(config: RunConfig, data: Dataset) -> RunConfig:
    """The config the engine advances, checked against its dataset (see :func:`run`)."""
    config.validate()
    if config.algorithm == "SGLD":
        config = dataclasses.replace(config, k=1, p_c=1.0, eta=config.eta / config.k)
    if data.dim != config.dim:
        raise ValueError(f"dataset dimension {data.dim} != config dim {config.dim}")
    if data.size != config.n_samples:
        raise ValueError(f"dataset size {data.size} != config n_samples {config.n_samples}")
    return config


#: the helper of the sequence the next run belongs to: run's (config, data)
#: signature is what callers and the benchmark's meter use, so it cannot be
#: passed
_active: _Helper | None = None


@contextlib.contextmanager
def sequence(runs):
    """Run ``runs``, a list of (config, data), in this order, on one tape helper.

    Inside the block, :func:`run` must be called with each pair in turn,
    the very objects listed; a call with another raises ``RuntimeError``.
    The helper process is forked in the first call and draws the runs'
    tapes back to back, so it starts on a run while the caller is still on
    the one before.  It is killed and reaped when the block ends, however
    it ends.  Every config is validated against its dataset in the first
    call, before the fork.
    """
    global _active
    if _active is not None:
        raise RuntimeError("sequences of runs do not nest")
    _active = _Helper(runs)
    try:
        yield
    finally:
        helper, _active = _active, None
        helper.close()


def run(config: RunConfig, data: Dataset) -> RunResult:
    """Run ``config.replicates`` replicates of ``config.algorithm`` on ``data``.

    SGLD runs the noiseless engine with a single device holding all data and
    aggregation every round; with K = 1 the device cost carries the full
    prior, so each round is exactly one SGLD step on the posterior, and the
    chain's noise comes from the common stream.  The chain's step size is
    ``config.eta / config.k``: averaging K local steps advances the federated
    protocols by eta/K times the full gradient with noise scale
    sqrt(2 eta / K) per round, so this is the centralized chain their round
    clock corresponds to.  Pass ``k = 1`` for a standalone chain at the
    literal step size.  The returned config records the step actually taken.

    Inside a :func:`sequence` the run is the sequence's next; outside one
    it is a sequence of one run.
    """
    if _active is not None:
        return _run(config, data)
    with sequence([(config, data)]):
        return _run(config, data)


def _run(config: RunConfig, data: Dataset) -> RunResult:
    helper = _active
    index, config = helper.take(config, data)
    shards = partition_even(data, config.k)
    groups = _build_groups(shards, config.k, config.p_b)
    # the global cost's gradient A theta - b, the target of V_c
    A_global, b_global = normal_equations(data)
    chan = config.channel()

    posterior = exact_posterior(data)
    radius = config.region_radius
    if radius is None:
        radius = 5.0 * float(np.sqrt(np.linalg.eigvalsh(posterior.covariance)[-1]))
    constants = measure_constants(shards, config.k, posterior.mean, radius, config.p_b)

    R, S, K, d = config.replicates, config.s_total, config.k, config.dim
    result = RunResult(
        config=config, posterior=posterior, constants=constants,
        flags=np.empty((R, S), dtype=bool),
        avg_traj=np.zeros((R, S + 1, d)),
        device_mean=np.empty((R, K, d)),
        theta_final=np.empty((R, K, d)),
        v_theta=np.empty((R, S)),
        v_c=np.empty((R, S)),
        beta=np.full((R, S), np.nan),
        alpha=np.full((R, S), np.nan),
        power_use=np.full((R, S), np.nan),
        final_agg_forced=_force_final(config),
    )

    # balanced blocks; a failure found in one block limits later blocks to
    # earlier rounds, since their replicates rank after it within a round
    edges = _edges(R)
    slots = _Slots(config, chan, groups, _blocks(edges), helper.buffer)
    failure, stop = None, S
    with contextlib.closing(helper.windows(index, slots, edges, lambda: stop)) as windows:
        for replicates, block in itertools.groupby(windows, key=operator.itemgetter(0)):
            # map, unlike a generator expression, keeps no window while it waits
            found = _advance(config, chan, groups, A_global, b_global, replicates,
                             map(operator.itemgetter(1), block), stop, result)
            if found is not None:
                stop, failure = found
    if index == len(helper.runs) - 1:
        helper.close()  # nothing is left to draw, so the slots need not outlive the run
    if failure is not None:
        raise ProtocolError(failure)
    return result
