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
whole block.  No round reads the drift statistics or the post-burn-in sum,
so those are computed once per tape window, on the stacked particles and
gradient sums of its rounds.  A tape feeds the block.  For each replicate it
first draws the round flags of the whole run, which fix what every round
draws from the other streams: batch keys on every round, private noise where
tau < 1, common noise where tau > 0, and on wireless rounds the fading
gains, the receiver noise and, for a noiseless WFALD channel, the block that
restores the Langevin noise.  It then draws each of those streams
``TAPE_WINDOW`` rounds at a time, in the order a round-by-round run consumes
it, so memory stays bounded by the block and the window, not by the run.
The block is 32 so that a sweep point of 20 to 24 replicates runs as one
block and pays each round's numpy calls once.  To keep that block's memory
small, a window's mini-batch rows are stored in the narrowest signed integer
type that indexes their sample table (16-bit at the reference problem).

Processes.  :func:`run` forks one helper process (``os.fork``, so POSIX
only) and kills and reaps it before it returns or raises, so no child
outlives a run.  Each process derives every block's streams with
:func:`wfald.rng.run_streams`, builds only the generators it reads, and
draws the block's flags.  The helper reads the batch keys (and takes their
``argpartition``), the Langevin noise, the receiver noise and the restore
block; the parent reads the fading gains, marks the near-zero ones and runs
the recurrence.  The helper draws one window ahead, the next block's first
after a block's last, into one of two slots of an anonymous shared mapping
made before the fork, so its draws overlap the recurrence without sharing an
interpreter lock with it.  Two pipes hand the slots over: the helper names
each slot it has filled, and the parent hands a slot back, with the current
failure round, once it is done with that window's drift statistics, so no
view of a slot outlives its window.  Apart from the flags, which both draw
whole, each stream is read by one process only, and windows are consumed in
round order, so the draws are those of a serial run.  Public functions stay
in the parent, because a profiler or a test that wraps or patches one
(``draw_gains``, say) sees only the parent's calls.  So does arithmetic that
can overflow, which the parent's ``np.errstate`` governs; the one exception
is the residual noise power, whose overflow the engine reports as a failure
naming the channel gain.  An exception in the helper reaches the caller
with its type and message; a helper that dies is a :class:`ProtocolError`.

Invariance.  Philox streams are counter based, so a stream drawn in blocks of
any size yields exactly the values per-round draws yield (pinned by
``tests/test_rng.py``), and every replicate's arithmetic is the same
element-wise sequence whatever block it sits in.
Outputs are therefore bitwise independent of ``REPLICATE_BLOCK`` and
``TAPE_WINDOW``; both are memory/speed constants, not settings.  A
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
import functools
import itertools
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
from .model import (Dataset, RegularityConstants, batch_size, exact_posterior,
                    measure_constants, partition_even)

ALGORITHMS = ("WFALD", "FALD", "SGLD", "WFedAvg")

#: benchmark regression coefficients for the d = 5 reference problem
BENCHMARK_THETA_STAR = np.array([-0.0615, -1.6057, 1.7629, 1.0240, -1.5902])

#: replicates advanced together: 32 runs a 20- to 24-replicate sweep point as
#: one block, and a window slot of 32 holds 1.1 MB at the reference problem
#: (K=30, n=1200; pinned by tests/test_protocol.py)
REPLICATE_BLOCK = 32

#: rounds of every random stream drawn at once; the helper has two window
#: slots, and 32 rounds put a sweep's peak RSS up 6 % (measured at 16
#: replicates per block)
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
    NaN on every other round.
    """

    config: RunConfig
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

    devices: slice               # a contiguous range of device indices
    n: int
    m: int
    samples: np.ndarray | None   # (g * n, d + 1): rows [u_i, v_i], device-major; None at full batch
    hessian: np.ndarray          # (g, d, d): U U^T + I/K, full-batch fast path
    lin: np.ndarray              # (g, d): U v


def _build_groups(shards, k_total: int, p_b: float) -> list[_DeviceGroup]:
    by_size: dict[int, list[int]] = {}
    for shard in shards:
        by_size.setdefault(shard.size, []).append(shard.owner)
    groups = []
    d = shards[0].dim
    eye = np.eye(d)
    for n, members in sorted(by_size.items()):
        # partition_even gives the larger shards to the first devices, so the
        # devices of one shard size form a contiguous range
        U = np.stack([shards[k].covariates for k in members])
        v = np.stack([shards[k].targets for k in members])
        hess = np.einsum("gdn,gen->gde", U, U) + eye / k_total
        lin = np.einsum("gdn,gn->gd", U, v)
        m = batch_size(p_b, n)
        samples = None
        if m < n:
            samples = np.concatenate([U.transpose(0, 2, 1), v[..., None]], axis=2).reshape(-1, d + 1)
        groups.append(_DeviceGroup(devices=slice(members[0], members[-1] + 1), n=n, m=m,
                                   samples=samples, hessian=hess, lin=lin))
    return groups


@dataclass
class _Window:
    """Rounds [s0, s1) of a tape's streams, laid out round-major.

    ``drawn`` holds the arrays of :func:`_layout` in a slot the helper filled,
    valid until the slot goes back to it.  The parent's ``gains`` (w, B, K) and
    ``tiny`` (w, B), which marks near-zero gains, are None without a channel.
    """

    s0: int
    s1: int
    drawn: dict
    gains: np.ndarray | None
    tiny: np.ndarray | None


class _Tape:
    """Every random draw of one block of replicates, a window of rounds at a time.

    The constructor derives each replicate's streams and draws its round
    flags for the whole run; the parent and the helper each build their own
    tape of a block.  In the helper, ``fill(s0, s1, drawn)`` draws rounds
    [s0, s1) of every stream but the flags and the gains into the arrays of
    a window slot.  In the parent, ``receive(s0, s1, drawn)`` draws the same
    rounds' fading gains and wraps them with the slot's arrays in a
    :class:`_Window`.  Windows are drawn and received in round order and
    every stream is read by one process only, so the draws are those of a
    round-by-round run.
    """

    def __init__(self, config: RunConfig, chan: ChannelConfig, groups, first: int,
                 count: int, force_final: bool):
        self.config, self.chan, self.groups = config, chan, groups
        self.replicates = range(first, first + count)
        self.streams = _rng.run_streams(config.master_seed, self.replicates, config.k,
                                        config.seed_path)
        self.flags = np.stack([st.flags.random(config.s_total) < config.p_c
                               for st in self.streams])
        if force_final:
            self.flags[:, -1] = True

    def receive(self, s0: int, s1: int, drawn: dict) -> _Window:
        gains = tiny = None
        if "noise" in drawn:
            # a public function, so in the parent (see "Processes" above)
            gains = np.ones((s1 - s0, len(self.streams), self.config.k))
            for b, st in enumerate(self.streams):
                rounds = np.flatnonzero(self.flags[b, s0:s1])
                if rounds.size:
                    gains[rounds, b] = self.chan.draw_gains((rounds.size, self.config.k),
                                                            st.gains)
            tiny = gains.min(axis=2) < 1e-6 * np.median(gains, axis=2)
        return _Window(s0, s1, drawn, gains, tiny)

    def fill(self, s0: int, s1: int, drawn: dict) -> None:
        cfg = self.config
        K, d, w, B = cfg.k, cfg.dim, s1 - s0, len(self.streams)
        noise, restore = drawn.get("noise"), drawn.get("restore")
        agg = self.flags[:, s0:s1]
        over_air = agg if noise is not None else np.zeros_like(agg)

        for j, g in enumerate(self.groups):
            rows = drawn.get(f"batch{j}")
            if rows is None:
                continue
            size = g.devices.stop - g.devices.start
            keys = np.empty((size, w, g.n))
            first_row = (np.arange(size) * g.n)[:, None]
            for b, st in enumerate(self.streams):
                for i, k in enumerate(range(g.devices.start, g.devices.stop)):
                    st.batch[k].random(out=keys[i])
                chosen = np.argpartition(keys, g.m, axis=2)[:, :, :g.m]
                np.add(chosen.transpose(1, 0, 2), first_row, out=rows[:, b])

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
            blocks = 1 if restore is None else 2
            for b, st in enumerate(self.streams):
                rounds = np.flatnonzero(over_air[b])
                if rounds.size:
                    draws = st.channel.standard_normal((rounds.size, blocks, d))
                    noise[rounds, b] = draws[:, 0]
                    if restore is not None:
                        restore[rounds, b] = draws[:, 1]


def _layout(config: RunConfig, chan: ChannelConfig, groups) -> dict:
    """A window slot's arrays, in slot order: name -> (per-replicate shape, dtype).

    A window of w rounds and B replicates holds each as a (w, B, *shape)
    array; an array the algorithm does not draw is left out.

    * ``batch<j>`` (g, m) rows of group j's sample table picked by the
      mini-batches (left out at full batch);
    * ``step_noise`` (K, d) Langevin increments sqrt(2 eta) xi_k, zero where
      a round injects none (left out for WFedAvg);
    * ``noise`` (d,) the receiver's standard-normal block on wireless rounds,
      unset on others (left out without a channel);
    * ``restore`` (d,) likewise, for noiseless WFALD, the block that restores
      the Langevin noise.
    """
    layout = {}
    for j, g in enumerate(groups):
        if g.samples is not None:
            # the narrowest signed type that holds every row of the table; a
            # row that overflowed it would wrap negative, which take() accepts
            layout[f"batch{j}"] = ((g.devices.stop - g.devices.start, g.m),
                                   np.min_scalar_type(-len(g.samples)))
    f8 = np.dtype(np.float64)
    if config.algorithm != "WFedAvg":
        layout["step_noise"] = ((config.k, config.dim), f8)
    if config.algorithm in ("WFALD", "WFedAvg"):
        layout["noise"] = ((config.dim,), f8)
        if config.algorithm == "WFALD" and chan.noise_level == 0.0:
            layout["restore"] = ((config.dim,), f8)
    return layout


class _Slots:
    """Two window slots in one anonymous shared mapping, made before the fork.

    A slot holds the arrays of :func:`_layout` for a window of up to
    ``TAPE_WINDOW`` rounds of the largest block.  ``views(slot, w, B)`` lays
    the arrays of a window of w rounds and B replicates over the start of
    their regions, C-contiguous, and returns them by name.
    """

    def __init__(self, config: RunConfig, chan: ChannelConfig, groups, replicates: int):
        self.layout = _layout(config, chan, groups)
        rounds = min(TAPE_WINDOW, config.s_total)
        self.offsets, size = {}, 0
        for name, (shape, dtype) in self.layout.items():
            self.offsets[name] = size
            size += -(-rounds * replicates * np.prod(shape) * dtype.itemsize // 64) * 64
        self.size = int(size)
        self.buffer = mmap.mmap(-1, 2 * self.size)

    def views(self, slot: int, w: int, B: int) -> dict:
        return {name: np.ndarray((w, B, *shape), dtype, self.buffer,
                                 slot * self.size + self.offsets[name])
                for name, (shape, dtype) in self.layout.items()}


class _Helper:
    """The helper process that draws a run's tape, seen from the parent.

    The helper sends (slot, block, s0, s1) per filled window, then None, or
    the exception it raised; the parent sends back (slot, stop).  A context
    manager: on exit the parent closes its pipe ends, then kills and reaps
    the helper, whatever state it is in.
    """

    def __init__(self, config: RunConfig, chan: ChannelConfig, groups, edges, force_final: bool):
        self.new_tape = functools.partial(_Tape, config, chan, groups, force_final=force_final)
        self.edges = edges
        self.slots = _Slots(config, chan, groups, max(np.diff(edges)))
        self.ready, ready = Pipe(duplex=False)
        free, self.free = Pipe(duplex=False)
        try:
            self.pid = os.fork()
        except OSError:
            for conn in (self.ready, ready, free, self.free):
                conn.close()
            raise
        if self.pid == 0:
            status = 1
            try:
                self.ready.close()
                self.free.close()
                self._draw(config.s_total, ready, free)
                status = 0
            except BaseException as exc:  # noqa: BLE001  (handed to the parent)
                # one that does not pickle leaves the parent a helper that died
                with contextlib.suppress(BaseException):
                    ready.send(exc)
            finally:
                # a forked child never returns into its parent's stack
                os._exit(status)
        ready.close()
        free.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.ready.close()
        self.free.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)

    def _draw(self, stop: int, ready, free) -> None:
        """The helper's loop: fill each block's windows into idle slots, in round order.

        It learns the parent's failure round only when it waits for a slot,
        so it may draw windows past it, which the parent drops.  A parent
        that has died closes the pipes: the helper reads EOF or gets EPIPE.
        """
        idle = [1, 0]
        for j, (first, end) in enumerate(zip(self.edges[:-1], self.edges[1:])):
            tape, s0 = None, 0
            while True:
                if not idle:
                    slot, stop = free.recv()
                    idle.append(slot)
                if s0 >= stop:
                    break
                tape = tape or self.new_tape(first, end - first)
                s1 = min(stop, s0 + TAPE_WINDOW)
                slot = idle.pop()
                tape.fill(s0, s1, self.slots.views(slot, s1 - s0, end - first))
                ready.send((slot, j, s0, s1))
                s0 = s1
        ready.send(None)

    def windows(self, stop):
        """Yield (tape, window) over each block's rounds [0, stop()), in round order.

        A failure found in a window lowers ``stop()``; a window the helper
        drew from rounds past it is dropped, and one that only reaches past
        it is cut by the caller.  A window's slot goes back to the helper
        when the caller asks for the next window, that is, once it is done
        with this one.
        """
        tape = None
        while True:
            try:
                message = self.ready.recv()
            except Exception:  # noqa: BLE001  (EOF, or cut short by the helper's death)
                self._lost()
            if message is None:
                return
            if isinstance(message, BaseException):
                raise message
            slot, j, s0, s1 = message
            if s0 < stop():
                first = self.edges[j]
                if tape is None or tape.replicates.start != first:
                    tape = self.new_tape(first, self.edges[j + 1] - first)
                yield tape, tape.receive(s0, s1, self.slots.views(slot, s1 - s0,
                                                                  len(tape.replicates)))
            # a helper that has died is found at the next read
            with contextlib.suppress(BrokenPipeError):
                self.free.send((slot, stop()))

    def _lost(self):
        os.kill(self.pid, signal.SIGKILL)
        _, status = os.waitpid(self.pid, 0)
        pid, self.pid = self.pid, None
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise ProtocolError(f"the tape helper process {pid} ended before the tape was "
                            f"drawn ({how})")


def _over_the_air(config: RunConfig, chan: ChannelConfig, win: _Window, i: int, s: int,
                  sel, payloads: np.ndarray, out: RunResult, reps: np.ndarray, failures: list):
    """One wireless aggregation round for the replicates ``sel`` of a block.

    Returns the received aggregates (b, d) and records alpha, beta and the
    largest ||x_k||^2 / P of each replicate.  Failed checks go to ``failures``.
    """
    K, eta, power = config.k, config.eta, chan.power
    gains = win.gains[i][sel]
    tiny = win.tiny[i][sel]
    if tiny.any():
        b = int(np.argmax(tiny))
        k = int(np.argmin(gains[b]))
        failures.append((reps[b], 0, f"near-zero channel gain {gains[b, k]:.3e} on device {k} "
                         f"at round {s} of replicate {reps[b]}; "
                         "inversion power control would explode"))
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
    with np.errstate(divide="ignore", over="ignore"):
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
    y, _ = noma_superpose(signals, gains, win.drawn["noise"][i][sel], chan.noise_level)
    if overflowed:
        # the round fails; keep the division by K alpha in range meanwhile
        alpha = np.where(unbounded, 1.0, alpha)
    received = receive_aggregate(y, alpha, K)
    if "restore" in win.drawn:
        # a noiseless channel cannot supply the Langevin noise the receiver
        # normally repurposes; restore it at full strength
        received = received + np.sqrt(2.0 * eta / K) * win.drawn["restore"][i][sel]
    out.alpha[reps, s] = alpha
    out.beta[reps, s] = beta
    out.power_use[reps, s] = sq.max(axis=1) / power
    return received


def _advance(config: RunConfig, chan: ChannelConfig, groups, A_global, b_global,
             tape: _Tape, windows, stop: int, out: RunResult):
    """Run a tape's block of replicates through rounds [0, stop) of its ``windows``.

    Writes the block's rows of ``out``.  Returns None, or (round, message) of
    the earliest failing round, naming its lowest failing replicate.
    """
    K, d = config.k, config.dim
    eta, p_b = config.eta, config.p_b
    first = tape.replicates.start
    B = len(tape.replicates)
    block = np.arange(first, first + B)
    rows = slice(first, first + B)
    avg_traj, v_theta, v_c = out.avg_traj[rows], out.v_theta[rows], out.v_c[rows]

    thetas = np.zeros((B, K, d))
    mean_acc = np.zeros((B, K, d))
    single = len(groups) == 1

    for win in windows:
        s0, s1 = win.s0, min(win.s1, stop)
        agg_by_round = tape.flags[:, s0:s1].T
        any_agg = agg_by_round.any(axis=1).tolist()
        all_agg = agg_by_round.all(axis=1).tolist()
        batches = [win.drawn.get(f"batch{j}") for j in range(len(groups))]
        step_noise = win.drawn.get("step_noise")
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
                if single:
                    grads = gr
                else:
                    grads[:, g.devices] = gr

            step = thetas - eta * grads
            new = step if step_noise is None else step + step_noise[i]
            failures = []
            if any_agg[i]:
                sel = slice(None) if all_agg[i] else np.flatnonzero(agg_by_round[i])
                if win.gains is not None:
                    new[sel] = _over_the_air(config, chan, win, i, s, sel, step[sel], out,
                                             block[sel], failures)[:, None, :]
                elif K > 1:  # the average of one device is itself (SGLD's every round)
                    new[sel] = new[sel].sum(axis=1, keepdims=True) / K
            avg = new.sum(axis=1) / K
            if not np.isfinite(avg).all():
                bad = ~np.isfinite(new).all(axis=2)
                if bad.any():
                    b = int(np.argmax(bad.any(axis=1)))
                    failures.append((block[b], 4, f"non-finite particle on device "
                                     f"{int(np.argmax(bad[b]))} at round {s} of replicate "
                                     f"{block[b]}; the step size is likely too large for "
                                     "this problem"))
            if failures:
                return s, min(failures)[2]

            thetas = new
            avg_traj[:, s + 1] = avg
            states.append(thetas)
            grad_sums.append(grads.sum(axis=1))

        # what no round reads, once per window on (B, w, ...) stacks of its
        # rounds.  The states after rounds s with s + 1 > s_burn join the
        # running sum: reducing along the leading axis adds them in round
        # order, as a per-round += would
        kept = states[1 + max(0, config.s_burn - s0):]
        if kept:
            mean_acc = np.add.reduce([mean_acc, *kept], axis=0)
        # dispersion measured relative to particle 0 so bitwise-equal
        # particles (the state right after an aggregation) give exactly 0
        dev = np.stack(states[:-1], axis=1)
        dev -= dev[:, :, :1]
        dev -= dev.sum(axis=2, keepdims=True) / K
        dev *= dev
        v_theta[:, s0:s1] = dev.sum(axis=3).sum(axis=2) / K
        diff = ((np.einsum("de,bwe->bwd", A_global, avg_traj[:, s0:s1]) - b_global)
                - np.stack(grad_sums, axis=1))
        v_c[:, s0:s1] = np.einsum("bwd,bwd->bw", diff, diff)
        # drop this window before its slot goes back to the helper
        del win, batches, step_noise, states, grad_sums, kept, dev, diff

    out.flags[rows] = tape.flags
    out.device_mean[rows] = mean_acc / config.s_use
    out.theta_final[rows] = thetas
    return None


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
    """
    config.validate()
    if config.algorithm == "SGLD":
        config = dataclasses.replace(config, k=1, p_c=1.0, eta=config.eta / config.k)
    if data.dim != config.dim:
        raise ValueError(f"dataset dimension {data.dim} != config dim {config.dim}")
    if data.size != config.n_samples:
        raise ValueError(f"dataset size {data.size} != config n_samples {config.n_samples}")

    shards = partition_even(data, config.k)
    groups = _build_groups(shards, config.k, config.p_b)
    A_global = data.covariates @ data.covariates.T + np.eye(config.dim)
    b_global = data.covariates @ data.targets
    chan = config.channel()

    posterior = exact_posterior(data)
    radius = config.region_radius
    if radius is None:
        radius = 5.0 * float(np.sqrt(np.linalg.eigvalsh(posterior.covariance)[-1]))
    constants = measure_constants(shards, config.k, radius, config.p_b)

    R, S, K, d = config.replicates, config.s_total, config.k, config.dim
    force_final = config.force_final_agg
    if force_final is None:
        force_final = config.algorithm == "WFedAvg"
    result = RunResult(
        config=config, constants=constants,
        flags=np.empty((R, S), dtype=bool),
        avg_traj=np.zeros((R, S + 1, d)),
        device_mean=np.empty((R, K, d)),
        theta_final=np.empty((R, K, d)),
        v_theta=np.empty((R, S)),
        v_c=np.empty((R, S)),
        beta=np.full((R, S), np.nan),
        alpha=np.full((R, S), np.nan),
        power_use=np.full((R, S), np.nan),
        final_agg_forced=force_final,
    )

    # balanced blocks; a failure found in one block limits later blocks to
    # earlier rounds, since their replicates rank after it within a round
    n_blocks = -(-R // REPLICATE_BLOCK)
    edges = [R * j // n_blocks for j in range(n_blocks + 1)]
    failure, stop = None, S
    with _Helper(config, chan, groups, edges, force_final) as helper:
        windows = helper.windows(lambda: stop)
        for tape, block in itertools.groupby(windows, key=operator.itemgetter(0)):
            # map, unlike a generator expression, keeps no window while it waits
            found = _advance(config, chan, groups, A_global, b_global, tape,
                             map(operator.itemgetter(1), block), stop, result)
            if found is not None:
                stop, failure = found
    if failure is not None:
        raise ProtocolError(failure)
    return result
