"""Engine tests: determinism, reference-equality, scheduling, failure modes."""

import collections
import dataclasses
import os
import signal
import time

import numpy as np
import pytest

import wfald.protocol as protocol
from round_reference import replay_batches, replay_fald
from wfald.channel import ChannelConfig, ProtocolError
from wfald.harness import build_dataset
from wfald.model import partition_even
from wfald.protocol import RunConfig, run
from wfald.rng import run_streams


def small_config(**kw):
    base = dict(algorithm="FALD", k=3, dim=2, n_samples=12, eta=1e-2,
                p_c=0.5, p_b=0.5, s_total=12, s_burn=4, snr_db=20.0,
                master_seed=17, theta_star=np.array([1.0, -2.0]))
    base.update(kw)
    return RunConfig(**base)


@pytest.mark.parametrize("algorithm", ["WFALD", "FALD", "SGLD", "WFedAvg"])
def test_replay_is_bitwise_deterministic(algorithm):
    cfg = small_config(algorithm=algorithm, replicates=2)
    data = build_dataset(cfg)
    a = run(cfg, data)
    b = run(cfg, data)
    assert np.array_equal(a.avg_traj, b.avg_traj)
    assert np.array_equal(a.device_mean, b.device_mean)
    assert np.array_equal(a.theta_final, b.theta_final)
    assert np.array_equal(a.flags, b.flags)


@pytest.mark.parametrize("settings, replicate", [
    (dict(p_c=0.5, p_b=0.5), 0),
    (dict(p_c=1.0, p_b=0.5), 0),
    (dict(p_c=0.5, p_b=1.0), 0),
    (dict(p_c=1.0, p_b=1.0), 0),
    (dict(p_c=0.5, p_b=0.5, tau_override=0.7), 0),
    (dict(p_c=0.5, p_b=0.5, n_samples=14), 0),
    (dict(p_c=0.5, p_b=0.5, replicates=3), 2),
    # one group of 36,000 sample rows, past what 16-bit batch rows can index
    (dict(p_c=0.5, p_b=0.5, n_samples=36_000, eta=1e-5, s_total=3, s_burn=1), 0),
], ids=["pc0.5-pb0.5", "pc1-pb0.5", "pc0.5-pb1", "pc1-pb1", "tau0.7", "unequal-shards",
        "replicate2", "wide-sample-table"])
def test_engine_matches_round_by_round_reference(settings, replicate):
    """The vectorized engine replays the one-device-at-a-time reference.

    Both consume the same streams in the same order: flags every round,
    batch keys below full batch, common noise where tau > 0 and private noise
    where tau < 1.  The drift statistics, which the engine computes once per
    tape window, match the ones the reference takes each round.  The
    arithmetic is reassociated (stacked einsum versus per-device matvec) so
    the match is to relative tolerance, not bitwise.
    """
    cfg = small_config(**{"s_total": 8, "s_burn": 2, **settings})
    data = build_dataset(cfg)
    engine = run(cfg, data)
    flags, avg_traj, thetas, device_mean, v_theta, v_c = replay_fald(cfg, data, replicate)
    assert np.array_equal(engine.flags[replicate], flags)
    np.testing.assert_allclose(engine.avg_traj[replicate], avg_traj, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(engine.theta_final[replicate], thetas, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(engine.device_mean[replicate], device_mean,
                               rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(engine.v_theta[replicate], v_theta, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(engine.v_c[replicate], v_c, rtol=1e-10, atol=1e-13)


def test_sgld_is_single_device_fald():
    cfg = small_config(algorithm="SGLD", k=1, p_b=1.0, s_total=20, s_burn=5)
    data = build_dataset(cfg)
    sgld = run(cfg, data)
    fald = run(dataclasses.replace(cfg, algorithm="FALD", p_c=1.0), data)
    assert np.array_equal(sgld.avg_traj, fald.avg_traj)
    assert np.array_equal(sgld.device_mean, fald.device_mean)
    assert sgld.config.eta == cfg.eta  # k = 1 leaves the step size alone


def test_sgld_step_size_is_matched_to_the_round_clock():
    cfg = small_config(algorithm="SGLD", k=3, eta=3e-2)
    res = run(cfg, build_dataset(cfg))
    assert res.config.k == 1
    assert res.config.eta == pytest.approx(1e-2, rel=1e-15)


def test_algorithms_share_schedule_and_batches(monkeypatch):
    """Same seed means same flags and the oracle's mini-batches in every algorithm.

    A spy on ``_Tape.receive``, where the parent takes each window from the
    helper process, reads the window's batch rows back as shard indices:
    device j of group g owns rows j * g.n to (j + 1) * g.n - 1.
    """
    receive = protocol._Tape.receive
    seen = collections.defaultdict(list)

    def spy(tape, s0, s1, drawn):
        window = receive(tape, s0, s1, drawn)
        for i, g in enumerate(tape.groups):
            rows = window.drawn[f"batch{i}"]
            for b, r in enumerate(tape.replicates):
                for j, k in enumerate(range(g.devices.start, g.devices.stop)):
                    seen[r, k].append(rows[:, b, j] - j * g.n)
        return window

    monkeypatch.setattr(protocol._Tape, "receive", spy)
    kw = dict(force_final_agg=False, replicates=2)
    cfg_w = small_config(algorithm="WFALD", snr_db=5.0, gain_model="rayleigh", **kw)
    data = build_dataset(cfg_w)
    want = {(r, k): idx for r in range(cfg_w.replicates)
            for k, idx in enumerate(replay_batches(cfg_w, data, r))}
    res = {}
    for name, cfg in (("WFALD", cfg_w), ("FALD", small_config(algorithm="FALD", **kw)),
                      ("WFedAvg", small_config(algorithm="WFedAvg", **kw))):
        seen.clear()
        res[name] = run(cfg, data)
        for key, idx in want.items():
            assert np.array_equal(np.concatenate(seen[key]), idx), (name, key)
    base = res["WFALD"]
    for name in ("FALD", "WFedAvg"):
        assert np.array_equal(base.flags, res[name].flags)
    # the trajectories themselves still differ (channel noise, missing noise)
    assert not np.allclose(base.avg_traj, res["FALD"].avg_traj)
    assert not np.allclose(base.avg_traj, res["WFedAvg"].avg_traj)


def test_noiseless_wireless_rounds_log_zero_noise():
    cfg = small_config(algorithm="WFALD", snr_db=None, s_total=20)
    res = run(cfg, build_dataset(cfg))
    flags = res.flags[0]
    assert np.isfinite(res.alpha[0]).sum() == int(flags.sum())
    assert (res.beta[0][flags] == 0.0).all()
    assert (res.alpha[0][flags] > 0).all()
    # the Langevin noise is restored explicitly: consecutive aggregation
    # rounds do not collapse onto the deterministic descent map
    cfg_det = small_config(algorithm="WFedAvg", snr_db=None, s_total=20,
                           force_final_agg=False)
    det = run(cfg_det, build_dataset(cfg_det))
    assert not np.allclose(res.avg_traj, det.avg_traj)


def test_final_aggregation_defaults():
    cfg = small_config(algorithm="WFedAvg", snr_db=10.0)
    res = run(cfg, build_dataset(cfg))
    assert res.final_agg_forced
    assert bool(res.flags[0][-1])
    assert (res.theta_final[0] == res.theta_final[0][0]).all()

    res_w = run(small_config(algorithm="WFALD"), build_dataset(small_config()))
    assert not res_w.final_agg_forced


def test_power_violation_raises(monkeypatch):
    cfg = small_config(algorithm="WFALD", p_c=1.0)
    data = build_dataset(cfg)
    monkeypatch.setattr(protocol, "power_gain",
                        lambda payloads, *a, **k: np.full(payloads.shape[0], 1e8))
    with pytest.raises(ProtocolError, match=r"device \d+ at round \d+"):
        run(cfg, data)


def test_near_zero_gain_raises(monkeypatch):
    cfg = small_config(algorithm="WFALD", p_c=1.0, gain_model="rayleigh")
    data = build_dataset(cfg)
    monkeypatch.setattr(ChannelConfig, "draw_gains",
                        lambda self, size, rng: np.tile([1.0, 1e-12, 1.0], (size[0], 1)))
    with pytest.raises(ProtocolError, match="near-zero channel gain"):
        run(cfg, data)


@pytest.mark.parametrize("block", [1, 16])
def test_earliest_failing_round_is_reported(monkeypatch, block):
    """Replicate 0 fails at round 5, replicates 1 and 2 at round 2: replicate 1 wins.

    With blocks of one replicate, replicate 0's failure is found first, so
    the later blocks have to keep looking at the earlier rounds.
    """
    cfg = small_config(algorithm="WFALD", p_c=1.0, replicates=3, s_total=8, s_burn=2)
    data = build_dataset(cfg)
    fail_at = {0: 5, 1: 2, 2: 2}
    # each replicate's gain stream, told apart by its Philox key
    replicate_of = {tuple(streams.gains.bit_generator.state["state"]["key"]): r
                    for r, streams in enumerate(
                        run_streams(cfg.master_seed, range(3), cfg.k, cfg.seed_path))}
    draw = ChannelConfig.draw_gains

    def fading(self, size, rng):
        gains = draw(self, size, rng)
        round_ = fail_at[replicate_of[tuple(rng.bit_generator.state["state"]["key"])]]
        if round_ < size[0]:  # later blocks stop at the earliest failure found
            gains[round_, 1] = 1e-12
        return gains

    monkeypatch.setattr(ChannelConfig, "draw_gains", fading)
    monkeypatch.setattr(protocol, "REPLICATE_BLOCK", block)
    monkeypatch.setattr(protocol, "TAPE_WINDOW", cfg.s_total)
    with pytest.raises(ProtocolError,
                       match=r"near-zero channel gain .* on device 1 at round 2 of replicate 1;"):
        run(cfg, data)


@pytest.mark.parametrize("settings", [
    dict(algorithm="WFALD"), dict(algorithm="FALD"), dict(algorithm="SGLD"),
    dict(algorithm="WFedAvg"), dict(algorithm="WFALD", snr_db=None),
    dict(algorithm="FALD", tau_override=0.5),
], ids=["WFALD", "FALD", "SGLD", "WFedAvg", "WFALD-noiseless", "FALD-tau"])
def test_outputs_are_bitwise_invariant_under_block_and_window(monkeypatch, settings):
    rayleigh = dict(snr_db=5.0, gain_model="rayleigh") if settings["algorithm"] != "SGLD" else {}
    cfg = small_config(**{**rayleigh, **settings}, replicates=5, n_samples=14)
    data = build_dataset(cfg)
    fields = ("flags", "avg_traj", "device_mean", "theta_final", "v_theta", "v_c",
              "beta", "alpha", "power_use")
    outputs = []
    pairs = ((1, 1), (2, 5), (1000, 1000),
             (protocol.REPLICATE_BLOCK, protocol.TAPE_WINDOW),
             (2, cfg.s_total + 1),  # each block's one window is drawn during the last block
             (4, 5))                # blocks of 2 and 3 replicates, windows cut at 10 and 12
    for block, window in pairs:
        monkeypatch.setattr(protocol, "REPLICATE_BLOCK", block)
        monkeypatch.setattr(protocol, "TAPE_WINDOW", window)
        res = run(cfg, data)
        outputs.append([getattr(res, f) for f in fields])
    ref, *others = outputs
    for arrays in others:
        for name, a, b in zip(fields, ref, arrays):
            assert np.array_equal(a, b, equal_nan=True), name


def test_tape_window_stays_within_its_memory_budget():
    """One window slot of one block at the reference problem (WFALD, 10 dB Rayleigh).

    The batch rows are 16-bit, and the slot holds no more than the 1,362,176
    bytes that a window of blocks of 16 replicates with 8-byte rows took.
    """
    start = time.perf_counter()
    cfg = RunConfig(algorithm="WFALD", snr_db=10.0, gain_model="rayleigh")
    data = build_dataset(cfg)
    chan = cfg.channel()
    groups = protocol._build_groups(partition_even(data, cfg.k), cfg.k, cfg.p_b)
    slots = protocol._Slots(cfg, chan, groups, protocol.REPLICATE_BLOCK)
    tape = protocol._Tape(cfg, chan, groups, 0, protocol.REPLICATE_BLOCK, force_final=False)
    drawn = slots.views(1, protocol.TAPE_WINDOW, protocol.REPLICATE_BLOCK)
    tape.fill(0, protocol.TAPE_WINDOW, drawn)
    assert list(drawn) == ["batch0", "step_noise", "noise"]
    assert drawn["batch0"].dtype == np.int16
    assert sum(a.nbytes for a in drawn.values()) <= slots.size
    assert slots.size <= 1_362_176
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("settings", [dict(algorithm="WFALD", snr_db=None),
                                      dict(algorithm="FALD", tau_override=0.5)])
def test_run_result_shares_no_memory_with_the_window_slots(monkeypatch, settings):
    buffers = []

    class RecordedSlots(protocol._Slots):
        def __init__(self, *args):
            super().__init__(*args)
            buffers.append(np.frombuffer(self.buffer, dtype=np.uint8))

    monkeypatch.setattr(protocol, "_Slots", RecordedSlots)
    monkeypatch.setattr(protocol, "TAPE_WINDOW", 5)
    cfg = small_config(**settings, replicates=3)
    res = run(cfg, build_dataset(cfg))
    [buffer] = buffers
    arrays = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
    assert len(arrays) == 9
    for name, array in arrays.items():
        assert not np.shares_memory(array, buffer), name


class _HelperFailure(Exception):
    pass


def kill_helper_at(monkeypatch, round_):
    """Make the parent SIGKILL the helper process when it receives the window at ``round_``."""
    fork, receive = os.fork, protocol._Tape.receive
    children = []

    def recorded_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    def killing_receive(tape, s0, s1, drawn):
        if s0 == round_:
            os.kill(children[-1], signal.SIGKILL)
        return receive(tape, s0, s1, drawn)

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(protocol._Tape, "receive", killing_receive)


@pytest.mark.parametrize("outcome", ["ok", "protocol_error", "helper_failure",
                                     "helper_unpicklable", "helper_killed"])
def test_no_child_outlives_run(monkeypatch, outcome):
    """The tape's helper process is reaped before ``run`` returns or raises.

    A helper failure (here in the third window) reaches the caller with the
    type and message the helper raised.  One that cannot be pickled (it
    holds a lambda) cannot reach the parent, so the helper exits with status
    1.  That, and a helper killed in the middle of a run (here while the
    parent holds the third window), end the run with a one-line
    ProtocolError, not a hang.
    """
    cfg = small_config(algorithm="WFALD", p_c=1.0, gain_model="rayleigh", replicates=3)
    data = build_dataset(cfg)
    monkeypatch.setattr(protocol, "TAPE_WINDOW", 2)
    if outcome == "protocol_error":
        monkeypatch.setattr(ChannelConfig, "draw_gains",
                            lambda self, size, rng: np.tile([1.0, 1e-12, 1.0], (size[0], 1)))
    elif outcome in ("helper_failure", "helper_unpicklable"):
        fill = protocol._Tape.fill

        def failing_fill(self, s0, s1, drawn):
            if s0 >= 4:
                raise _HelperFailure("tape window failed" if outcome == "helper_failure"
                                     else lambda: None)
            return fill(self, s0, s1, drawn)

        monkeypatch.setattr(protocol._Tape, "fill", failing_fill)
    elif outcome == "helper_killed":
        kill_helper_at(monkeypatch, 4)
    if outcome == "ok":
        run(cfg, data)
    elif outcome == "protocol_error":
        with pytest.raises(ProtocolError, match="near-zero channel gain"):
            run(cfg, data)
    elif outcome == "helper_failure":
        with pytest.raises(_HelperFailure) as raised:
            run(cfg, data)
        assert type(raised.value) is _HelperFailure
        assert str(raised.value) == "tape window failed"
    else:
        with pytest.raises(ProtocolError) as raised:
            run(cfg, data)
        assert "\n" not in str(raised.value)
        assert str(raised.value).startswith("the tape helper process ")
        how = ("exit status 1" if outcome == "helper_unpicklable"
               else f"killed by signal {int(signal.SIGKILL)}")
        assert str(raised.value).endswith(f"({how})")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_snr_above_the_noise_cap_leaves_the_run_unchanged():
    """WFALD's claim as an invariance: capped channel noise is exactly Langevin noise.

    On a round whose common gain sits at the noise cap, beta = 0 and the
    received aggregate is FALD's step with the channel draw as its common
    noise, whatever the SNR.  So runs at SNRs where every wireless round is
    capped agree to rounding; at 10 dB some rounds are power limited and the
    run moves.
    """
    cfg = small_config(algorithm="WFALD", k=4, n_samples=40, s_total=30, s_burn=10,
                       replicates=3)
    data = build_dataset(cfg)
    ref, *others = [run(dataclasses.replace(cfg, snr_db=snr), data) for snr in (20.0, 40.0, 60.0)]
    for res in (ref, *others):
        wireless = ~np.isnan(res.beta)
        assert wireless.any() and (res.beta[wireless] == 0.0).all()
    for res in others:
        assert np.array_equal(res.flags, ref.flags)
        for name in ("avg_traj", "theta_final", "device_mean", "v_theta", "v_c"):
            np.testing.assert_allclose(getattr(res, name), getattr(ref, name), rtol=1e-12,
                                       atol=0, err_msg=name)
    low = run(dataclasses.replace(cfg, snr_db=10.0), data)
    assert (low.beta[~np.isnan(low.beta)] > 0).any()
    assert not np.allclose(low.avg_traj, ref.avg_traj, rtol=1e-6, atol=0)


def test_divergence_raises_protocol_error():
    cfg = small_config(eta=100.0, s_total=200, s_burn=10)
    data = build_dataset(cfg)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ProtocolError, match="non-finite"):
        run(cfg, data)


class TestDriftDiagnostics:
    def test_v_theta_zero_exactly_under_constant_aggregation(self):
        cfg = small_config(p_c=1.0, k=30, dim=5, n_samples=1200, eta=3e-3,
                           p_b=0.4, s_total=40, s_burn=10, theta_star=None)
        res = run(cfg, build_dataset(cfg))
        assert (res.v_theta == 0.0).all()

    def test_v_theta_zero_on_aggregation_following_iterations(self):
        cfg = small_config(algorithm="WFALD", p_c=0.4, s_total=40, s_burn=10)
        res = run(cfg, build_dataset(cfg))
        flags = res.flags[0]
        v = res.v_theta[0]
        assert v[0] == 0.0  # shared zero initialization
        for s in range(1, cfg.s_total):
            if flags[s - 1]:
                assert v[s] == 0.0
        assert v[~np.concatenate(([True], flags[:-1]))].min() > 0

    def test_v_c_positive_for_scattered_particles(self):
        cfg = small_config(p_c=0.2, s_total=30, s_burn=5, master_seed=3)
        res = run(cfg, build_dataset(cfg))
        assert (res.v_c > 0).any()


def test_channel_round_accessors():
    cfg = small_config(algorithm="WFALD", snr_db=5.0, s_total=25, s_burn=5)
    res = run(cfg, build_dataset(cfg))
    flags = res.flags[0]
    for name in ("beta", "alpha", "power_use"):
        values = getattr(res, name)
        assert values.shape == (cfg.replicates, cfg.s_total)
        assert np.isnan(values[0][~flags]).all()
        assert not np.isnan(values[0][flags]).any()
    assert (res.alpha[0][flags] > 0).all()
    assert (res.power_use[0][flags] <= 1.0 + 1e-9).all()
    # at 5 dB the noise cap binds before the power budget on at least one round
    assert (res.beta[0][flags] >= 0).all()


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            small_config(algorithm="ADMM").validate()

    def test_bad_probabilities(self):
        with pytest.raises(ValueError, match="aggregation probability"):
            small_config(p_c=0.0).validate()
        with pytest.raises(ValueError, match="batch fraction"):
            small_config(p_b=1.5).validate()

    def test_bad_burn_in(self):
        with pytest.raises(ValueError, match="burn-in"):
            small_config(s_burn=12, s_total=12).validate()

    def test_too_many_devices(self):
        with pytest.raises(ValueError, match="shard"):
            small_config(k=13, n_samples=12).validate()

    def test_tau_override_only_for_fald(self):
        with pytest.raises(ValueError, match="tau_override"):
            small_config(algorithm="WFALD", tau_override=0.5).validate()
        small_config(algorithm="FALD", tau_override=0.5).validate()

    def test_dataset_shape_mismatch(self):
        cfg = small_config()
        data = build_dataset(small_config(n_samples=15))
        with pytest.raises(ValueError, match="size"):
            run(cfg, data)
