"""Langevin steps: the SGLD chain, the round flags, and the round-by-round reference.

``round_reference`` is the oracle the engine is checked against
(``test_protocol.py::test_engine_matches_round_by_round_reference``); the
tests of its noise mixing and federated round check the oracle itself
against hand computations and stream replays.
"""

import dataclasses

import numpy as np
import pytest

from round_reference import correlated_noise, fald_round
from wfald.harness import build_dataset
from wfald.model import Dataset, local_grad, partition_even
from wfald.protocol import RunConfig, run
from wfald.rng import run_streams


def _toy_problem(k, n=24, d=2, seed=0):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((d, n))
    v = rng.standard_normal(n)
    return partition_even(Dataset(covariates=U, targets=v), k)


def _sgld_config(**kw):
    base = dict(algorithm="SGLD", k=1, dim=2, n_samples=6, eta=1e-2, p_b=1.0,
                s_total=3, s_burn=0, master_seed=3, theta_star=np.array([1.0, -2.0]))
    return RunConfig(**{**base, **kw})


def test_sgld_step_matches_manual_update():
    """Each SGLD round is one Langevin step on the posterior, noise from the common stream."""
    cfg = _sgld_config()
    data = build_dataset(cfg)
    res = run(cfg, data)
    U, v = data.covariates, data.targets
    common = run_streams(cfg.master_seed, range(1), 1)[0].common
    theta = np.zeros(2)
    for s in range(1, cfg.s_total + 1):
        grad = (U @ U.T + np.eye(2)) @ theta - U @ v
        theta = theta - cfg.eta * grad + np.sqrt(2 * cfg.eta) * common.standard_normal(2)
        np.testing.assert_allclose(res.avg_traj[0, s], theta, rtol=1e-12)


def test_sgld_step_rejects_nonpositive_eta():
    cfg = _sgld_config(eta=0.0)
    with pytest.raises(ValueError, match="step size must be positive"):
        run(cfg, build_dataset(cfg))


def test_draw_round_flag_threshold_and_validation():
    """Round flags are Bernoulli(p_c) draws; p_c must lie in (0, 1]."""
    cfg = RunConfig(algorithm="FALD", k=1, dim=1, n_samples=2, p_b=1.0, p_c=0.3,
                    s_total=10000, s_burn=0, theta_star=np.array([0.5]))
    data = build_dataset(cfg)
    rate = run(cfg, data).flags.mean()
    assert abs(rate - 0.3) < 4 * np.sqrt(0.3 * 0.7 / 10000)
    with pytest.raises(ValueError, match="aggregation probability"):
        run(dataclasses.replace(cfg, p_c=0.0), data)
    assert run(dataclasses.replace(cfg, p_c=1.0, s_total=50), data).flags.all()


class TestCorrelatedNoise:
    def test_tau_zero_is_private_draw(self):
        draw = np.random.default_rng(5).standard_normal(3)
        got = correlated_noise(0.0, 4, 3, None, np.random.default_rng(5))
        np.testing.assert_allclose(got, draw, rtol=1e-15)

    def test_tau_one_is_scaled_common_draw_and_skips_private(self):
        common = np.array([1.0, -1.0])
        dev = np.random.default_rng(6)
        got = correlated_noise(1.0, 4, 2, common, dev)
        np.testing.assert_allclose(got, common / 2.0, rtol=1e-15)
        # the device stream must be untouched
        assert np.array_equal(dev.standard_normal(4),
                              np.random.default_rng(6).standard_normal(4))

    def test_tau_mix_formula(self):
        common = np.array([2.0])
        priv = np.random.default_rng(7).standard_normal(1)
        got = correlated_noise(0.5, 2, 1, common, np.random.default_rng(7))
        np.testing.assert_allclose(got, np.sqrt(0.25) * common + np.sqrt(0.5) * priv)

    def test_moment_structure(self):
        """Per-device variance tau/K + (1-tau); cross-device covariance tau/K."""
        tau, K, reps = 0.6, 3, 20000
        rng = np.random.default_rng(8)
        a = np.empty(reps)
        b = np.empty(reps)
        for i in range(reps):
            common = rng.standard_normal(1)
            a[i] = correlated_noise(tau, K, 1, common, rng)[0]
            b[i] = correlated_noise(tau, K, 1, common, rng)[0]
        var_target = tau / K + (1 - tau)
        cov_target = tau / K
        assert np.var(a) == pytest.approx(var_target, rel=0.06)
        assert np.cov(a, b)[0, 1] == pytest.approx(cov_target, abs=4 * var_target / np.sqrt(reps))


class TestFaldRound:
    def test_aggregation_replaces_particles_with_average(self):
        k = 3
        shards = _toy_problem(k)
        thetas = np.zeros((k, 2))
        agg, _ = fald_round(thetas, shards, run_streams(0, range(1), k)[0], 1e-2, 1.0, 1.0)
        assert agg is not None
        for theta in thetas:
            np.testing.assert_array_equal(theta, agg)

    def test_non_aggregation_round_returns_none_and_leaves_common_untouched(self):
        k = 2
        shards = _toy_problem(k)
        streams = run_streams(3, range(1), k)[0]
        thetas = np.zeros((k, 2))
        # replay the flag stream to find how many rounds aggregate before the
        # first local-only round
        flag_replay = run_streams(3, range(1), k)[0].flags
        n_agg = 0
        while flag_replay.random() < 0.5:
            n_agg += 1
        results = [fald_round(thetas, shards, streams, 1e-2, 1.0, 0.5)[0]
                   for _ in range(n_agg + 1)]
        assert all(r is not None for r in results[:n_agg])
        assert results[-1] is None
        # only the aggregation rounds consumed common draws
        reference = run_streams(3, range(1), k)[0].common
        if n_agg:
            reference.standard_normal((n_agg, 2))
        np.testing.assert_array_equal(streams.common.standard_normal(2),
                                      reference.standard_normal(2))

    def test_tau_override_consumes_common_on_non_aggregation_round(self):
        k = 2
        shards = _toy_problem(k)
        streams = run_streams(4, range(1), k)[0]
        untouched = run_streams(4, range(1), k)[0].common
        fald_round(np.zeros((k, 2)), shards, streams, 1e-2, 1.0, 0.5, tau_override=0.7)
        untouched.standard_normal(2)  # skip the draw the round used
        np.testing.assert_array_equal(streams.common.standard_normal(2),
                                      untouched.standard_normal(2))

    def test_devices_advance_with_local_steps(self):
        """At tau = 0 and full batch each device does its own gradient step."""
        k = 2
        shards = _toy_problem(k, seed=9)
        thetas = np.zeros((k, 2))
        noise_replay = run_streams(5, range(1), k)[0].noise
        eta = 1e-2
        # p_c tiny: no aggregation
        fald_round(thetas, shards, run_streams(5, range(1), k)[0], eta, 1.0, 1e-9)
        for i, theta in enumerate(thetas):
            expect = (np.zeros(2) - eta * local_grad(np.zeros(2), shards[i], k)
                      + np.sqrt(2 * eta) * noise_replay[i].standard_normal(2))
            np.testing.assert_allclose(theta, expect, rtol=1e-12)
