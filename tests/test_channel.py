"""Channel layer tests: scaling, power control, superposition, residual noise."""

import numpy as np
import pytest

from wfald.channel import (
    ChannelConfig,
    check_power,
    inversion_power_gain,
    noma_superpose,
    power_gain,
    receive_aggregate,
    residual_noise_power,
)


def test_from_snr_db_hand_value():
    # 10 dB at unit power over 5 channel uses: N0 = 1 / (5 * 10) = 0.02
    chan = ChannelConfig.from_snr_db(10.0, block_dim=5, power=1.0)
    assert chan.noise_level == pytest.approx(0.02, rel=1e-12)
    assert chan.snr == pytest.approx(10.0, rel=1e-12)


def test_from_snr_db_none_is_noiseless():
    chan = ChannelConfig.from_snr_db(None, block_dim=3)
    assert chan.noise_level == 0.0
    assert chan.snr == np.inf


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(power=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(noise_level=-1e-9)
    with pytest.raises(ValueError):
        ChannelConfig(block_dim=0)
    with pytest.raises(ValueError):
        ChannelConfig(gain_model="awgn")
    with pytest.raises(ValueError):
        ChannelConfig(gain_model="constant", gain_value=0.0)


class TestPowerGain:
    def test_frozen_hand_case(self):
        # cap = sqrt(8 / (2 * 0.5 * 2)) = 2; power branch = min(3*1/3, 3*2/1) = 1
        payloads = np.array([[3.0, 0.0], [0.0, 1.0]])
        gains = np.array([1.0, 2.0])
        alpha = power_gain(payloads, gains, power=9.0, noise_level=8.0,
                           eta=0.5, k_total=2)
        assert alpha == pytest.approx(1.0, rel=1e-15)
        beta = residual_noise_power(alpha, 8.0, 0.5, 2)
        assert beta == pytest.approx(1.5, rel=1e-12)

    def test_cap_branch_binds_when_power_is_ample(self):
        payloads = np.array([[3.0, 0.0], [0.0, 1.0]])
        gains = np.array([1.0, 2.0])
        alpha = power_gain(payloads, gains, power=1e6, noise_level=8.0,
                           eta=0.5, k_total=2)
        assert alpha == pytest.approx(2.0, rel=1e-15)
        assert residual_noise_power(alpha, 8.0, 0.5, 2) == 0.0

    def test_noiseless_channel_uses_power_branch_only(self):
        payloads = np.array([[3.0, 0.0], [0.0, 1.0]])
        gains = np.array([1.0, 2.0])
        alpha = power_gain(payloads, gains, power=9.0, noise_level=0.0,
                           eta=0.5, k_total=2)
        assert alpha == pytest.approx(1.0, rel=1e-15)

    def test_zero_payload_device_imposes_no_constraint(self):
        payloads = np.array([[0.0, 0.0], [0.0, 1.0]])
        gains = np.array([1.0, 2.0])
        alpha = power_gain(payloads, gains, power=9.0, noise_level=0.0,
                           eta=0.5, k_total=2)
        # only the second device is active: sqrt(9) * 2 / 1
        assert alpha == pytest.approx(6.0, rel=1e-15)

    def test_all_zero_payloads_fall_back_to_unit_gain(self):
        payloads = np.zeros((3, 2))
        gains = np.ones(3)
        assert power_gain(payloads, gains, 1.0, 0.0, 0.5, 3) == 1.0

    def test_inversion_gain_matches_power_branch(self):
        payloads = np.array([[3.0, 0.0], [0.0, 1.0]])
        gains = np.array([1.0, 2.0])
        assert inversion_power_gain(payloads, gains, 9.0) == pytest.approx(1.0)
        assert inversion_power_gain(np.zeros((2, 2)), gains, 9.0) == 1.0

    def test_scaled_signals_respect_power_budget(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            payloads = rng.normal(size=(4, 3)) * rng.uniform(0.1, 10)
            gains = rng.uniform(0.2, 3.0, size=4)
            power = rng.uniform(0.5, 5.0)
            alpha = power_gain(payloads, gains, power, rng.uniform(0, 2),
                               eta=1e-2, k_total=4)
            signals = (alpha / gains)[:, None] * payloads
            assert check_power(np.sum(signals * signals, axis=-1), power).all()


def test_receive_aggregate_hand_case():
    out = receive_aggregate(np.array([4.0, -2.0]), alpha=2.0, k_total=2)
    assert np.array_equal(out, np.array([1.0, -0.5]))


def test_receive_aggregate_rejects_nonpositive_gain():
    with pytest.raises(ValueError):
        receive_aggregate(np.array([1.0]), alpha=0.0, k_total=2)


def test_residual_noise_snaps_float_remnants_to_zero():
    # alpha on the noise-matched cap; the subtraction leaves only rounding
    eta, k, n0 = 3e-3, 30, 0.02
    alpha = np.sqrt(n0 / (2.0 * eta * k))
    assert residual_noise_power(float(alpha), n0, eta, k) == 0.0


def test_residual_noise_positive_when_power_limited():
    assert residual_noise_power(1.0, 8.0, 0.5, 2) == pytest.approx(1.5)


def test_noiseless_residual_is_zero_for_any_gain():
    """(alpha K)^2 underflows to 0 here; a noiseless channel still has no excess."""
    assert residual_noise_power(np.array([1e-300, 1.0]), 0.0, 0.5, 2).tolist() == [0.0, 0.0]


class TestSuperposition:
    def test_noise_draw_replays_from_stream(self):
        signals = np.array([[1.0, 2.0], [3.0, -1.0]])
        gains = np.array([2.0, 0.5])
        n0 = 0.09
        draw = np.random.default_rng(42).standard_normal(2)
        y, z = noma_superpose(signals, gains, draw, n0)
        z_expect = np.sqrt(n0) * np.random.default_rng(42).standard_normal(2)
        assert np.array_equal(z, z_expect)
        assert np.allclose(y, gains @ signals + z_expect, rtol=1e-15)

    def test_noiseless_round_still_consumes_the_stream(self):
        """The noise block is an input: a noiseless channel takes it and adds zero."""
        signals = np.ones((2, 3))
        gains = np.ones(2)
        draw = np.random.default_rng(5).standard_normal(3)
        y, z = noma_superpose(signals, gains, draw, 0.0)
        assert np.array_equal(z, np.zeros(3))
        assert np.array_equal(y, gains @ signals)

    def test_rejects_flat_signal_array(self):
        with pytest.raises(ValueError):
            noma_superpose(np.ones(4), np.ones(4), np.zeros(4), 0.0)

    def test_noise_variance_matches_level(self):
        n0 = 0.37
        signals = np.zeros((2, 200_000))
        draw = np.random.default_rng(3).standard_normal(200_000)
        _, z = noma_superpose(signals, np.ones(2), draw, n0)
        assert np.var(z) == pytest.approx(n0, rel=0.03)


def test_leading_replicate_axis_matches_per_replicate_calls():
    rng = np.random.default_rng(11)
    payloads = rng.normal(size=(6, 4, 3))
    payloads[2, 1] = 0.0                    # an inactive device
    payloads[3] = 0.0                       # a replicate with no active device
    gains = rng.uniform(0.2, 3.0, size=(6, 4))
    noise = rng.standard_normal((6, 3))
    power, n0, eta, k = 2.0, 0.4, 1e-2, 4

    alpha = power_gain(payloads, gains, power, n0, eta, k)
    inv = inversion_power_gain(payloads, gains, power)
    signals = (alpha[:, None] / gains)[..., None] * payloads
    y, z = noma_superpose(signals, gains, noise, n0)
    received = receive_aggregate(y, alpha, k)
    beta = residual_noise_power(alpha, n0, eta, k)
    assert alpha.shape == inv.shape == beta.shape == (6,)
    sq = np.sum(signals * signals, axis=-1)
    assert check_power(sq, power).shape == (6, 4)
    for r in range(6):
        assert alpha[r] == power_gain(payloads[r], gains[r], power, n0, eta, k)
        assert inv[r] == inversion_power_gain(payloads[r], gains[r], power)
        assert np.array_equal(check_power(sq[r], power), check_power(sq, power)[r])
        y_r, z_r = noma_superpose(signals[r], gains[r], noise[r], n0)
        np.testing.assert_allclose(y[r], y_r, rtol=1e-14)
        assert np.array_equal(z[r], z_r)
        np.testing.assert_allclose(received[r], receive_aggregate(y_r, alpha[r], k), rtol=1e-14)
        assert beta[r] == residual_noise_power(alpha[r], n0, eta, k)
    assert inv[3] == 1.0


def test_check_power_boundary():
    """The check takes squared norms ||x_k||^2, one per device."""
    p = 4.0
    at = np.array([4.0])
    over = np.array([4.0 * (1 + 1e-6)])
    assert check_power(at, p).all()
    assert not check_power(over, p).any()
    assert check_power(np.array([1.0, 2.0, 3.0]), 2.0).tolist() == [True, True, False]


def test_draw_gains_models():
    chan = ChannelConfig(gain_model="constant", gain_value=0.8)
    assert np.array_equal(chan.draw_gains(4, np.random.default_rng(0)),
                          np.full(4, 0.8))
    ray = ChannelConfig(gain_model="rayleigh")
    got = ray.draw_gains(6, np.random.default_rng(9))
    expect = np.random.default_rng(9).rayleigh(2 ** -0.5, 6)
    assert np.array_equal(got, expect)
    # a (rounds, K) block consumes the stream like one K-gain draw per round
    block_rng, round_rng = np.random.default_rng(4), np.random.default_rng(4)
    block = ray.draw_gains((5, 3), block_rng)
    assert np.array_equal(block, np.stack([ray.draw_gains(3, round_rng) for _ in range(5)]))
    assert block_rng.random() == round_rng.random()
    # scale 1/sqrt(2) gives unit mean-square gain
    big = ray.draw_gains(200_000, np.random.default_rng(1))
    assert np.mean(big ** 2) == pytest.approx(1.0, rel=0.02)
