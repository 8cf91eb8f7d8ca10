"""Analysis tests: Wasserstein distances, bound evaluators, error metrics."""

import dataclasses
import warnings

import numpy as np
import pytest

from batch_means import batch_means_se
from wfald.analysis import (
    BoundInputs,
    contraction_gamma,
    drift_bounds,
    drift_free_term,
    empirical_gaussian,
    gaussian_w2_squared,
    per_device_mse,
    predictive_error,
    running_mse,
    w2_bound_sequence,
)
from wfald.model import GaussianDist, RegularityConstants


def gauss(mean, cov):
    return GaussianDist(mean=np.atleast_1d(np.asarray(mean, dtype=float)),
                        covariance=np.atleast_2d(np.asarray(cov, dtype=float)))


class TestWassersteinSquared:
    def test_one_dimensional_hand_case(self):
        # (mu1 - mu2)^2 + (sd1 - sd2)^2 = 4 + 1
        a = gauss([0.0], [[1.0]])
        b = gauss([2.0], [[4.0]])
        assert gaussian_w2_squared(a, b) == pytest.approx(5.0, rel=1e-12)

    def test_identical_distributions(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        dist = gauss(rng.standard_normal(3), A @ A.T + np.eye(3))
        assert gaussian_w2_squared(dist, dist) == pytest.approx(0.0, abs=1e-10)

    def test_point_mass_against_gaussian(self):
        cov = np.diag([1.0, 4.0])
        mu = np.array([3.0, -1.0])
        point = gauss(np.zeros(2), np.zeros((2, 2)))
        target = gauss(mu, cov)
        expect = float(mu @ mu) + np.trace(cov)
        assert gaussian_w2_squared(point, target) == pytest.approx(expect, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            A = rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4))
            p = gauss(rng.standard_normal(4), A @ A.T + 0.1 * np.eye(4))
            q = gauss(rng.standard_normal(4), B @ B.T + 0.1 * np.eye(4))
            assert gaussian_w2_squared(p, q) == pytest.approx(
                gaussian_w2_squared(q, p), rel=1e-9, abs=1e-11)

    def test_mean_shift_only(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        p = gauss([0.0, 0.0], cov)
        q = gauss([1.0, -2.0], cov)
        assert gaussian_w2_squared(p, q) == pytest.approx(5.0, rel=1e-10)


def test_empirical_gaussian_recovers_moments():
    rng = np.random.default_rng(12)
    samples = rng.standard_normal((400, 3)) @ np.diag([1.0, 2.0, 0.5]) + [1.0, 0.0, -1.0]
    fit = empirical_gaussian(samples)
    np.testing.assert_allclose(fit.mean, samples.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(fit.covariance, np.cov(samples.T, ddof=1), rtol=1e-10)


def test_empirical_gaussian_needs_enough_samples():
    with pytest.raises(ValueError):
        empirical_gaussian(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        empirical_gaussian(np.zeros((4, 3, 3)))


def assert_bitwise(actual, expected):
    np.testing.assert_array_equal(np.asarray(actual, dtype=float).view(np.uint64),
                                  np.asarray(expected, dtype=float).view(np.uint64))


def fit_and_distance(samples, q):
    """``(fit, w2, warning messages)`` of one call on ``samples``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = empirical_gaussian(samples)
        w2 = gaussian_w2_squared(fit, q)
    return fit, w2, [str(w.message) for w in caught]


class TestBatchedFits:
    """A stack of fits and distances equals one call per item, bit for bit."""

    def check_stack(self, samples, q):
        fit, w2, warned = fit_and_distance(samples, q)
        items = [fit_and_distance(x, q) for x in samples]
        assert fit.mean.shape == samples.shape[:1] + samples.shape[2:]
        assert fit.covariance.shape == fit.mean.shape + samples.shape[2:]
        assert all(isinstance(item_w2, float) for _, item_w2, _ in items)
        assert_bitwise(fit.mean, [f.mean for f, _, _ in items])
        assert_bitwise(fit.covariance, [f.covariance for f, _, _ in items])
        assert_bitwise(w2, [item_w2 for _, item_w2, _ in items])
        assert warned == [m for _, _, msgs in items for m in msgs]
        return fit

    def test_stack_with_a_rank_deficient_round(self):
        rng = np.random.default_rng(3)
        scales = np.array([0.1, 1.0, 30.0, 2.0, 0.5, 5.0])
        samples = rng.standard_normal((6, 12, 3)) * scales[:, None, None] + [1.0, -2.0, 0.5]
        # round 2: the third coordinate is a combination of the first two
        x = np.random.default_rng(0).standard_normal((12, 2))
        samples[2] = np.column_stack([x, x[:, 0] - 0.7 * x[:, 1]])
        raw = np.cov(samples[2], rowvar=False)
        assert np.linalg.eigvalsh(raw)[0] < 0, "round 2 must reach the clamp"
        q = gauss([0.5, -1.0, 2.0], [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
        fit = self.check_stack(samples, q)
        assert not np.array_equal(fit.covariance[2], raw)  # clamped
        np.testing.assert_allclose(fit.covariance[2], raw, atol=1e-14)

    def test_one_dimensional_stack(self):
        # numpy sums a lone column pairwise, several columns row by row
        samples = np.random.default_rng(4).standard_normal((4, 300, 1)) * 7.0 + 1e3
        self.check_stack(samples, gauss([1e3], [[49.0]]))

    def test_bound_rows_equal_single_replicate_calls(self):
        rng = np.random.default_rng(5)
        beta = np.where(rng.random((7, 40)) < 0.5, 0.0, rng.exponential(size=(7, 40)))
        inputs = BoundInputs(smoothness=2.0, strong_convexity=0.5, grad_bound=1.3,
                             sigma_sq_sum=0.7, eta=0.1, p_c=0.4, k=7, dim=3,
                             w2_init_sq=2.5, beta_by_round=beta)
        for mode in ("per_round", "final"):
            seqs = w2_bound_sequence(inputs, mode)
            assert seqs.shape == (7, 41)
            assert_bitwise(seqs, [w2_bound_sequence(dataclasses.replace(inputs, beta_by_round=row),
                                                    mode) for row in beta])


class TestContractionFactor:
    def test_small_step_branch(self):
        assert contraction_gamma(0.1, 2.0, 4.0) == pytest.approx(0.8)

    def test_intermediate_branch(self):
        # 2/(mu+L) = 1/3 < 0.4 <= 2/L = 0.5
        assert contraction_gamma(0.4, 2.0, 4.0) == pytest.approx(0.6)

    def test_rejects_large_steps(self):
        with pytest.raises(ValueError, match="2/smoothness"):
            contraction_gamma(0.6, 2.0, 4.0)
        with pytest.raises(ValueError):
            contraction_gamma(0.0, 2.0, 4.0)

    def test_rejects_factors_that_round_to_one(self):
        # 1 - 1e-18 * 2 and 0.5 * 4 - 1 are both exactly 1.0 in floating point
        for eta in (1e-18, 0.5):
            with pytest.raises(ValueError, match="rounds to 1"):
                contraction_gamma(eta, 2.0, 4.0)


def unit_bound_inputs(beta):
    return BoundInputs(smoothness=1.0, strong_convexity=1.0, grad_bound=0.0,
                       sigma_sq_sum=0.0, eta=0.5, p_c=1.0, k=1, dim=1,
                       w2_init_sq=1.0, beta_by_round=np.asarray(beta, dtype=float))


class TestBoundSequence:
    """Frozen oracle: gamma = 0.5, r^2 = 0.5625, drift-free term = 7/3.

    With eta = 0.5, L = mu = 1, K = 1, d = 1, G = 0, sigma = 0 the bracket is
    eta^4/3 + eta^3 = 7/48 and the prefactor 8(1+gamma)/(3(1-gamma)^2) = 16.
    Channel terms follow beta = [0, 2, 0] through both accumulation modes.
    """

    def test_drift_free_term_value(self):
        assert drift_free_term(unit_bound_inputs([0.0])) == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_per_round_accumulation(self):
        out = w2_bound_sequence(unit_bound_inputs([0.0, 2.0, 0.0]), beta_mode="per_round")
        np.testing.assert_allclose(
            out,
            [1.0, 2.8958333333333335, 3.7747395833333335, 3.1441243489583335],
            rtol=1e-13)

    def test_final_mode_accumulation(self):
        out = w2_bound_sequence(unit_bound_inputs([0.0, 2.0, 0.0]), beta_mode="final")
        np.testing.assert_allclose(
            out,
            [1.0, 2.8958333333333335, 4.407552083333334, 4.625081380208334],
            rtol=1e-13)

    def test_noiseless_modes_agree(self):
        inputs = unit_bound_inputs(np.zeros(6))
        a = w2_bound_sequence(inputs, beta_mode="per_round")
        b = w2_bound_sequence(inputs, beta_mode="final")
        np.testing.assert_allclose(a, b, rtol=1e-14)
        # pure contraction toward the drift-free floor
        assert (np.diff(a[1:]) <= 0).all()
        assert a[-1] >= drift_free_term(inputs)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="beta_mode"):
            w2_bound_sequence(unit_bound_inputs([0.0]), beta_mode="average")


def test_drift_bounds_hand_case():
    constants = RegularityConstants(
        smoothness=2.0, strong_convexity=1.0, grad_bound=1.0,
        grad_noise_bounds=np.array([1.0, 2.0]), region_radius=1.0)
    vt_bound, vc_bound = drift_bounds(constants, eta=0.5, p_c=0.5, k=2, dim=1,
                                      v_theta_measured=0.25)
    # 2(1-pc)/pc = 2;  (2+pc) eta^2/pc G^2 = 1.25, eta^2/K sum = 0.375,
    # 2(K-1) eta d / K = 0.5  ->  2 * 2.125
    assert vt_bound == pytest.approx(4.25, rel=1e-14)
    # K^2 L^2 vt + K sum = 4 * 4 * 0.25 + 2 * 3
    assert vc_bound == pytest.approx(10.0, rel=1e-14)


def test_drift_bounds_vanish_under_constant_aggregation():
    constants = RegularityConstants(
        smoothness=2.0, strong_convexity=1.0, grad_bound=1.0,
        grad_noise_bounds=np.array([1.0]), region_radius=1.0)
    vt_bound, _ = drift_bounds(constants, eta=0.5, p_c=1.0, k=1, dim=2,
                               v_theta_measured=0.0)
    assert vt_bound == 0.0


class TestErrorMetrics:
    def test_per_device_mse_hand_case(self):
        target = np.array([1.0, 0.0])
        dm = np.array([[[1.0, 0.0], [3.0, 0.0]],
                       [[1.0, 1.0], [1.0, -1.0]]])
        # replicate 0: (0 + 4)/2;  replicate 1: (1 + 1)/2
        np.testing.assert_allclose(per_device_mse(dm, target), [2.0, 1.0])

    def test_per_device_mse_dominates_collapsed_error(self):
        rng = np.random.default_rng(4)
        dm = rng.standard_normal((6, 5, 3))
        target = rng.standard_normal(3)
        collapsed = np.sum((dm.mean(axis=1) - target) ** 2, axis=-1)
        assert (per_device_mse(dm, target) >= collapsed - 1e-12).all()

    def test_running_mse_masks_burn_in(self):
        traj = np.zeros((2, 6, 2))
        traj[:, :, 0] = np.arange(6)
        out = running_mse(traj, 2, np.array([0.0, 0.0]))
        assert np.isnan(out[:2]).all()
        assert out[2] == pytest.approx(9.0)      # average of {3}
        assert out[3] == pytest.approx(12.25)    # average of {3, 4}
        assert out[-1] == pytest.approx(16.0)    # average of {3, 4, 5}

    def test_predictive_error_hand_case(self):
        thetas = np.array([[1.0, 0.0], [0.0, 0.0]])
        # two devices, two test covariates each as columns
        inputs = np.stack([np.eye(2), 2.0 * np.eye(2)])
        targets = np.array([[2.0, 0.0], [0.0, 1.0]])
        # estimate 0: device 0 predicts (1, 0), squared errors (1, 0), mean 0.5;
        # device 1 predicts (2, 0), squared errors (4, 1), mean 2.5
        # estimate 1: predicts zeros, device means 2.0 and 0.5
        np.testing.assert_allclose(predictive_error(thetas, inputs, targets), [1.5, 1.25])


class TestBatchMeansSE:
    def test_iid_standard_error(self):
        x = np.random.default_rng(3).standard_normal(40_000)
        se = batch_means_se(x)
        assert se == pytest.approx(1.0 / np.sqrt(40_000), rel=0.30)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            batch_means_se(np.ones(3))

    def test_vector_series(self):
        x = np.random.default_rng(5).standard_normal((10_000, 2))
        se = batch_means_se(x)
        assert se.shape == (2,)
        assert (se > 0).all()
