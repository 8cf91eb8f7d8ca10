"""Data model, gradients, posterior and measured regularity constants."""

import numpy as np
import pytest

from round_reference import draw_batch, stochastic_grad
from wfald.model import (Dataset, GaussianDist, LocalDataset,
                         RegularityConstants, _sigma_closed_form, batch_size,
                         exact_posterior, generate_synthetic, local_grad,
                         measure_constants, partition_even)


def _shard(U, v, owner=0):
    return LocalDataset(owner=owner, covariates=np.asarray(U, float),
                        targets=np.asarray(v, float))


# ------------------------------------------------------------ dataset --- #


def test_generate_synthetic_shapes_and_model():
    rng = np.random.default_rng(0)
    star = np.array([2.0, -1.0])
    data = generate_synthetic(50, 2, star, 0.0, rng)
    assert data.covariates.shape == (2, 50)
    assert data.targets.shape == (50,)
    # with zero observation noise the targets are exactly linear
    np.testing.assert_allclose(data.targets, star @ data.covariates, rtol=1e-12)


def test_generate_synthetic_is_deterministic_per_seed():
    a = generate_synthetic(20, 3, np.zeros(3), 1.0, np.random.default_rng(5))
    b = generate_synthetic(20, 3, np.zeros(3), 1.0, np.random.default_rng(5))
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.targets, b.targets)


def test_generate_synthetic_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_synthetic(10, 2, np.zeros(3), 1.0, rng)
    with pytest.raises(ValueError):
        generate_synthetic(0, 2, np.zeros(2), 1.0, rng)
    with pytest.raises(ValueError):
        generate_synthetic(10, 2, np.zeros(2), -1.0, rng)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(covariates=np.zeros((2, 5)), targets=np.zeros(4))
    with pytest.raises(ValueError):
        Dataset(covariates=np.array([[np.inf, 0.0]]), targets=np.zeros(2))


def test_partition_even_contiguous_with_remainder():
    data = Dataset(covariates=np.arange(11, dtype=float)[None, :],
                   targets=np.arange(11, dtype=float))
    shards = partition_even(data, 3)
    assert [s.size for s in shards] == [4, 4, 3]
    assert [s.owner for s in shards] == [0, 1, 2]
    glued = np.concatenate([s.targets for s in shards])
    assert np.array_equal(glued, data.targets)


def test_partition_even_rejects_too_many_devices():
    data = Dataset(covariates=np.zeros((1, 3)), targets=np.zeros(3))
    with pytest.raises(ValueError):
        partition_even(data, 4)


# ---------------------------------------------------------- gradients --- #


def test_local_grad_hand_case():
    # U_k = [[1,0],[0,2]], v = [1,1], theta = [1,1], K = 2:
    # U_k^T theta = [1,2]; residual [0,1]; U_k residual = [0,2]; + theta/2
    shard = _shard([[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0])
    g = local_grad(np.array([1.0, 1.0]), shard, 2)
    np.testing.assert_allclose(g, [0.5, 2.5])


def test_global_grad_is_sum_of_local_grads():
    """The device gradients sum to the global one, (U U^T + I) theta - U v."""
    rng = np.random.default_rng(3)
    data = generate_synthetic(30, 4, rng.standard_normal(4), 1.0, rng)
    shards = partition_even(data, 5)
    theta = rng.standard_normal(4)
    total = sum(local_grad(theta, s, 5) for s in shards)
    U, v = data.covariates, data.targets
    np.testing.assert_allclose(total, (U @ U.T + np.eye(4)) @ theta - U @ v, rtol=1e-10)


def test_batch_size_rounding():
    assert batch_size(0.4, 40) == 16
    assert batch_size(0.4, 41) == 16    # 16.4 rounds down
    assert batch_size(0.5, 5) == 3      # 2.5 rounds half away from zero
    assert batch_size(0.01, 10) == 1    # floored at one sample
    assert batch_size(1.0, 7) == 7
    with pytest.raises(ValueError):
        batch_size(0.0, 10)


def test_draw_batch_properties():
    rng = np.random.default_rng(9)
    idx = draw_batch(rng, 20, 7)
    assert idx.shape == (7,)
    assert len(np.unique(idx)) == 7
    assert idx.min() >= 0 and idx.max() < 20
    # full batch consumes no randomness and is the identity
    before = np.random.default_rng(9).random(5)
    rng2 = np.random.default_rng(9)
    assert np.array_equal(draw_batch(rng2, 6, 6), np.arange(6))
    assert np.array_equal(rng2.random(5), before)


def test_stochastic_grad_full_batch_equals_local_grad():
    rng = np.random.default_rng(1)
    shard = _shard(rng.standard_normal((3, 8)), rng.standard_normal(8))
    theta = rng.standard_normal(3)
    g = stochastic_grad(theta, shard, 1.0, rng, 4)
    np.testing.assert_allclose(g, local_grad(theta, shard, 4), rtol=1e-12)


def test_stochastic_grad_unbiased_when_batch_exact():
    """With p_b * n integral the nominal 1/p_b rescale is exactly unbiased."""
    rng = np.random.default_rng(2)
    shard = _shard(rng.standard_normal((2, 10)), rng.standard_normal(10))
    theta = np.array([0.3, -0.7])
    target = local_grad(theta, shard, 3)
    draws = np.stack([stochastic_grad(theta, shard, 0.5, rng, 3) for _ in range(20000)])
    mc_mean = draws.mean(axis=0)
    mc_se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
    assert np.all(np.abs(mc_mean - target) < 4 * mc_se)


# ---------------------------------------------------------- posterior --- #


def test_exact_posterior_hand_case():
    # U = [[1, 1]], v = [1, 2]: A = 3, Uv = 3 -> mean 1, variance 1/3
    data = Dataset(covariates=np.array([[1.0, 1.0]]), targets=np.array([1.0, 2.0]))
    post = exact_posterior(data)
    np.testing.assert_allclose(post.mean, [1.0], rtol=1e-14)
    np.testing.assert_allclose(post.covariance, [[1.0 / 3.0]], rtol=1e-14)


def test_exact_posterior_matches_grid_integration():
    rng = np.random.default_rng(4)
    data = generate_synthetic(12, 1, np.array([0.8]), 1.0, rng)
    post = exact_posterior(data)
    grid = np.linspace(post.mean[0] - 8 * np.sqrt(post.covariance[0, 0]),
                       post.mean[0] + 8 * np.sqrt(post.covariance[0, 0]), 20001)
    resid = data.covariates.T @ grid[None, :].repeat(1, axis=0) - data.targets[:, None]
    log_unnorm = -0.5 * np.sum(resid ** 2, axis=0) - 0.5 * grid ** 2
    w = np.exp(log_unnorm - log_unnorm.max())
    z = np.trapezoid(w, grid)
    mean = np.trapezoid(w * grid, grid) / z
    var = np.trapezoid(w * (grid - mean) ** 2, grid) / z
    assert abs(mean - post.mean[0]) < 1e-8 * max(1.0, abs(mean))
    assert abs(var - post.covariance[0, 0]) < 1e-8 * var


def test_gaussian_dist_validation():
    with pytest.raises(ValueError):
        GaussianDist(mean=np.zeros(2), covariance=np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        GaussianDist(mean=np.zeros(2), covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
    # a stack is checked item by item, each on its own scale
    good = np.array([np.eye(2), 1e-6 * np.eye(2), 1e6 * np.eye(2)])
    assert GaussianDist(mean=np.zeros((3, 2)), covariance=good).dim == 2
    for bad in ([[1.0, 0.5], [0.4, 1.0]], [[1.0, 2.0], [2.0, 1.0]]):
        with pytest.raises(ValueError):
            GaussianDist(mean=np.zeros((3, 2)), covariance=np.concatenate([good[:2], [bad]]))
    with pytest.raises(ValueError, match="shape"):
        GaussianDist(mean=np.zeros((3, 2)), covariance=np.eye(2))


# ---------------------------------------------------------- constants --- #


def test_measure_constants_single_device_hand_case():
    """One device holding U = diag(1, 2): Hessian diag(2, 5), gradient zero at the mode."""
    data = Dataset(covariates=np.array([[1.0, 0.0], [0.0, 2.0]]),
                   targets=np.array([1.0, 1.0]))
    shards = partition_even(data, 1)
    consts = measure_constants(shards, 1, exact_posterior(data).mean, region_radius=0.5, p_b=1.0)
    assert consts.smoothness == pytest.approx(5.0, rel=1e-12)
    assert consts.strong_convexity == pytest.approx(2.0, rel=1e-12)
    # the full gradient vanishes at the posterior mean, so G = L * radius
    assert consts.grad_bound == pytest.approx(5.0 * 0.5, rel=1e-10)
    assert consts.grad_noise_sq_sum == 0.0


def test_sigma_closed_form_matches_enumeration():
    """Frozen from exhaustive enumeration of all size-3 batches of 5 samples."""
    rng = np.random.default_rng(11)
    U = rng.standard_normal((2, 5))
    v = rng.standard_normal(5)
    shard = _shard(U, v)
    theta = np.linalg.solve(U @ U.T + np.eye(2), U @ v)
    got = _sigma_closed_form(shard, 0.5, theta)
    assert got == pytest.approx(2.3371035564579614, rel=1e-12)


def test_sigma_empirical_agrees_with_closed_form():
    """A Monte Carlo average over resampled batches matches the closed form."""
    rng = np.random.default_rng(6)
    shard = _shard(rng.standard_normal((3, 25)), rng.standard_normal(25))
    theta = rng.standard_normal(3)
    exact = _sigma_closed_form(shard, 0.4, theta)
    full = local_grad(theta, shard, 4)
    m = batch_size(0.4, shard.size)
    keys = np.random.default_rng(7).random((40000, shard.size))
    idx = np.argpartition(keys, m, axis=1)[:, :m]
    Ub = shard.covariates[:, idx]                   # (d, batches, m)
    resid = np.einsum("dbm,d->bm", Ub, theta) - shard.targets[idx]
    dev = np.einsum("dbm,bm->bd", Ub, resid) / 0.4 + theta / 4 - full
    approx = float(np.mean(np.sum(dev * dev, axis=1)))
    assert approx == pytest.approx(exact, rel=0.05)


def test_sigma_zero_at_full_batch():
    rng = np.random.default_rng(8)
    shard = _shard(rng.standard_normal((2, 6)), rng.standard_normal(6))
    assert _sigma_closed_form(shard, 1.0, np.zeros(2)) == 0.0


def test_measure_constants_grad_bound_grows_with_radius():
    rng = np.random.default_rng(10)
    data = generate_synthetic(60, 3, rng.standard_normal(3), 1.0, rng)
    shards = partition_even(data, 4)
    mean = exact_posterior(data).mean
    small = measure_constants(shards, 4, mean, region_radius=0.1, p_b=0.5)
    large = measure_constants(shards, 4, mean, region_radius=2.0, p_b=0.5)
    assert large.grad_bound > small.grad_bound
    assert large.smoothness == small.smoothness


def test_regularity_constants_validation():
    with pytest.raises(ValueError):
        RegularityConstants(smoothness=1.0, strong_convexity=2.0, grad_bound=1.0,
                            grad_noise_bounds=np.zeros(1), region_radius=1.0)
