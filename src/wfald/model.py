"""Gaussian linear-regression benchmark: data, gradients, exact posterior.

The statistical model is ``v = theta^T u + eps`` with ``u ~ N(0, I_d)``,
``eps ~ N(0, noise_std^2)`` and a standard normal prior on theta.  The
negative log posterior splits evenly across K devices,

    f_k(theta) = -log p(D_k | theta) - (1/K) log p(theta),

so that the device costs sum to the global cost.  With unit noise the local
gradient is ``U_k (U_k^T theta - v_k) + theta / K`` and the posterior is the
Gaussian N((U U^T + I)^{-1} U v, (U U^T + I)^{-1}).

:func:`normal_equations` forms every Gram product of a run: U U^T + I and
U v for the posterior, U_k U_k^T + I/K and U_k v_k for the engine's
full-batch gradients and the measured constants alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------- types ---- #


@dataclass(frozen=True)
class Dataset:
    """Full synthetic dataset: covariates (d, n), targets (n,)."""

    covariates: np.ndarray
    targets: np.ndarray
    theta_star: np.ndarray | None = None

    def __post_init__(self):
        if self.covariates.ndim != 2:
            raise ValueError("covariates must be a (d, n) matrix")
        if self.targets.ndim != 1:
            raise ValueError("targets must be a vector")
        if self.covariates.shape[1] != self.targets.shape[0]:
            raise ValueError(
                f"covariate/target length mismatch: {self.covariates.shape[1]} != {self.targets.shape[0]}")
        if not (np.isfinite(self.covariates).all() and np.isfinite(self.targets).all()):
            raise ValueError("dataset contains non-finite values")

    @property
    def dim(self) -> int:
        return self.covariates.shape[0]

    @property
    def size(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class LocalDataset:
    """One device's shard. ``owner`` is the 0-based device index."""

    owner: int
    covariates: np.ndarray
    targets: np.ndarray

    @property
    def size(self) -> int:
        return self.targets.shape[0]

    @property
    def dim(self) -> int:
        return self.covariates.shape[0]


@dataclass(frozen=True)
class GaussianDist:
    """Multivariate Gaussian with a validated symmetric PSD covariance.

    Takes leading axes: a mean of shape (..., d) with a covariance of shape
    (..., d, d) holds one Gaussian per leading index, each checked on its own
    scale.  One Gaussian is the case without a leading axis.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        c = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "covariance", c)
        if c.shape != m.shape + m.shape[-1:]:
            raise ValueError(f"covariance shape {c.shape} does not match mean shape {m.shape}")
        scale = np.fmax(1.0, np.abs(c).max(axis=(-2, -1)))
        c_t = np.swapaxes(c, -1, -2)
        if (np.abs(c - c_t).max(axis=(-2, -1)) > 1e-10 * scale).any():
            raise ValueError("covariance is not symmetric within 1e-10 relative tolerance")
        w = np.linalg.eigvalsh(0.5 * (c + c_t))[..., 0]
        if (w < -1e-10 * scale).any():
            raise ValueError(f"covariance has negative eigenvalue {w.min():.3e}")

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


@dataclass(frozen=True)
class RegularityConstants:
    """Measured smoothness / convexity / gradient-scale constants.

    ``grad_noise_bounds[k]`` bounds E||stochastic grad - full grad||^2 for
    device k at the posterior mean.  ``grad_bound`` bounds ||grad f_k|| over
    the ball of radius ``region_radius`` around the posterior mean.
    """

    smoothness: float
    strong_convexity: float
    grad_bound: float
    grad_noise_bounds: np.ndarray
    region_radius: float

    def __post_init__(self):
        if not (0 < self.strong_convexity <= self.smoothness):
            raise ValueError(
                f"invalid constants: strong_convexity={self.strong_convexity}, "
                f"smoothness={self.smoothness}")

    @property
    def grad_noise_sq_sum(self) -> float:
        return float(np.sum(self.grad_noise_bounds))


# ------------------------------------------------------------ operations --- #


def generate_synthetic(n: int, dim: int, theta_star: np.ndarray,
                       noise_std: float, rng: np.random.Generator) -> Dataset:
    """Draw n covariate vectors from N(0, I_d) and noisy linear targets."""
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (dim,):
        raise ValueError(f"theta_star must have shape ({dim},)")
    if n < 1:
        raise ValueError("need at least one sample")
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    U = rng.standard_normal((dim, n))
    v = theta_star @ U + noise_std * rng.standard_normal(n)
    return Dataset(covariates=U, targets=v, theta_star=theta_star)


def partition_even(data: Dataset, k_devices: int) -> list[LocalDataset]:
    """Split the dataset into K contiguous shards, first (n mod K) get one extra."""
    n = data.size
    if not (1 <= k_devices <= n):
        raise ValueError(f"cannot split {n} samples across {k_devices} devices")
    base, extra = divmod(n, k_devices)
    shards, start = [], 0
    for k in range(k_devices):
        size = base + (1 if k < extra else 0)
        stop = start + size
        shards.append(LocalDataset(owner=k,
                                   covariates=data.covariates[:, start:stop],
                                   targets=data.targets[start:stop]))
        start = stop
    return shards


def local_grad(theta: np.ndarray, shard: LocalDataset, k_total: int) -> np.ndarray:
    """Full gradient of the device cost: U_k(U_k^T theta - v_k) + theta/K."""
    U, v = shard.covariates, shard.targets
    return U @ (U.T @ theta - v) + theta / k_total


def batch_size(p_b: float, n_k: int) -> int:
    """round(p_b * n_k), half away from zero, floored at one sample."""
    if not 0 < p_b <= 1:
        raise ValueError(f"batch fraction must be in (0, 1], got {p_b}")
    return max(1, int(np.floor(p_b * n_k + 0.5)))


def normal_equations(data: Dataset | LocalDataset,
                     k_total: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Hessian U U^T + I/K and linear term U v of a cost that holds 1/K of the prior.

    With K = 1 on the whole dataset: the posterior's precision and shift.
    """
    U = data.covariates
    return U @ U.T + np.eye(data.dim) / k_total, U @ data.targets


def exact_posterior(data: Dataset) -> GaussianDist:
    """Closed-form Gaussian posterior N((UU^T+I)^{-1} U v, (UU^T+I)^{-1})."""
    A, b = normal_equations(data)
    cov = np.linalg.inv(A)
    return GaussianDist(mean=np.linalg.solve(A, b), covariance=0.5 * (cov + cov.T))


def _sigma_closed_form(shard: LocalDataset, p_b: float, theta: np.ndarray) -> float:
    """Exact E||stochastic - full gradient||^2 at theta, without replacement.

    With g_n = (theta^T u_n - v_n) u_n, a batch C of size m and nominal
    rescale 1/p_b:

        E||.||^2 = (m/p_b^2) * (n-m)/(n-1) * popvar(g)
                   + (m/p_b - n)^2 * ||mean(g)||^2

    The second term is the bias of the nominal rescale; it vanishes whenever
    p_b * n is an integer, and the whole expression is 0 at p_b = 1.
    """
    n = shard.size
    m = batch_size(p_b, n)
    if m >= n:
        return 0.0
    resid = shard.covariates.T @ theta - shard.targets
    g = resid[None, :] * shard.covariates          # (d, n) per-sample gradients
    g_mean = g.mean(axis=1)
    popvar = float(np.sum((g - g_mean[:, None]) ** 2) / n)
    var = (m / p_b**2) * (n - m) / (n - 1) * popvar
    bias_sq = (m / p_b - n) ** 2 * float(g_mean @ g_mean)
    return var + bias_sq


def measure_constants(shards: list[LocalDataset], k_total: int, mu_p: np.ndarray,
                      region_radius: float, p_b: float) -> RegularityConstants:
    """Measure smoothness, strong convexity, gradient bound and batch noise.

    Smoothness / strong convexity are the extreme eigenvalues of the device
    Hessians U_k U_k^T + I/K.  The gradient bound is taken over the ball of
    radius ``region_radius`` centered at the posterior mean ``mu_p``:
    max_k ||grad f_k(mu_p)|| + L * region_radius; a radius whose G^2
    overflows is a ValueError.  Batch-noise bounds are evaluated at ``mu_p``
    in closed form.
    """
    if region_radius <= 0:
        raise ValueError("region_radius must be positive")

    l_max, mu_min = -np.inf, np.inf
    for shard in shards:
        w = np.linalg.eigvalsh(normal_equations(shard, k_total)[0])
        l_max = max(l_max, float(w[-1]))
        mu_min = min(mu_min, float(w[0]))

    grad_center = max(float(np.linalg.norm(local_grad(mu_p, s, k_total))) for s in shards)
    grad_bound = grad_center + l_max * region_radius
    if not np.isfinite(grad_bound * grad_bound):  # the bounds take G^2
        raise ValueError(f"region_radius {region_radius:g} takes the squared gradient bound "
                         f"G^2 = ({grad_bound:.3g})^2 past the float range")

    sigma_sq = np.array([_sigma_closed_form(s, p_b, mu_p) for s in shards])

    return RegularityConstants(smoothness=l_max, strong_convexity=mu_min,
                               grad_bound=grad_bound,
                               grad_noise_bounds=sigma_sq,
                               region_radius=region_radius)
