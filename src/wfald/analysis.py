"""Posterior-accuracy metrics, drift statistics and convergence bounds.

Provides

* exact 2-Wasserstein distances between Gaussians and moment fits of
  empirical particle clouds;
* posterior-mean mean-squared-error summaries of runs;
* the theoretical convergence bound for the federated Langevin protocols on a
  strongly log-concave target, as a per-iteration sequence;
* the client-drift upper bounds ``E[V_theta] <= v_theta_bound`` and
  ``E[V_c] <= K^2 L^2 E[V_theta] + K sum_k sigma_k^2``;
* the held-out predictive error of point estimates.

The Gaussian fits, the 2-Wasserstein distance and the bound sequence take
leading axes, so one call serves every round or every replicate of a run:
each item along the leading axes gets the arithmetic, and so the bits, of a
call without them.  One item is the case without a leading axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import GaussianDist, RegularityConstants

#: bytes of samples ``empirical_gaussian`` copies at a time; a stack of fits
#: is made in chunks of this size, so its transient stays small
_FIT_CHUNK_BYTES = 1 << 18


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _trace(mat: np.ndarray) -> np.ndarray:
    return np.trace(mat, axis1=-2, axis2=-1)


def gaussian_w2_squared(p: GaussianDist, q: GaussianDist) -> float | np.ndarray:
    """Squared 2-Wasserstein distance between two Gaussians.

    Uses the closed form ||m1 - m2||^2 + tr(C1 + C2 - 2 (C2^1/2 C1 C2^1/2)^1/2)
    (Givens & Shortt, Michigan Math. J. 31, 1984) with symmetric
    eigendecompositions throughout; the trace term is clamped at zero to
    absorb rounding on near-identical inputs.  The leading axes of ``p`` and
    ``q`` broadcast, and the result has their shape: a float for two single
    Gaussians, an array otherwise.  A single ``q`` has its square root taken
    once for all of ``p``.
    """
    dm = p.mean - q.mean
    root_q = _psd_sqrt(q.covariance)
    cross = _psd_sqrt(root_q @ p.covariance @ root_q)
    trace_term = _trace(p.covariance) + _trace(q.covariance) - 2.0 * _trace(cross)
    w2 = (dm[..., None, :] @ dm[..., :, None])[..., 0, 0] + np.maximum(trace_term, 0.0)
    return float(w2) if w2.ndim == 0 else w2


def empirical_gaussian(samples: np.ndarray) -> GaussianDist:
    """Moment-match a Gaussian to the rows of each (n, d) sample matrix, n >= d + 1.

    ``samples`` has shape (..., n, d); the fit has a mean of shape (..., d)
    and a covariance of shape (..., d, d).  Each item is computed as
    ``np.cov(rowvar=False)`` computes one: the mean, then the centred
    samples' Gram matrix (a BLAS syrk) times 1/(n - 1).  A fitted covariance
    with a negative eigenvalue has its eigenvalues clamped at zero, with a
    warning when the negative one is more than rounding.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim < 2:
        raise ValueError(f"expected a (..., n, d) sample array, got shape {samples.shape}")
    *lead, n, d = samples.shape
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} samples to fit a {d}-dimensional Gaussian, got {n}")
    flat = samples.reshape(-1, n, d)
    mean = np.empty((len(flat), d))
    cov = np.empty((len(flat), d, d))
    step = max(1, _FIT_CHUNK_BYTES // (8 * n * d))
    for start in range(0, len(flat), step):
        # a C-order copy, as np.cov makes, so each item's rows are summed in
        # the order of a single (n, d) fit
        x = np.array(flat[start:start + step], order="C")
        mu = x.mean(axis=-2)
        x -= mu[:, None, :]
        gram = np.swapaxes(x, -1, -2) @ x
        gram *= np.true_divide(1, n - 1)
        mean[start:start + step] = mu
        cov[start:start + step] = gram
    vals = np.linalg.eigvalsh(cov)
    for i in np.flatnonzero(vals[:, 0] < 0):
        if vals[i, 0] < -1e-8 * max(vals[i, -1], 1.0):
            warnings.warn(f"sample covariance has negative eigenvalue {vals[i, 0]:.3e}; clamping")
        vecs = np.linalg.eigh(cov[i])[1]
        clamped = (vecs * np.clip(vals[i], 0.0, None)) @ vecs.T
        cov[i] = 0.5 * (clamped + clamped.T)
    return GaussianDist(mean=mean.reshape(*lead, d), covariance=cov.reshape(*lead, d, d))


# ----------------------------------------------------------- run summaries --- #


def per_device_mse(device_mean: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Device-averaged squared error of the per-device posterior-mean estimates.

    This is the headline accuracy metric: each device's own post-burn-in time
    average is compared to the target and the squared errors are averaged over
    devices, so inter-device particle drift contributes.  Returns one value
    per replicate.
    """
    dm = np.asarray(device_mean)
    diff = dm - target
    return np.sum(diff * diff, axis=-1).mean(axis=-1)


def running_mse(avg_traj: np.ndarray, s_burn: int, target: np.ndarray) -> np.ndarray:
    """Running posterior-mean MSE per iteration, replicate-averaged.

    Entry s is the squared error of the time average of the device-averaged
    iterates over rounds (s_burn, s], averaged over replicates; entries with
    s <= s_burn are nan.
    """
    traj = np.asarray(avg_traj)
    R, S1, d = traj.shape
    out = np.full(S1 - 1, np.nan)
    # one (R, S - s_burn, d) array: the cumsum becomes the running estimate,
    # then its squared error, in place
    est = np.cumsum(traj[:, s_burn + 1:, :], axis=1)
    counts = np.arange(1, S1 - 1 - s_burn + 1)
    est /= counts[None, :, None]
    est -= target
    np.square(est, out=est)
    err = np.sum(est, axis=2)
    out[s_burn:] = err.mean(axis=0)
    return out


# ------------------------------------------------------- convergence bound --- #


def contraction_gamma(eta: float, strong_convexity: float, smoothness: float) -> float:
    """Per-step contraction factor of the Langevin recursion on the benchmark.

    Valid for step sizes up to 2/smoothness; below 2/(mu + L) the factor is
    1 - eta mu, between the two thresholds it is eta L - 1.  A factor that
    rounds to 1 contracts nothing and is a ValueError, like a step too large.
    """
    mu, L = strong_convexity, smoothness
    if eta <= 0:
        raise ValueError("step size must be positive")
    if eta > 2.0 / L:
        raise ValueError(f"step size {eta} exceeds 2/smoothness = {2.0 / L:.6g}; no contraction guarantee")
    gamma = 1.0 - eta * mu if eta <= 2.0 / (mu + L) else eta * L - 1.0
    if gamma >= 1.0:
        raise ValueError(f"step size {eta} gives a contraction factor that rounds to 1; "
                         "the bound is infinite")
    return gamma


@dataclass
class BoundInputs:
    """Everything the convergence-bound evaluator needs.

    ``beta_by_round`` is the realized residual channel-noise power per round
    (zero on rounds without wireless aggregation), shape (..., S) with one
    leading index per replicate, or (S,) for one; ``w2_init_sq`` the squared
    2-Wasserstein distance between the (deterministic) initialization and the
    target posterior.
    """

    smoothness: float
    strong_convexity: float
    grad_bound: float
    sigma_sq_sum: float
    eta: float
    p_c: float
    k: int
    dim: int
    w2_init_sq: float
    beta_by_round: np.ndarray

    @classmethod
    def from_run(cls, result, replicate: int | None = None) -> "BoundInputs":
        """Bound inputs of one replicate, or of all of them, shape (R, S), when None."""
        c = result.constants
        cfg = result.config
        init = GaussianDist(mean=np.zeros(cfg.dim), covariance=np.zeros((cfg.dim, cfg.dim)))
        beta = result.beta if replicate is None else result.beta[replicate]
        return cls(smoothness=c.smoothness, strong_convexity=c.strong_convexity,
                   grad_bound=c.grad_bound, sigma_sq_sum=c.grad_noise_sq_sum,
                   eta=cfg.eta, p_c=cfg.p_c, k=cfg.k, dim=cfg.dim,
                   w2_init_sq=gaussian_w2_squared(init, result.posterior),
                   beta_by_round=np.nan_to_num(beta, nan=0.0))


def drift_free_term(inputs: BoundInputs) -> float:
    """The iteration-independent part of the convergence bound."""
    eta, L, K, pc, d = inputs.eta, inputs.smoothness, inputs.k, inputs.p_c, inputs.dim
    G2 = inputs.grad_bound ** 2
    gamma = contraction_gamma(eta, inputs.strong_convexity, L)
    bracket = (eta ** 4 * L ** 3 * d / (3.0 * K)
               + eta ** 3 * L ** 2 * d
               + (eta ** 2 / K + 4.0 * eta ** 4 * L ** 2 / (K * pc)) * inputs.sigma_sq_sum
               + 6.0 * eta ** 4 * L ** 2 * G2 / pc ** 2
               + 4.0 * eta ** 3 * L ** 2 * (K - 1) * d / (K * pc))
    return 8.0 * (1.0 + gamma) / (3.0 * (1.0 - gamma) ** 2) * bracket


def w2_bound_sequence(inputs: BoundInputs, beta_mode: str = "per_round") -> np.ndarray:
    """Upper bound on the squared 2-Wasserstein distance after each round.

    Returns an array of shape (..., S + 1), one sequence per row of
    ``inputs.beta_by_round`` (entry s bounds the distance after s rounds).
    ``beta_mode`` selects how the residual-channel-noise term is accumulated:

    * ``"per_round"``: each round's realized residual power enters once and
      is contracted forward; rounds without wireless aggregation contribute
      zero, so the aggregation frequency is already reflected in the realized
      sequence.
    * ``"final"``: the residual power is frozen at its most recent realized
      value and weighted by the aggregation probability inside a full
      geometric sum, matching a reading where a single representative power
      level stands in for the whole history.

    Both variants upper bound the distance whenever the realized powers
    dominate their per-round expectations.
    """
    if beta_mode not in ("per_round", "final"):
        raise ValueError(f"unknown beta_mode {beta_mode!r}")
    beta = np.asarray(inputs.beta_by_round, dtype=float)
    S = beta.shape[-1]
    gamma = contraction_gamma(inputs.eta, inputs.strong_convexity, inputs.smoothness)
    r2 = ((1.0 + gamma) / 2.0) ** 2
    const = drift_free_term(inputs)
    d, pc = inputs.dim, inputs.p_c

    out = np.empty(beta.shape[:-1] + (S + 1,))
    out[..., 0] = inputs.w2_init_sq
    channel = out[..., 1:]
    if beta_mode == "per_round":
        acc = 0.0
        for s, b in enumerate(np.moveaxis(beta, -1, 0)):
            acc = acc * r2 + r2 * d * b
            channel[..., s] = acc
    else:
        # the most recent positive power up to each round, zero before the first
        last = np.maximum.accumulate(np.where(beta > 0.0, np.arange(S), -1), axis=-1)
        last_beta = np.where(last >= 0, np.take_along_axis(beta, np.maximum(last, 0), axis=-1), 0.0)
        geometric = np.array([1.0 - r2 ** s for s in range(1, S + 1)])
        channel[...] = last_beta * pc * d * r2 * geometric / (1.0 - r2)
    # the initial distance contracted once per round, one factor at a time
    contracted = np.multiply.accumulate(np.r_[inputs.w2_init_sq, np.full(S, r2)])[1:]
    # (contracted + channel) + const, as the round-by-round recursion adds them
    np.add(contracted, channel, out=channel)
    channel += const
    return out


# ------------------------------------------------------------ client drift --- #


def drift_bounds(constants: RegularityConstants, eta: float, p_c: float,
                 k: int, dim: int, v_theta_measured: float | np.ndarray
                 ) -> tuple[float, float | np.ndarray]:
    """Theoretical ceilings for the two client-drift statistics.

    Returns ``(v_theta_bound, v_c_bound)`` where the second substitutes the
    measured divergence average for its expectation.  ``v_theta_measured``
    may be a float or an array; ``v_c_bound`` takes its shape, one ceiling
    per entry.
    """
    sig = constants.grad_noise_sq_sum
    G2 = constants.grad_bound ** 2
    v_theta_bound = (2.0 * (1.0 - p_c) / p_c) * (
        (2.0 + p_c) * eta ** 2 / p_c * G2
        + eta ** 2 / k * sig
        + 2.0 * (k - 1) * eta * dim / k)
    v_c_bound = k ** 2 * constants.smoothness ** 2 * v_theta_measured + k * sig
    return v_theta_bound, v_c_bound


# ------------------------------------------------------- predictive errors --- #


def predictive_error(thetas: np.ndarray, test_inputs: np.ndarray,
                     test_targets: np.ndarray) -> np.ndarray:
    """Device-averaged mean squared prediction error of each point estimate.

    ``thetas`` holds one estimate per row, shape (R, d).  Device k's held-out
    set has its covariates in the columns of ``test_inputs[k]`` (shape
    (K, d, m) overall) and its targets in ``test_targets[k]`` (shape (K, m)).
    Each estimate's mean squared error on every device's set is averaged over
    the devices; returns shape (R,).
    """
    thetas = np.asarray(thetas, dtype=float)
    total = np.zeros(thetas.shape[0])
    for inputs, targets in zip(test_inputs, test_targets):
        resid = thetas @ inputs - targets
        total += np.mean(resid * resid, axis=1)
    return total / len(test_inputs)

