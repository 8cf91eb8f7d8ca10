"""Analog multiple-access uplink used for over-the-air model aggregation.

All K devices transmit simultaneously in one block of d channel uses; the
receiver observes the superposition

    y = sum_k h_k x_k + z,    z ~ N(0, noise_level * I_d),

subject to a per-block transmit power constraint ||x_k||^2 <= power.  With
scaled channel inversion x_k = (alpha / h_k) * payload_k the superposition
equals alpha * sum_k payload_k, so y / (K alpha) is the device average plus
the rescaled channel noise z / (K alpha), whose per-coordinate variance is
noise_level / (alpha K)^2.

The Langevin sampler needs common noise of variance exactly 2 eta / K per
coordinate on an aggregation round.  The common gain is therefore capped so
the rescaled channel noise never falls below that target,

    alpha = min{ sqrt(noise_level / (2 eta K)),
                 min_k sqrt(power) |h_k| / ||payload_k|| },

and the excess beyond the target is the residual noise power

    beta = max{0, noise_level / (alpha K)^2 - 2 eta / K},

which is zero exactly when the power constraint is slack.

The per-round functions take any number of leading replicate axes, so one call
serves a whole block of replicates: payloads and signals are (..., K, d),
gains (..., K), and the common gain alpha, like every per-round scalar, is
(...,).  One replicate's round is the case without a leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ProtocolError(RuntimeError):
    """A protocol invariant failed at runtime (power violation, divergence...)."""


@dataclass(frozen=True)
class ChannelConfig:
    """Static channel parameters.

    ``snr`` is the per-block signal-to-noise ratio power/(d * noise_level)
    with d = block_dim.  ``gain_model`` is "constant" (every |h_k| equal to
    ``gain_value``) or "rayleigh" (|h_k| Rayleigh with scale 1/sqrt(2), so
    the mean-square gain E[h^2] = 2 * scale^2 is 1).  Signs are taken
    positive: phase is assumed pre-compensated.
    """

    power: float = 1.0
    noise_level: float = 0.0
    block_dim: int = 1
    gain_model: str = "constant"
    gain_value: float = 1.0

    def __post_init__(self):
        if self.power <= 0:
            raise ValueError(f"power budget must be positive, got {self.power}")
        if self.noise_level < 0:
            raise ValueError(f"noise level must be nonnegative, got {self.noise_level}")
        if self.block_dim < 1:
            raise ValueError("block_dim must be at least 1")
        if self.gain_model not in ("constant", "rayleigh"):
            raise ValueError(f"unknown gain model {self.gain_model!r}")
        if self.gain_model == "constant" and self.gain_value <= 0:
            raise ValueError("constant gain must be positive")

    @property
    def snr(self) -> float:
        if self.noise_level == 0:
            return np.inf
        return self.power / (self.block_dim * self.noise_level)

    @classmethod
    def from_snr_db(cls, snr_db: float | None, block_dim: int, power: float = 1.0,
                    **kwargs) -> "ChannelConfig":
        """Channel with noise level set from an SNR in dB (None = noiseless)."""
        noise_level = 0.0
        if snr_db is not None:
            try:
                noise_level = power / (block_dim * 10.0 ** (snr_db / 10.0))
            except (OverflowError, ZeroDivisionError):
                noise_level = float("nan")
            if not 0.0 < noise_level < np.inf:
                raise ValueError(f"snr_db = {snr_db} gives no positive, finite noise level")
        return cls(power=power, noise_level=noise_level, block_dim=block_dim, **kwargs)

    def draw_gains(self, size, rng: np.random.Generator) -> np.ndarray:
        """Gain magnitudes of shape ``size``, e.g. (rounds, K).

        Rayleigh gains are drawn in C order, so a (rounds, K) draw consumes
        the gain stream exactly like one K-gain draw per round.
        """
        if self.gain_model == "constant":
            return np.full(size, self.gain_value)
        return rng.rayleigh(2 ** -0.5, size)


#: a payload norm below this has squared entries under the normal float range
_TINY_NORM = float(np.sqrt(np.finfo(float).tiny))
#: largest alpha / |h_k| a device is asked to apply, far inside the float range
_MAX_INVERSION = 1e300


def _power_branch(payloads: np.ndarray, gains: np.ndarray, power: float) -> np.ndarray:
    """min_k sqrt(power) |h_k| / ||payload_k|| over devices with a nonzero payload.

    A masked min over the device axis; inf where every payload is zero.
    """
    norms = np.linalg.norm(payloads, axis=-1)
    if norms.min() < _TINY_NORM:
        # squares that underflow lose their bits: take those norms at unit scale
        tiny = norms < _TINY_NORM
        rows = np.asarray(payloads, dtype=float)[tiny]
        scale = np.abs(rows).max(axis=-1, keepdims=True)
        scale[scale == 0.0] = 1.0
        norms[tiny] = scale[:, 0] * np.linalg.norm(rows / scale, axis=-1)
    ratio = np.divide(np.sqrt(power) * np.asarray(gains, dtype=float), norms,
                      out=np.full(norms.shape, np.inf), where=norms > 0)
    return ratio.min(axis=-1)


def power_gain(payloads: np.ndarray, gains: np.ndarray, power: float,
               noise_level: float, eta: float, k_total: int):
    """Common gain alpha: Langevin noise cap intersected with power feasibility.

    Devices with zero payload norm impose no power constraint.  At
    noise_level = 0 the cap branch is degenerate (it would force alpha = 0),
    so the gain comes from the power branch alone; the protocol layer
    restores the missing common-noise variance explicitly.
    """
    alpha = _power_branch(payloads, gains, power)
    if noise_level > 0:
        alpha = np.minimum(float(np.sqrt(noise_level / (2.0 * eta * k_total))), alpha)
    return _finite_gain(alpha, gains)


def inversion_power_gain(payloads: np.ndarray, gains: np.ndarray, power: float):
    """Pure scaled channel inversion at full power (no Langevin noise cap)."""
    return _finite_gain(_power_branch(payloads, gains, power), gains)


def _finite_gain(alpha, gains):
    """alpha, with 1 where every payload is zero, capped so alpha / h_k stays finite.

    A huge alpha on a near-zero payload would otherwise overflow the scaled
    signal, or make inf * 0 on an idle device.
    """
    # every payload zero: any gain transmits the zero signal
    alpha = np.where(np.isfinite(alpha), alpha, 1.0)
    with np.errstate(over="ignore"):  # a cap past the float range is no cap
        cap = _MAX_INVERSION * np.min(gains, axis=-1)
    return np.minimum(alpha, cap)[()]


def noma_superpose(signals: np.ndarray, gains: np.ndarray, noise: np.ndarray,
                   noise_level: float):
    """Superpose the K transmit blocks and add receiver noise.

    ``noise`` is the round's standard-normal block, shape (..., d), and the
    receiver noise is that block scaled by sqrt(noise_level).  The block is
    drawn whatever the noise level, so stream consumption does not depend on
    it (a noiseless channel adds zero).  Returns (received vector, noise).
    """
    signals = np.asarray(signals, dtype=float)
    if signals.ndim < 2:
        raise ValueError("signals must be (..., K, d)")
    z = np.sqrt(noise_level) * noise
    y = np.einsum("...k,...kd->...d", np.asarray(gains, dtype=float), signals) + z
    return y, z


def receive_aggregate(y: np.ndarray, alpha, k_total: int) -> np.ndarray:
    """Receiver post-scaling y / (K alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    if not (alpha > 0).all():
        raise ValueError(f"common gain must be positive, got {alpha}")
    return y / (k_total * alpha)[..., None]


def residual_noise_power(alpha, noise_level: float, eta: float, k_total: int):
    """Per-coordinate channel noise variance in excess of the Langevin target.

    When the scaling factor sits on its noise-matched value the subtraction
    is exact in real arithmetic; remnants within a few ulps of the target are
    rounding noise and snap to zero.
    """
    if noise_level == 0:
        # no noise to rescale, however small alpha is
        return np.zeros(np.shape(alpha))[()]
    target = 2.0 * eta / k_total
    excess = noise_level / (np.asarray(alpha, dtype=float) * k_total) ** 2 - target
    return np.where(excess <= 16.0 * np.finfo(float).eps * target, 0.0, excess)[()]


def check_power(sq_norms: np.ndarray, power: float) -> np.ndarray:
    """Boolean per-device feasibility ||x_k||^2 <= power (tiny float slack).

    Takes the squared norms ||x_k||^2, shape (..., K), which the caller also
    reports as the round's power use.
    """
    return np.asarray(sq_norms, dtype=float) <= power * (1.0 + 1e-9) + 1e-300
