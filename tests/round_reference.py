"""Round-by-round reference of the noiseless protocol (FALD), the engine's oracle.

The engine advances blocks of replicates over a windowed tape of random
draws.  This module replays one replicate of a FALD run the plain way, one
round and one device at a time, drawing from the streams of
``wfald.rng.run_streams`` as a round-by-round run consumes them.

The local update on device k is

    theta_k <- theta_k - eta * grad_k + sqrt(2 eta) * xi_k,
    xi_k = sqrt(tau / K) * xi_c + sqrt(1 - tau) * xi_private_k,

where xi_c is the round's shared draw; tau is 1 on aggregation rounds and 0
otherwise unless overridden.  At tau = 1 every device receives xi_c /
sqrt(K), so averaging the K local states yields a single chain driven by
sqrt(2 eta / K) * xi_c.

Stream-consumption contract: the flag stream is consumed once per round; a
device's batch stream once per round (not at all at p_b = 1); the common
stream only when tau > 0; a device's private noise stream only when tau < 1.
"""

import numpy as np

from wfald.model import LocalDataset, batch_size, partition_even
from wfald.rng import run_streams


def draw_batch(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """m of n indices without replacement: an argpartition of n uniform keys.

    Consumes a fixed n draws per call, none when m == n.
    """
    if m >= n:
        return np.arange(n)
    return np.argpartition(rng.random(n), m)[:m]


def stochastic_grad(theta: np.ndarray, shard: LocalDataset, p_b: float,
                    rng: np.random.Generator, k_total: int) -> np.ndarray:
    """Mini-batch gradient of the device cost with the nominal 1/p_b rescale.

    The prior term theta/K is deterministic and never rescaled.
    """
    idx = draw_batch(rng, shard.size, batch_size(p_b, shard.size))
    U, v = shard.covariates[:, idx], shard.targets[idx]
    return U @ (U.T @ theta - v) / p_b + theta / k_total


def correlated_noise(tau: float, k_total: int, dim: int, common_draw, device_rng) -> np.ndarray:
    """xi_k: the round's shared draw mixed with a private draw taken only if tau < 1."""
    out = np.zeros(dim)
    if tau > 0.0:
        out += np.sqrt(tau / k_total) * common_draw
    if tau < 1.0:
        out += np.sqrt(1.0 - tau) * device_rng.standard_normal(dim)
    return out


def fald_round(thetas: np.ndarray, shards, streams, eta: float, p_b: float, p_c: float,
               tau_override: float | None = None):
    """One FALD round on the (K, d) particles, updated in place.

    All K mini-batch gradients are taken at the entering particles before any
    update.  Returns the aggregate when the round aggregated, else None, and
    the (K, d) realized gradients.
    """
    k_total, dim = thetas.shape
    flag = streams.flags.random() < p_c
    tau = tau_override if tau_override is not None else float(flag)
    common = streams.common.standard_normal(dim) if tau > 0.0 else None
    grads = np.array([stochastic_grad(thetas[k], shard, p_b, streams.batch[k], k_total)
                      for k, shard in enumerate(shards)])
    for k in range(k_total):
        xi = correlated_noise(tau, k_total, dim, common, streams.noise[k])
        thetas[k] = thetas[k] - eta * grads[k] + np.sqrt(2.0 * eta) * xi
    if not flag:
        return None, grads
    thetas[:] = thetas.mean(axis=0)
    return thetas[0].copy(), grads


def replay_batches(config, data, replicate: int = 0) -> list:
    """Each device's (S, m_k) mini-batch indices in one replicate, None at full batch.

    A device's batch stream is read once per round whatever the algorithm,
    so these are the batches of every protocol run under ``config``'s seed.
    """
    [streams] = run_streams(config.master_seed, range(replicate, replicate + 1), config.k,
                            config.seed_path)
    out = []
    for shard, rng in zip(partition_even(data, config.k), streams.batch):
        m = batch_size(config.p_b, shard.size)
        out.append(None if m >= shard.size else
                   np.array([draw_batch(rng, shard.size, m) for _ in range(config.s_total)]))
    return out


def replay_fald(config, data, replicate: int = 0):
    """Replay one replicate of a FALD run.

    Returns the flags, the device-average trajectory, the final particles,
    each device's time average over the post-burn-in rounds s_burn + 1..S,
    and the client-drift statistics of the particles entering each round:

        V_theta = (1/K) sum_k ||theta_k - theta_bar||^2,
        V_c = ||(U U^T + I) theta_bar - U v - sum_k g_k||^2,

    with g_k the realized mini-batch gradients.
    """
    shards = partition_even(data, config.k)
    [streams] = run_streams(config.master_seed, range(replicate, replicate + 1), config.k,
                            config.seed_path)
    U, v = data.covariates, data.targets
    hessian = U @ U.T + np.eye(config.dim)
    thetas = np.zeros((config.k, config.dim))
    flags, avg, tail, v_theta, v_c = [], [thetas.mean(axis=0)], [], [], []
    for s in range(1, config.s_total + 1):
        theta_bar = avg[-1]
        v_theta.append(np.mean(np.sum((thetas - theta_bar) ** 2, axis=1)))
        agg, grads = fald_round(thetas, shards, streams, config.eta, config.p_b, config.p_c,
                                config.tau_override)
        drift = hessian @ theta_bar - U @ v - grads.sum(axis=0)
        v_c.append(drift @ drift)
        flags.append(agg is not None)
        avg.append(thetas.mean(axis=0))
        if s > config.s_burn:
            tail.append(thetas.copy())
    return (np.array(flags), np.array(avg), thetas, np.mean(tail, axis=0), np.array(v_theta),
            np.array(v_c))
