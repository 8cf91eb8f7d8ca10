"""Batch-means standard error of a correlated chain, for the chain-accuracy tests."""

import numpy as np


def batch_means_se(chain: np.ndarray) -> np.ndarray:
    """Monte-Carlo standard error of a correlated chain's mean via batch means.

    Splits the chain into floor(sqrt(n)) consecutive batches and uses the
    batch-mean spread; works per coordinate for 2-d input (n, d).
    """
    chain = np.asarray(chain, dtype=float)
    squeeze = chain.ndim == 1
    if squeeze:
        chain = chain[:, None]
    n = chain.shape[0]
    nb = int(np.sqrt(n))
    if nb < 2:
        raise ValueError(f"chain of length {n} is too short for batch means")
    m = n // nb
    batches = chain[:nb * m].reshape(nb, m, -1).mean(axis=1)
    se = batches.std(axis=0, ddof=1) / np.sqrt(nb)
    return se[0] if squeeze else se
