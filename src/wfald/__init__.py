"""Federated Langevin sampling over a simulated analog multiple-access channel.

The package simulates Bayesian federated learning where devices run local
stochastic-gradient Langevin steps and aggregate either exactly or over the
air, with the channel noise recycled as Langevin noise.  It bundles the
protocols, a Gaussian linear-regression benchmark with a tractable posterior,
convergence-bound evaluators and a deterministic sweep harness.
"""

from ._version import __version__

__all__ = ["__version__"]
