"""Federated Langevin sampling over a simulated analog multiple-access channel.

The package simulates Bayesian federated learning where devices run local
stochastic-gradient Langevin steps and aggregate either exactly or over the
air, with the channel noise recycled as Langevin noise.  It bundles the
protocols, a Gaussian linear-regression benchmark with a tractable posterior,
convergence-bound evaluators and a deterministic sweep harness.
"""

from ._version import __version__
from .analysis import (BoundInputs, contraction_gamma, drift_bounds,
                       drift_free_term, empirical_gaussian, gaussian_w2_squared,
                       per_device_mse, predictive_error, running_mse,
                       w2_bound_sequence)
from .channel import (ChannelConfig, ProtocolError, check_power,
                      inversion_power_gain, noma_superpose, power_gain,
                      receive_aggregate, residual_noise_power)
from .harness import (ConfigurationError, SweepSpec, build_dataset,
                      build_run_config, build_sweep_spec, build_test_set,
                      emit_plotdata, evaluate, parse_config, run_sweep,
                      summarize_run, sweep_configs, sweep_points)
from .model import (Dataset, GaussianDist, LocalDataset, RegularityConstants,
                    batch_size, exact_posterior, generate_synthetic,
                    local_grad, measure_constants, partition_even)
from .protocol import ALGORITHMS, BENCHMARK_THETA_STAR, RunConfig, RunResult, run

__all__ = [
    "__version__",
    "ALGORITHMS", "BENCHMARK_THETA_STAR",
    "BoundInputs", "ChannelConfig", "ConfigurationError",
    "Dataset", "GaussianDist", "LocalDataset",
    "ProtocolError", "RegularityConstants", "RunConfig", "RunResult",
    "SweepSpec",
    "batch_size", "build_dataset", "build_run_config",
    "build_sweep_spec", "build_test_set", "check_power", "contraction_gamma",
    "drift_bounds", "drift_free_term",
    "emit_plotdata", "empirical_gaussian", "evaluate", "exact_posterior",
    "gaussian_w2_squared", "generate_synthetic",
    "inversion_power_gain", "local_grad", "measure_constants",
    "noma_superpose", "parse_config", "partition_even",
    "per_device_mse", "power_gain", "predictive_error",
    "receive_aggregate", "residual_noise_power", "run",
    "run_sweep", "running_mse", "summarize_run",
    "sweep_configs", "sweep_points", "w2_bound_sequence",
]
