"""Federated Langevin sampling over a simulated analog multiple-access channel.

The package simulates Bayesian federated learning where devices run local
stochastic-gradient Langevin steps and aggregate either exactly or over the
air, with the channel noise recycled as Langevin noise.  It bundles the
protocols, a Gaussian linear-regression benchmark with a tractable posterior,
convergence-bound evaluators and a deterministic sweep harness.
"""

from ._version import __version__
from .analysis import (BoundInputs, batch_means_se, contraction_gamma,
                       drift_bounds, drift_free_term, empirical_gaussian,
                       gaussian_w2_squared, per_device_mse,
                       posterior_mean_estimate, predictive_error, running_mse,
                       squared_error,
                       w2_bound_sequence, w2_trajectory)
from .channel import (ChannelConfig, ProtocolError, check_power,
                      inversion_power_gain, noma_superpose, power_gain,
                      receive_aggregate, residual_noise_power, transmit_signal)
from .harness import (ConfigurationError, SweepSpec, build_dataset,
                      build_run_config, build_sweep_spec, build_test_set,
                      emit_plotdata, parse_config, run_sweep, summarize_run,
                      sweep_configs, sweep_points)
from .model import (Dataset, GaussianDist, LocalDataset, RegularityConstants,
                    batch_size, exact_posterior, generate_synthetic,
                    global_grad, local_grad, measure_constants,
                    partition_even, stochastic_grad)
from .protocol import (ALGORITHMS, BENCHMARK_THETA_STAR, RunConfig, RunResult,
                       run, run_fald, run_sgld, run_wfald, run_wfedavg)
from .sampling import (DeviceState, SharedRandomness, correlated_noise,
                       draw_round_flag, fald_round, sgld_step)

__all__ = [
    "__version__",
    "ALGORITHMS", "BENCHMARK_THETA_STAR",
    "BoundInputs", "ChannelConfig", "ConfigurationError",
    "Dataset", "DeviceState", "GaussianDist", "LocalDataset",
    "ProtocolError", "RegularityConstants", "RunConfig", "RunResult",
    "SharedRandomness", "SweepSpec",
    "batch_means_se", "batch_size", "build_dataset", "build_run_config",
    "build_sweep_spec", "build_test_set", "check_power", "contraction_gamma",
    "correlated_noise", "draw_round_flag", "drift_bounds", "drift_free_term",
    "emit_plotdata", "empirical_gaussian", "exact_posterior", "fald_round",
    "gaussian_w2_squared", "generate_synthetic", "global_grad",
    "inversion_power_gain", "local_grad", "measure_constants",
    "noma_superpose", "parse_config", "partition_even",
    "per_device_mse", "posterior_mean_estimate", "power_gain", "predictive_error",
    "receive_aggregate", "residual_noise_power", "run", "run_fald",
    "run_sgld", "run_sweep", "run_wfald", "run_wfedavg", "running_mse",
    "sgld_step", "squared_error", "stochastic_grad", "summarize_run",
    "sweep_configs", "sweep_points", "transmit_signal", "w2_bound_sequence",
    "w2_trajectory",
]
