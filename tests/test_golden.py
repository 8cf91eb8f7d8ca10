"""Golden reference: the engine's outputs on tiny configs, pinned in a fixture.

``tests/data/golden.npz`` holds the outputs of every algorithm on small
configurations, written once by the engine these tests guard.  Integer and
boolean outputs, and the exact zeros of ``v_theta`` and ``beta``, must match
bitwise; floating-point outputs must match to a relative tolerance of 1e-10,
which leaves room for reassociated arithmetic and nothing else.

Regenerate only on a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys

import numpy as np
import pytest

from wfald.harness import build_dataset
from wfald.protocol import RunConfig, run

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden.npz")

RTOL = 1e-10

#: absolute floor per float array, a few hundred ulps of its typical scale
ATOL = {
    "avg_traj": 1e-13,
    "device_mean": 1e-13,
    "theta_final": 1e-13,
    "v_theta": 1e-15,
    "v_c": 1e-12,
    "beta": 1e-15,
    "alpha": 1e-14,
    "power_use": 1e-14,
}

BASE = dict(k=4, dim=2, n_samples=18, eta=1e-2, p_c=0.5, p_b=0.5,
            s_total=16, s_burn=4, snr_db=20.0, master_seed=23, replicates=3,
            theta_star=np.array([1.0, -2.0]), store_batch_indices=True)

CASES = {
    "wfald": dict(algorithm="WFALD"),
    "fald": dict(algorithm="FALD"),
    "sgld": dict(algorithm="SGLD"),
    "wfedavg": dict(algorithm="WFedAvg"),
    "wfald_rayleigh_low_snr": dict(algorithm="WFALD", snr_db=0.0, gain_model="rayleigh"),
    "wfald_noiseless": dict(algorithm="WFALD", snr_db=None),
    "fald_tau_half": dict(algorithm="FALD", tau_override=0.5),
}


def case_config(name: str) -> RunConfig:
    return RunConfig(**{**BASE, **CASES[name]})


def outputs(result) -> dict:
    """Every pinned output of a run as named arrays."""
    out = {
        "flags": result.flags,
        "avg_traj": result.avg_traj,
        "device_mean": result.device_mean,
        "theta_final": result.theta_final,
        "v_theta": result.v_theta,
        "v_c": result.v_c,
        "beta": result.beta,
        "alpha": result.alpha,
        "power_use": result.power_use,
    }
    for r, groups in enumerate(result.batch_indices):
        for g, idx in enumerate(groups):
            if idx is not None:
                out[f"batches_r{r}_g{g}"] = idx
    return out


def compute(name: str) -> dict:
    cfg = case_config(name)
    return outputs(run(cfg, build_dataset(cfg)))


def regenerate(path: str = FIXTURE) -> None:
    arrays = {}
    for name in CASES:
        for key, value in compute(name).items():
            arrays[f"{name}/{key}"] = value
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **arrays)


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as f:
        return {key: f[key] for key in f.files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_golden_outputs(name, golden):
    got = compute(name)
    want = {key.split("/", 1)[1]: value for key, value in golden.items()
            if key.split("/", 1)[0] == name}
    assert sorted(got) == sorted(want)
    for key, expected in want.items():
        actual = got[key]
        assert actual.shape == expected.shape, key
        if key in ATOL:
            assert np.array_equal(np.isnan(actual), np.isnan(expected)), key
            for zeros in ("v_theta", "beta"):
                if key == zeros:
                    assert np.array_equal(actual == 0.0, expected == 0.0), key
            np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL[key],
                                       err_msg=f"{name}/{key}")
        else:
            assert np.array_equal(actual, expected), f"{name}/{key}"


def test_low_snr_fading_case_is_power_limited(golden):
    beta = golden["wfald_rayleigh_low_snr/beta"]
    assert np.nanmax(beta) > 0.0


if __name__ == "__main__":
    regenerate()
    print(f"wrote {FIXTURE}", file=sys.stderr)
