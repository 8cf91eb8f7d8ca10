"""Golden reference: engine outputs and run summaries on tiny configs, pinned in fixtures.

``tests/data/golden.npz`` holds the outputs of every algorithm on small
configurations, written once by the engine these tests guard, and their
mini-batches as the round-by-round oracle replays them.  Integer and
boolean outputs, and the exact zeros of ``v_theta`` and ``beta``, must match
bitwise; floating-point outputs must match to a relative tolerance of 1e-10,
which leaves room for reassociated arithmetic and nothing else.

``tests/data/golden_summary.npz`` holds what the harness makes of such runs:
``summarize_run``'s summary row and per-iteration table, scored on the
held-out test sets, and the bound note.  Its cases run enough replicates for
a defined ``w2_sq`` and include a step beyond the bound's contraction range.

Regenerate only on a deliberate change of behaviour, naming the fixture:

    PYTHONPATH=src python tests/test_golden.py engine|summary
"""

import os
import sys

import numpy as np
import pytest

from round_reference import replay_batches
from wfald.harness import (ITERATION_COLUMNS, RESULT_COLUMNS, bound_skip_reason,
                           build_dataset, evaluate)
from wfald.model import partition_even
from wfald.protocol import RunConfig, run

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden.npz")
SUMMARY_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_summary.npz")

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
            theta_star=np.array([1.0, -2.0]))

CASES = {
    "wfald": dict(algorithm="WFALD"),
    "fald": dict(algorithm="FALD"),
    "sgld": dict(algorithm="SGLD"),
    "wfedavg": dict(algorithm="WFedAvg"),
    "wfald_rayleigh_low_snr": dict(algorithm="WFALD", snr_db=0.0, gain_model="rayleigh"),
    "wfald_noiseless": dict(algorithm="WFALD", snr_db=None),
    "fald_tau_half": dict(algorithm="FALD", tau_override=0.5),
}

#: every engine case, plus a step beyond 2/L (about 0.17 on this data)
SUMMARY_CASES = {**CASES, "fald_beyond_contraction": dict(algorithm="FALD", eta=0.2)}

#: R >= dim + 2, so the moment-matched W2 estimate is defined
SUMMARY_REPLICATES = 6

#: absolute floor of the summary comparison; the pinned values that are
#: not exactly zero are all above 1e-5
SUMMARY_ATOL = 1e-15

#: summary columns that are numbers
SUMMARY_NUMBERS = tuple(c for c in RESULT_COLUMNS if c != "algorithm")


def case_config(name: str) -> RunConfig:
    return RunConfig(**{**BASE, **CASES[name]})


def outputs(result, data) -> dict:
    """Every pinned output of a run as named arrays.

    ``batches_r{r}_g{g}`` stacks replicate r's mini-batches of the devices
    with the g-th smallest shard size, from the oracle's replay of the batch
    streams.  The engine keeps no record of its batches; its trajectories,
    pinned here, pin them.
    """
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
    cfg = result.config
    sizes = [shard.size for shard in partition_even(data, cfg.k)]
    for r in range(cfg.replicates):
        batches = replay_batches(cfg, data, r)
        for g, n in enumerate(sorted(set(sizes))):
            rows = [idx for size, idx in zip(sizes, batches) if size == n]
            if rows[0] is not None:
                out[f"batches_r{r}_g{g}"] = np.stack(rows)
    return out


def compute(name: str) -> dict:
    cfg = case_config(name)
    data = build_dataset(cfg)
    return outputs(run(cfg, data), data)


def compute_summary(name: str) -> dict:
    """Summary row, iteration table and bound note of one summary case."""
    cfg = RunConfig(**{**BASE, **SUMMARY_CASES[name], "replicates": SUMMARY_REPLICATES})
    result, summary, table = evaluate(cfg)
    return {
        "algorithm": np.array(summary["algorithm"]),
        "bound_note": np.array(bound_skip_reason(result) or ""),
        "summary": np.array([summary[c] for c in SUMMARY_NUMBERS], dtype=float),
        "table": np.column_stack([table[c] for c in ITERATION_COLUMNS]).astype(float),
    }


def regenerate(which: str) -> str:
    path, cases, make = {"engine": (FIXTURE, CASES, compute),
                         "summary": (SUMMARY_FIXTURE, SUMMARY_CASES, compute_summary)}[which]
    arrays = {}
    for name in cases:
        for key, value in make(name).items():
            arrays[f"{name}/{key}"] = value
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def _by_case(fixture: dict, name: str) -> dict:
    return {key.split("/", 1)[1]: value for key, value in fixture.items()
            if key.split("/", 1)[0] == name}


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as f:
        return {key: f[key] for key in f.files}


@pytest.fixture(scope="module")
def golden_summary():
    with np.load(SUMMARY_FIXTURE) as f:
        return {key: f[key] for key in f.files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_golden_outputs(name, golden):
    got = compute(name)
    want = _by_case(golden, name)
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


@pytest.mark.parametrize("name", sorted(SUMMARY_CASES))
def test_summaries_match_golden(name, golden_summary):
    got = compute_summary(name)
    want = _by_case(golden_summary, name)
    assert sorted(got) == sorted(want)
    assert str(got["algorithm"]) == str(want["algorithm"])
    assert str(got["bound_note"]) == str(want["bound_note"])
    for key in ("summary", "table"):
        assert got[key].shape == want[key].shape, key
        assert np.array_equal(np.isnan(got[key]), np.isnan(want[key])), key
        np.testing.assert_allclose(got[key], want[key], rtol=RTOL, atol=SUMMARY_ATOL,
                                   err_msg=f"{name}/{key}")


def test_summary_cases_pin_w2_and_the_skipped_bound(golden_summary):
    w2 = SUMMARY_NUMBERS.index("w2_sq")
    assert all(np.isfinite(golden_summary[f"{name}/summary"][w2]) for name in SUMMARY_CASES)
    beyond = _by_case(golden_summary, "fald_beyond_contraction")
    assert "exceeds 2/smoothness" in str(beyond["bound_note"])
    assert np.isnan(beyond["summary"][SUMMARY_NUMBERS.index("bound_final_mean")])
    assert np.isnan(beyond["table"][:, ITERATION_COLUMNS.index("bound")]).all()


if __name__ == "__main__":
    for which in sys.argv[1:] or ["engine"]:
        print(f"wrote {regenerate(which)}", file=sys.stderr)
