"""Property test of the engine, with hypothesis: above the cap SNR the SNR does not matter.

On a wireless round whose common gain alpha sits at the Langevin noise cap
sqrt(N0 / (2 eta K)), the residual noise power beta is 0 and the received
aggregate is mean_k(x_k) + sqrt(2 eta / K) z: FALD's aggregation with the
channel draw z as its common noise, whatever the SNR.  So two runs of one
constant-gain WFALD config at two SNRs where every wireless round of both
runs has beta = 0 agree to rounding, and draw the same flags.  A drawn pair
with some power-limited round (beta > 0) asserts nothing; the fixed
examples in ``test_protocol.py`` include one that does differ.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wfald.harness import build_dataset
from wfald.protocol import RunConfig, run


@st.composite
def capped_candidates(draw):
    """A small constant-gain WFALD config and two SNRs, likely both above its cap SNR."""
    k, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    shard = draw(st.integers(4, 10))
    s_total = draw(st.integers(2, 12))
    config = RunConfig(
        algorithm="WFALD", k=k, dim=dim, n_samples=k * shard + draw(st.integers(0, k - 1)),
        eta=draw(st.floats(1e-3, 1e-2)), p_c=draw(st.floats(0.2, 1.0)),
        # below full batch, so V_c is a batch-noise statistic, not rounding residue
        p_b=draw(st.floats(0.3, 0.6)), s_total=s_total,
        s_burn=draw(st.integers(0, s_total - 1)), gain_model="constant",
        gain_value=draw(st.floats(0.5, 2.0)), replicates=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**32)))
    snrs = draw(st.lists(st.floats(20.0, 60.0), min_size=2, max_size=2))
    return config, snrs


@settings(max_examples=50, deadline=None)
@given(capped_candidates())
def test_runs_above_the_cap_snr_agree(case):
    config, snrs = case
    data = build_dataset(config)
    ref, other = [run(dataclasses.replace(config, snr_db=snr), data) for snr in snrs]
    for res in (ref, other):
        wireless = ~np.isnan(res.beta)
        if not (res.beta[wireless] == 0.0).all():
            return
    assert np.array_equal(ref.flags, other.flags)
    for name in ("avg_traj", "theta_final", "device_mean", "v_theta", "v_c"):
        np.testing.assert_allclose(getattr(other, name), getattr(ref, name), rtol=1e-12,
                                   atol=0, err_msg=name)
