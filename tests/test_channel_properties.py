"""Property tests of power control, with hypothesis.

For random (B, K, d) payloads (zero rows included), Rayleigh gains, noise
levels, step sizes and power budgets, the common gain alpha that
``power_gain`` returns and the residual noise power beta satisfy:

* every device's scaled signal (alpha / h_k) payload_k passes ``check_power``;
* beta >= 0;
* beta > 0 only where alpha is below the Langevin noise cap
  sqrt(noise_level / (2 eta K));
* beta == 0 wherever alpha equals the cap.

The explicit examples are hypothesis finds that broke the power budget: a
payload whose squared entries underflow, so its norm lost bits, and a payload
so small that alpha / h_k overflowed, on the device itself or, as inf * 0, on
an idle device with a weak gain.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wfald.channel import ChannelConfig, check_power, power_gain, residual_noise_power

EXAMPLES = settings(max_examples=200, deadline=None)

payload_entries = st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False)
# Rayleigh gains by inverting the CDF of unit mean-square gain at a uniform draw
rayleigh = st.floats(min_value=1e-12, max_value=1.0 - 1e-12).map(
    lambda u: float(np.sqrt(-np.log1p(-u))))


@st.composite
def power_rounds(draw):
    """One wireless round for a block of replicates, and its channel."""
    b, k, d = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 5))
    payloads = draw(arrays(float, (b, k, d), elements=payload_entries))
    zero_rows = draw(arrays(bool, (b, k)))
    payloads[zero_rows] = 0.0
    gains = draw(arrays(float, (b, k), elements=rayleigh))
    power = draw(st.floats(min_value=1e-3, max_value=1e3))
    snr_db = draw(st.floats(min_value=-60.0, max_value=60.0) | st.none())
    chan = ChannelConfig.from_snr_db(snr_db, block_dim=d, power=power)
    eta = draw(st.floats(min_value=1e-6, max_value=1.0))
    return payloads, gains, chan, eta


@EXAMPLES
@given(power_rounds())
@example((np.full((1, 2, 1), 6.47885839e-162), np.full((1, 2), 0.83255461),
          ChannelConfig.from_snr_db(None, block_dim=1), 1.0))
@example((np.array([[[0.0], [1.34500906e-306]]]), np.array([[1e-5, 0.83255461]]),
          ChannelConfig.from_snr_db(None, block_dim=1), 1.0))
def test_power_control_properties(round_):
    payloads, gains, chan, eta = round_
    k = payloads.shape[1]
    # a near-zero payload's ratio sqrt(P) h_k / ||x_k|| may overflow to inf,
    # which reads as no constraint from that device
    with np.errstate(over="ignore"):
        alpha = power_gain(payloads, gains, chan.power, chan.noise_level, eta, k)
    beta = residual_noise_power(alpha, chan.noise_level, eta, k)

    signals = (alpha[:, None] / gains)[..., None] * payloads
    assert check_power(np.sum(signals * signals, axis=-1), chan.power).all()
    assert (beta >= 0.0).all()
    if chan.noise_level == 0:
        assert (beta == 0.0).all()
    else:
        cap = float(np.sqrt(chan.noise_level / (2.0 * eta * k)))
        assert (alpha[beta > 0.0] < cap).all()
        assert (beta[alpha == cap] == 0.0).all()
