"""Property tests of the config parser, with hypothesis.

Hypothesis: MacIver & Hatfield-Dodds, "Hypothesis: A new approach to
property-based testing", JOSS 2019.  Two properties:

* a valid configuration written out as ``key = value`` text parses back to
  the same configuration;
* ``build_run_config`` and ``build_sweep_spec`` raise nothing but
  ``ConfigurationError`` on arbitrary ``key = value`` text.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfald.harness import (_PARSERS, ConfigurationError, SweepSpec, build_run_config,
                           build_sweep_spec, config_record, read_config_text,
                           sweep_manifest)
from wfald.protocol import ALGORITHMS, RunConfig

EXAMPLES = settings(max_examples=150, deadline=None)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e3)
unit = st.floats(min_value=1e-6, max_value=1.0)
snr = st.none() | st.floats(min_value=-60.0, max_value=60.0)


@st.composite
def run_configs(draw):
    """A RunConfig that passes ``validate``."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    k = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 6))
    s_total = draw(st.integers(1, 10**6))
    n_samples = draw(st.integers(k, 10**6))
    # at least half a sample per mini-batch on every shard, whatever the algorithm
    shard = n_samples // k
    p_b = draw(st.floats(min_value=max(1e-6, 0.5 / shard), max_value=1.0)
               .filter(lambda p: p * shard >= 0.5))
    return RunConfig(
        algorithm=algorithm, k=k, dim=dim, n_samples=n_samples,
        eta=draw(positive), p_c=draw(unit), p_b=p_b,
        s_total=s_total, s_burn=draw(st.integers(0, s_total - 1)),
        snr_db=draw(snr), power=draw(positive),
        gain_model=draw(st.sampled_from(("constant", "rayleigh"))),
        gain_value=draw(positive), noise_std=draw(st.floats(0.0, 1e3)),
        theta_star=draw(st.none() | st.lists(finite, min_size=dim, max_size=dim).map(np.array)),
        master_seed=draw(st.integers(0, 2**63)),
        replicates=draw(st.integers(1, 10**4)),
        region_radius=draw(st.none() | positive),
        tau_override=draw(st.none() | unit) if algorithm == "FALD" else None,
        force_final_agg=draw(st.none() | st.booleans()))


def _text(value) -> str:
    """``value`` as the config grammar writes it."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return ", ".join("none" if v is None else str(v) for v in value)
    return str(value)


def config_text(pairs: dict) -> str:
    return "".join(f"{key} = {_text(value)}\n" for key, value in pairs.items())


def run_text(config: RunConfig) -> str:
    record = config_record(config)
    del record["seed_path"]
    if record["theta_star"] is None:
        record["theta_star"] = []  # an empty vector keeps the default
    return config_text(record)


@EXAMPLES
@given(run_configs())
def test_run_config_text_round_trips(config):
    parsed = build_run_config(read_config_text(run_text(config)))
    assert config_record(parsed) == config_record(config)


@EXAMPLES
@given(st.data())
def test_sweep_config_text_round_trips(data):
    base = data.draw(run_configs())
    names = ("FALD",) if base.tau_override is not None else ALGORITHMS
    spec = SweepSpec(base=base,
                     pc_grid=tuple(data.draw(st.lists(unit, min_size=1, max_size=4))),
                     snr_db_grid=tuple(data.draw(st.lists(snr, min_size=1, max_size=4))),
                     algorithms=tuple(data.draw(st.lists(st.sampled_from(names), min_size=1,
                                                         max_size=4, unique=True))),
                     replicates=data.draw(st.integers(1, 10**4)))
    sweep = {f"sweep.{name}": getattr(spec, name)
             for name in ("pc_grid", "snr_db_grid", "algorithms", "replicates")}
    parsed = build_sweep_spec(read_config_text(run_text(base) + config_text(sweep)))
    assert sweep_manifest(parsed) == sweep_manifest(spec)


keys = st.sampled_from(sorted(_PARSERS)) | st.text(max_size=12)
values = (st.text(max_size=12)
          | st.floats().map(str)
          | st.integers(-10**30, 10**30).map(str)
          | st.sampled_from(["none", "null", "yes", "no", "", ",", "1e400", "-1e400",
                             "4000", "-4000", "nan", "inf", "-0"])
          | st.lists(st.floats().map(str), max_size=4).map(", ".join))


@pytest.mark.parametrize("key", sorted(_PARSERS))
@settings(max_examples=40, deadline=None)
@given(value=values, others=st.dictionaries(keys, values, max_size=3))
def test_parsers_raise_only_configuration_errors(key, value, others):
    """Arbitrary text for ``key``, beside up to three other arbitrary entries."""
    text = "".join(f"{k} = {v}\n" for k, v in {**others, key: value}.items())
    for build in (build_run_config, build_sweep_spec):
        try:
            build(read_config_text(text))
        except ConfigurationError:
            pass
