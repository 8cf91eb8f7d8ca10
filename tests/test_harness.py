"""Harness tests: config parsing, dataset builders, sweeps, CSV and plot data."""

import collections
import csv
import dataclasses
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

import wfald.harness as harness
import wfald.model as model
import wfald.protocol as protocol
from wfald.harness import (
    _PARSERS,
    FIGURES,
    ITERATION_COLUMNS,
    RESULT_COLUMNS,
    ConfigurationError,
    SweepSpec,
    _fmt,
    build_dataset,
    build_run_config,
    build_sweep_spec,
    build_test_set,
    emit_plotdata,
    parse_config,
    read_config_text,
    run_sweep,
    summarize_run,
    sweep_manifest,
    sweep_points,
    write_csv,
)
from test_protocol import kill_helper_at
from wfald.analysis import empirical_gaussian, gaussian_w2_squared
from wfald.channel import ChannelConfig, ProtocolError
from wfald.cli import build_parser, main
from wfald.model import exact_posterior
from wfald.protocol import BENCHMARK_THETA_STAR, RunConfig, run


SMALL = {"k": "3", "dim": "2", "n_samples": "12", "eta": "0.01",
         "s_total": "10", "s_burn": "4", "theta_star": "1.0, -2.0"}


def _readme_section(heading: str) -> str:
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read().split(f"## {heading}", 1)[1].split("\n## ", 1)[0]


class TestConfigParsing:
    def test_comments_and_blank_lines(self):
        raw = read_config_text("""
            # experiment setup
            eta = 0.01     # step size
            algorithm = FALD

            p_c = 0.5
        """)
        assert raw == {"eta": "0.01", "algorithm": "FALD", "p_c": "0.5"}

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            read_config_text("eta = 0.1\nthis is not a setting\n")

    def test_override_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eta = 0.01\np_c = 0.5\n")
        raw = parse_config(str(path), overrides=["p_c=0.9"])
        assert raw["p_c"] == "0.9"
        assert raw["eta"] == "0.01"

    def test_bad_override_shape(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            parse_config(None, overrides=["p_c0.9"])

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            build_run_config({"learning_rate": "0.01"})

    def test_out_of_range_value(self):
        with pytest.raises(ConfigurationError, match="aggregation probability"):
            build_run_config({"p_c": "0"})

    def test_unparseable_value(self):
        with pytest.raises(ConfigurationError, match="bad value for eta"):
            build_run_config({"eta": "fast"})

    def test_snr_none_tokens(self):
        for tok in ("none", "NULL", "noiseless"):
            cfg = build_run_config({**SMALL, "snr_db": tok})
            assert cfg.snr_db is None

    def test_theta_star_list(self):
        cfg = build_run_config(SMALL)
        np.testing.assert_allclose(cfg.theta_star, [1.0, -2.0])

    def test_readme_lists_exactly_the_parseable_keys(self):
        text = _readme_section("Config grammar")
        table = re.findall(r"^\| `([\w.]+)` \|", text, flags=re.MULTILINE)
        sweep = re.findall(r"`(sweep\.\w+)`", text)
        assert sorted(table) == sorted(k for k in _PARSERS if not k.startswith("sweep."))
        assert sorted(set(sweep)) == sorted(k for k in _PARSERS if k.startswith("sweep."))

    def test_readme_lists_exactly_the_subcommands(self):
        listed = re.findall(r"^wfald (\w+)", _readme_section("Command line"), flags=re.MULTILINE)
        choices = re.search(r"\{([\w,]+)\}", build_parser().format_usage()).group(1)
        assert sorted(set(listed)) == sorted(choices.split(","))

    def test_typed_fields(self):
        cfg = build_run_config({**SMALL, "force_final_agg": "yes", "tau_override": "none",
                                "algorithm": "WFALD", "snr_db": "12.5"})
        assert cfg.force_final_agg is True
        assert cfg.tau_override is None
        assert cfg.snr_db == 12.5
        assert isinstance(cfg.k, int)


class TestSweepSpec:
    def test_grids_parsed(self):
        raw = {**SMALL, "algorithm": "WFALD", "sweep.pc_grid": "0.2, 0.5, 1.0",
               "sweep.snr_db_grid": "10, none", "sweep.algorithms": "WFALD, FALD",
               "sweep.replicates": "4"}
        spec = build_sweep_spec(raw)
        assert spec.pc_grid == (0.2, 0.5, 1.0)
        assert spec.snr_db_grid == (10.0, None)
        assert spec.algorithms == ("WFALD", "FALD")
        assert spec.replicates == 4

    def test_defaults_from_base(self):
        spec = build_sweep_spec({**SMALL, "algorithm": "FALD"})
        assert spec.pc_grid == (0.5,)
        assert spec.algorithms == ("FALD",)

    def test_bad_algorithm(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            build_sweep_spec({**SMALL, "sweep.algorithms": "WFALD, ADMM"})

    def test_pc_grid_must_be_numeric(self):
        with pytest.raises(ConfigurationError, match="pc_grid"):
            build_sweep_spec({**SMALL, "sweep.pc_grid": "0.5, none"})

    def test_out_of_range_grid(self):
        spec = SweepSpec(base=build_run_config(SMALL), pc_grid=(0.5, 1.5),
                         snr_db_grid=(10.0,), algorithms=("FALD",), replicates=2)
        with pytest.raises(ConfigurationError, match="out of range"):
            spec.validate()


class TestDatasetBuilders:
    def test_dataset_is_seed_deterministic(self):
        cfg = build_run_config(SMALL)
        a = build_dataset(cfg)
        b = build_dataset(cfg)
        assert np.array_equal(a.covariates, b.covariates)
        assert np.array_equal(a.targets, b.targets)

    def test_benchmark_coefficients_for_dim5(self):
        cfg = RunConfig(dim=5)
        assert np.array_equal(cfg.resolve_theta_star(), BENCHMARK_THETA_STAR)

    def test_other_dims_draw_coefficients(self):
        cfg = build_run_config({**SMALL, "theta_star": ""})
        assert cfg.theta_star is None or cfg.theta_star.size == 0
        data = build_dataset(RunConfig(k=3, dim=3, n_samples=12,
                                       theta_star=None, master_seed=4))
        assert data.covariates.shape == (3, 12)

    def test_dataset_independent_of_algorithm(self):
        cfg_a = build_run_config({**SMALL, "algorithm": "WFALD"})
        cfg_b = build_run_config({**SMALL, "algorithm": "SGLD"})
        assert np.array_equal(build_dataset(cfg_a).targets,
                              build_dataset(cfg_b).targets)

    def test_test_set_shapes_and_determinism(self):
        cfg = build_run_config(SMALL)
        star = cfg.resolve_theta_star(np.random.default_rng(0))
        u1, v1 = build_test_set(cfg, star)
        u2, v2 = build_test_set(cfg, star)
        assert u1.shape == (3, 2, 500) and v1.shape == (3, 500)
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
        # held out: disjoint stream from the training data
        train = build_dataset(cfg)
        assert not np.allclose(u1[0, :, :12], train.covariates)


class TestSummaries:
    def make_run(self, algorithm="WFALD", **kw):
        base = dict(SMALL, algorithm=algorithm, replicates="5", snr_db="15")
        base.update({k: str(v) for k, v in kw.items()})
        cfg = build_run_config(base)
        return run(cfg, build_dataset(cfg))

    def test_summary_row_is_complete(self):
        result = self.make_run()
        star = result.config.resolve_theta_star(np.random.default_rng(0))
        u, v = build_test_set(result.config, star)
        summary, table = summarize_run(result, u, v)
        assert set(summary) == set(RESULT_COLUMNS)
        S = result.config.s_total
        assert list(table) == list(ITERATION_COLUMNS)
        assert np.array_equal(table["s"], np.arange(1, S + 1))
        assert table["s"].dtype.kind == "i"
        for name in ITERATION_COLUMNS[1:]:
            assert table[name].shape == (S,) and table[name].dtype == np.float64, name
        assert (table["v_theta_bound"] == summary["v_theta_bound"]).all()
        assert summary["mse_mean"] > 0
        assert np.isfinite(summary["bound_final_mean"])
        assert np.isfinite(summary["test_ens_mean"])

    def test_no_bound_for_frequentist_runs(self):
        result = self.make_run(algorithm="WFedAvg")
        summary, table = summarize_run(result)
        assert np.isnan(summary["bound_final_mean"])
        assert table["bound"].shape == (result.config.s_total,)
        assert np.isnan(table["bound"]).all()
        assert np.isnan(summary["test_ens_mean"])  # no test set supplied

    def test_mse_matches_direct_computation(self):
        result = self.make_run()
        post = exact_posterior(build_dataset(result.config))
        assert np.array_equal(result.posterior.mean, post.mean)
        assert np.array_equal(result.posterior.covariance, post.covariance)
        summary, table = summarize_run(result)
        diff = result.device_mean - post.mean
        direct = np.sum(diff * diff, axis=-1).mean(axis=-1)
        assert summary["mse_mean"] == pytest.approx(direct.mean(), rel=1e-12)
        # every round's fit, one call per round
        w2 = [gaussian_w2_squared(empirical_gaussian(result.avg_traj[:, s, :]), post)
              for s in range(1, result.config.s_total + 1)]
        assert table["w2_sq"].tolist() == pytest.approx(w2, rel=1e-12)
        assert summary["w2_sq"] == pytest.approx(w2[-1], rel=1e-12)


def test_evaluate_forms_the_posterior_once(monkeypatch):
    """One exact posterior per config: the run's, which the summaries read."""
    calls = []

    def spy(data):
        calls.append(data)
        return exact_posterior(data)

    for module in (model, protocol, harness):
        if hasattr(module, "exact_posterior"):
            monkeypatch.setattr(module, "exact_posterior", spy)
    result, _, _ = harness.evaluate(build_run_config({**SMALL, "replicates": "4"}))
    assert len(calls) == 1
    assert np.array_equal(result.posterior.mean, exact_posterior(calls[0]).mean)


class TestSweepGrid:
    def spec(self, algorithms=("WFALD", "FALD", "SGLD")):
        return SweepSpec(base=build_run_config(SMALL), pc_grid=(0.2, 1.0),
                         snr_db_grid=(10.0, 40.0), algorithms=algorithms,
                         replicates=2)

    def test_collapsed_axes_are_deduplicated(self):
        points = sweep_points(self.spec())
        wfald = [p for p in points if p[0] == "WFALD"]
        fald = [p for p in points if p[0] == "FALD"]
        sgld = [p for p in points if p[0] == "SGLD"]
        assert len(wfald) == 4     # full grid
        assert len(fald) == 2      # SNR collapsed
        assert len(sgld) == 1      # both axes collapsed
        assert all(p[2] is None for p in fald)
        assert sgld[0][1] is None and sgld[0][2] is None

    def test_canonical_order_ignores_request_order(self):
        a = sweep_points(self.spec(("SGLD", "FALD", "WFALD")))
        b = sweep_points(self.spec(("WFALD", "FALD", "SGLD")))
        assert a == b

    def test_seed_paths_pair_algorithms_on_the_grid(self):
        points = sweep_points(self.spec())
        paths = {(p[0], p[1], p[2]): p[3] for p in points}
        assert paths[("WFALD", 0.2, 10.0)] == (0, 0)
        assert paths[("WFALD", 1.0, 40.0)] == (1, 1)
        assert paths[("FALD", 0.2, None)] == (0, 0)
        assert paths[("FALD", 1.0, None)] == (1, 0)


class TestSweepOutput:
    def run_small_sweep(self, tmp_path, name, workers=1):
        spec = SweepSpec(base=build_run_config(SMALL), pc_grid=(0.5, 1.0),
                         snr_db_grid=(15.0,), algorithms=("WFALD", "SGLD"),
                         replicates=3)
        out = tmp_path / name
        rows = run_sweep(spec, str(out), workers=workers)
        return spec, out, rows

    def test_outputs_and_rerun_identical(self, tmp_path):
        spec, out1, rows = self.run_small_sweep(tmp_path, "a")
        _, out2, _ = self.run_small_sweep(tmp_path, "b")
        csv1 = (out1 / "results.csv").read_bytes()
        csv2 = (out2 / "results.csv").read_bytes()
        assert csv1 == csv2
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        assert len(rows) == 3   # 2 WFALD points + 1 collapsed SGLD point

    def test_worker_count_does_not_change_results(self, tmp_path):
        _, out1, _ = self.run_small_sweep(tmp_path, "serial", workers=1)
        _, out4, _ = self.run_small_sweep(tmp_path, "pool", workers=4)
        assert (out1 / "results.csv").read_bytes() == (out4 / "results.csv").read_bytes()

    def test_manifest_contents(self, tmp_path):
        spec, out, _ = self.run_small_sweep(tmp_path, "m")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["master_seed"] == 0
        assert manifest["row_count"] == 3
        assert manifest["config_sha256"] == sweep_manifest(spec)["config_sha256"]
        assert "timestamp" not in manifest

    def test_plotdata_roundtrip(self, tmp_path):
        _, out, _ = self.run_small_sweep(tmp_path, "p")
        records = emit_plotdata(str(out / "results.csv"), "pc_curve")
        series = {r["series"] for r in records}
        assert series == {"WFALD snr=15dB"}
        assert [r["x"] for r in records] == [0.5, 1.0]
        target = tmp_path / "plot.csv"
        assert main(["plotdata", "--results", str(out / "results.csv"),
                     "--figure", "pc_curve", "--output", str(target)]) == 0
        with open(target, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["figure", "series", "x", "y", "y_stderr"]
            assert list(reader) == [{k: _fmt(v) for k, v in r.items()} for r in records]

    def test_baseline_compare_uses_last_iterate_for_wfedavg(self, tmp_path):
        spec = SweepSpec(base=build_run_config(SMALL), pc_grid=(0.5,),
                         snr_db_grid=(10.0,), algorithms=("WFALD", "WFedAvg"),
                         replicates=3)
        out = tmp_path / "cmp"
        rows = run_sweep(spec, str(out), workers=1)
        records = emit_plotdata(str(out / "results.csv"), "baseline_compare")
        by_series = {r["series"]: r for r in records}
        freq_row = next(r for r in rows if r["algorithm"] == "WFedAvg")
        assert by_series["WFedAvg"]["y"] == pytest.approx(freq_row["test_freq_mean"])
        ens_row = next(r for r in rows if r["algorithm"] == "WFALD")
        assert by_series["WFALD"]["y"] == pytest.approx(ens_row["test_ens_mean"])

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown figure"):
            emit_plotdata(str(tmp_path / "missing.csv"), "volcano")


class _DrawFailure(Exception):
    pass


@pytest.mark.parametrize("outcome", ["ok", "ok_two_workers", "protocol_error",
                                     "helper_failure", "helper_killed"])
def test_a_sweep_forks_one_tape_helper_per_worker(monkeypatch, tmp_path, outcome):
    """Each worker runs its grid points in one sequence, and no child outlives the sweep.

    The grid is two FALD points, then two WFedAvg points.  Failures: near-zero
    gains fail the third point; the helper raises while drawing the third
    point, during the second; the helper is killed in the first point.
    """
    spec = SweepSpec(base=build_run_config(SMALL), pc_grid=(0.5, 1.0), snr_db_grid=(15.0,),
                     algorithms=("FALD", "WFedAvg"), replicates=2)
    log = tmp_path / "forks"
    fork = os.fork

    def spied_fork():
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", spied_fork)
    workers, raised = 1, None
    if outcome == "ok_two_workers":
        workers = 2
    elif outcome == "protocol_error":
        monkeypatch.setattr(ChannelConfig, "draw_gains",
                            lambda self, size, rng: np.tile([1.0, 1e-12, 1.0], (size[0], 1)))
        raised = ProtocolError
    elif outcome == "helper_failure":
        fill = protocol._Tape.fill

        def failing_fill(self, s0, s1, drawn):
            if self.config.algorithm == "WFedAvg":
                raise _DrawFailure("third tape failed")
            return fill(self, s0, s1, drawn)

        monkeypatch.setattr(protocol._Tape, "fill", failing_fill)
        raised = _DrawFailure
    elif outcome == "helper_killed":
        monkeypatch.setattr(protocol, "REPLICATE_BLOCK", 2)  # one block of 2: 2-round windows
        monkeypatch.setattr(protocol, "TAPE_WINDOW", 2)
        kill_helper_at(monkeypatch, 2)
        raised = ProtocolError
    if raised is None:
        run_sweep(spec, str(tmp_path / "out"), workers=workers)
    else:
        with pytest.raises(raised):
            run_sweep(spec, str(tmp_path / "out"), workers=workers)
    callers = log.read_text(encoding="ascii").split()
    helpers = [pid for pid in callers if pid != str(os.getpid())]
    if workers == 1:
        assert callers == [str(os.getpid())]
    else:  # the pool forks its workers, and each worker its helper
        assert len(helpers) == len(set(helpers)) == workers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_sweep_builds_its_dataset_and_test_set_once(monkeypatch, tmp_path):
    calls = collections.Counter()
    for name in ("build_dataset", "build_test_set"):
        def counted(*args, _name=name, _function=getattr(harness, name)):
            calls[_name] += 1
            return _function(*args)
        monkeypatch.setattr(harness, name, counted)
    spec = SweepSpec(base=build_run_config(SMALL), pc_grid=(0.5, 1.0), snr_db_grid=(15.0, None),
                     algorithms=("WFALD", "FALD", "SGLD"), replicates=2)
    rows = run_sweep(spec, str(tmp_path / "out"))
    assert len(rows) == 7
    assert calls == {"build_dataset": 1, "build_test_set": 1}


def test_fmt_is_repr_stable():
    assert _fmt(np.float64(0.1)) == "0.1"
    assert _fmt(float("nan")) == "nan"
    assert _fmt(0.30000000000000004) == "0.30000000000000004"
    assert _fmt("WFALD") == "WFALD"
    assert _fmt(3) == "3"


def _rowwise_csv(path, columns, table):
    """The column writer's byte reference: one ``csv.writer`` row per index."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for i in range(len(table[columns[0]])):
            writer.writerow([_fmt(table[c][i]) for c in columns])


@pytest.mark.parametrize("n", [0, 1, 1024, 2500])
def test_column_writer_matches_rowwise_reference(n, tmp_path):
    floats = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 0.1 + 0.2, 1e300, 3.0]
    strings = ["WFALD", "a,b", 'say "hi"', "", "line\nbreak"]
    table = {
        "s": np.arange(1, n + 1),
        "x": np.resize(np.array(floats), n),
        "wide": np.resize(np.array([2**63 - 1, -2**63, 0], dtype=np.int64), n),
        "big": [10**30 + i for i in range(n)],
        "name": [strings[i % len(strings)] for i in range(n)],
        # results rows mix Python and numpy scalars
        "mixed": [(np.float64(0.1), 3, float("nan"), np.float64(-0.0))[i % 4] for i in range(n)],
    }
    columns = tuple(table)
    write_csv(str(tmp_path / "cols.csv"), columns, table)
    _rowwise_csv(str(tmp_path / "rows.csv"), columns, table)
    got = (tmp_path / "cols.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    assert got.count(b"\n") == n + 1 + n // len(strings)  # one row a line, plus the quoted breaks
    if n >= len(floats):
        cells = set(got.decode().replace("\n", ",").split(","))
        assert {"nan", "inf", "-inf", "-0.0", "5e-324", "0.30000000000000004",
                "9223372036854775807", "-9223372036854775808"} <= cells


@pytest.fixture(scope="module")
def long_chain():
    """A 20,000-round, 1-replicate SGLD run with the reference problem's 30 test sets."""
    cfg = build_run_config({"algorithm": "SGLD", "s_total": "20000", "s_burn": "1000",
                            "n_samples": "120"})
    data = build_dataset(cfg)
    result = run(dataclasses.replace(cfg, theta_star=data.theta_star), data)
    return (result, *build_test_set(cfg, data.theta_star))


def test_long_table_is_summarized_and_written_in_bounded_memory(long_chain, tmp_path):
    tracemalloc.start()
    try:
        _, table = summarize_run(*long_chain)
        write_csv(str(tmp_path / "iterations.csv"), ITERATION_COLUMNS, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the ten columns hold 1.6 MB and the peak is 2.39 MB; a table of one dict
    # per round peaks at 11.8 MB, and running_mse's three temporaries at 3.07 MB
    assert peak < 2.6e6
    written = np.loadtxt(tmp_path / "iterations.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(written, np.column_stack(list(table.values())))
