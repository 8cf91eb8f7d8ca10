"""Command line interface tests (driving main() in process)."""

import json
import warnings

import numpy as np
import pytest

import wfald.protocol as protocol
from test_protocol import kill_helper_at
from wfald.cli import build_parser, main
from wfald.harness import RESULT_COLUMNS

SMALL_ARGS = ["--set", "k=3", "--set", "dim=2", "--set", "n_samples=12",
              "--set", "eta=0.01", "--set", "s_total=10", "--set", "s_burn=4",
              "--set", "theta_star=1.0, -2.0", "--set", "replicates=2"]


def test_run_writes_summaries(tmp_path):
    out = tmp_path / "run_out"
    code = main(["run", *SMALL_ARGS, "--set", "algorithm=WFALD", "--output", str(out)])
    assert code == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["config"]["algorithm"] == "WFALD"
    assert payload["bound_note"] is None
    assert payload["config"]["theta_star"] == [1.0, -2.0]
    assert payload["summary"]["mse_mean"] > 0
    assert payload["constants"]["smoothness"] >= payload["constants"]["strong_convexity"]
    lines = (out / "iterations.csv").read_text().splitlines()
    assert lines[0].startswith("s,")
    assert len(lines) == 11


def test_run_accepts_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""
        algorithm = FALD      # noiseless reference
        k = 3
        dim = 2
        n_samples = 12
        eta = 0.01
        s_total = 10
        s_burn = 4
        theta_star = 1.0, -2.0
    """)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["config"]["algorithm"] == "FALD"


def test_unknown_key_is_a_configuration_error(tmp_path, capsys):
    code = main(["run", "--set", "learning_rate=0.1", "--output", str(tmp_path)])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["store_device_trajectories", "thin_stride",
                                 "store_batch_indices"])
def test_removed_storage_keys_are_unknown(key, tmp_path, capsys):
    code = main(["run", "--set", f"{key}=1", "--output", str(tmp_path)])
    assert code == 1
    assert f"configuration error: unknown config key: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--set", "gain_model=foo"],
    ["run", "--set", "gain_value=0"],
    ["run", "--set", "theta_star=1,2"],
    ["sweep", *SMALL_ARGS, "--set", "sweep.replicates=abc"],
    ["sweep", *SMALL_ARGS, "--set", "sweep.snr_db_grid=abc"],
    ["sweep", *SMALL_ARGS, "--set", "sweep.pc_grid=abc"],
    ["sweep", *SMALL_ARGS, "--set", "sweep.algorithms=,"],
    ["sweep", *SMALL_ARGS, "--set", "sweep.workers=2"],
    ["sweep", *SMALL_ARGS, "--workers", "0"],
    ["sweep", *SMALL_ARGS, "--workers", "-3"],
    ["run", "--set", "master_seed=-1"],
    ["run", "--set", "noise_std=nan"],
    ["run", "--set", "snr_db=nan"],
    ["run", "--set", "eta=inf"],
    ["run", "--set", "power=inf"],
    ["sweep", *SMALL_ARGS, "--set", "sweep.snr_db_grid=20, nan"],
    ["run", "--set", "snr_db=4000"],
    ["run", "--set", "snr_db=-4000"],
    ["sweep", *SMALL_ARGS, "--set", "sweep.snr_db_grid=20, 4000"],
    ["sweep", *SMALL_ARGS, "--set", "sweep.snr_db_grid=-4000"],
    ["run", "--set", "p_b=1e-6", "--set", "s_total=20", "--set", "s_burn=5"],
    ["sweep", *SMALL_ARGS, "--set", "p_b=0.1"],
    ["sweep", *SMALL_ARGS, "--set", "sweep.algorithms=SGLD", "--set", "p_b=0.04"],
], ids=["gain_model", "gain_value", "theta_star_length", "sweep_replicates", "snr_grid",
        "pc_grid", "no_algorithms", "sweep_workers_key", "workers_0", "workers_negative",
        "negative_seed", "nan_noise_std", "nan_snr", "inf_eta", "inf_power", "nan_snr_grid",
        "huge_snr", "tiny_snr", "huge_snr_grid", "tiny_snr_grid", "sub_sample_batch",
        "sub_sample_batch_grid", "sub_sample_batch_sgld"])
def test_bad_values_exit_1_without_traceback(argv, tmp_path, capsys):
    assert main([*argv, "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_missing_config_file(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("case", ["run_output_file", "sweep_output_file", "config_dir",
                                  "results_dir", "results_missing_column",
                                  "results_bad_cell"])
def test_bad_paths_exit_1_without_traceback(case, tmp_path, capsys):
    """A path of the wrong kind, or a results table that cannot be read, is one line.

    The line names the path, and the column of a bad cell.
    """
    columns = list(RESULT_COLUMNS)
    good = ["WFALD", *["1.0"] * (len(columns) - 1)]
    plot = ["plotdata", "--figure", "pc_curve", "--results"]
    a_file = tmp_path / "taken"
    a_file.write_text("")
    path, column = a_file, None
    if case == "run_output_file":
        argv = ["run", *SMALL_ARGS, "--output", str(a_file)]
    elif case == "sweep_output_file":
        argv = ["sweep", *SMALL_ARGS, "--output", str(a_file)]
    elif case == "config_dir":
        path, argv = tmp_path, ["run", "--config", str(tmp_path)]
    elif case == "results_dir":
        path, argv = tmp_path, [*plot, str(tmp_path)]
    elif case == "results_missing_column":
        path, column = tmp_path / "results.csv", "mse_se"
        i = columns.index(column)
        path.write_text(",".join(columns[:i] + columns[i + 1:]) + "\n"
                        + ",".join(good[:i] + good[i + 1:]) + "\n")
        argv = [*plot, str(path)]
    else:
        path, column = tmp_path / "results.csv", "mse_mean"
        good[columns.index(column)] = "abc"
        path.write_text(",".join(columns) + "\n" + ",".join(good) + "\n")
        argv = [*plot, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(path) in err
    if column is not None:
        assert column in err


def test_divergence_exits_with_protocol_failure(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", *SMALL_ARGS, "--set", "algorithm=FALD",
                     "--set", "eta=100", "--set", "s_total=200",
                     "--output", str(tmp_path / "x")])
    assert code == 2
    assert "protocol failure" in capsys.readouterr().err


def test_step_beyond_contraction_range_skips_the_bound(tmp_path, capsys):
    """k=1 puts the whole dataset on one device, so eta > 2/L at the default step."""
    out = tmp_path / "run_out"
    code = main(["run", "--set", "k=1", "--set", "s_total=12", "--set", "s_burn=4",
                 "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 0
    assert "Traceback" not in err
    payload = json.loads((out / "summary.json").read_text())
    assert np.isnan(payload["summary"]["bound_final_mean"])
    assert "exceeds 2/smoothness" in payload["bound_note"]
    assert "\n" not in payload["bound_note"]


def test_step_too_small_to_contract_skips_the_bound(tmp_path, capsys):
    """At eta=1e-18 the contraction factor 1 - eta * mu rounds to exactly 1."""
    out = tmp_path / "run_out"
    code = main(["run", *SMALL_ARGS, "--set", "eta=1e-18", "--output", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads((out / "summary.json").read_text())
    assert np.isnan(payload["summary"]["bound_final_mean"])
    assert "rounds to 1" in payload["bound_note"]


def test_collapsed_common_gain_is_a_protocol_failure(tmp_path, capsys):
    """At eta=0.5 a payload norm overflows and no positive gain fits the budget."""
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--set", "eta=0.5", "--output", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert "common gain collapsed" in err
    assert "Traceback" not in err


def test_tiny_constant_gain_is_reported_as_the_gain(tmp_path, capsys):
    """At |h_k| = 1e-300 the receiver's 1/(K alpha) noise rescale overflows at once."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--set", "gain_value=1e-300", "--set", "s_total=20",
                     "--set", "s_burn=5", "--output", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("protocol failure: ") and err.count("\n") == 1
    assert "smallest channel gain |h_k| is 1.000e-300" in err


def test_killed_tape_helper_is_a_one_line_protocol_failure(tmp_path, capsys, monkeypatch):
    """The helper process that draws the tape is killed while the parent holds the second window."""
    monkeypatch.setattr(protocol, "TAPE_WINDOW", 2)
    kill_helper_at(monkeypatch, 2)
    code = main(["run", *SMALL_ARGS, "--output", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("protocol failure: the tape helper process ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sweep_then_plotdata(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", *SMALL_ARGS, "--set", "algorithm=WFALD",
                 "--set", "sweep.pc_grid=0.5, 1.0", "--set", "sweep.snr_db_grid=15",
                 "--output", str(out)])
    assert code == 0
    assert (out / "results.csv").exists() and (out / "manifest.json").exists()
    capsys.readouterr()

    code = main(["plotdata", "--results", str(out / "results.csv"),
                 "--figure", "pc_curve"])
    assert code == 0
    stdout = capsys.readouterr().out
    header, *rows = [ln for ln in stdout.splitlines() if ln]
    assert header == "figure,series,x,y,y_stderr"
    assert len(rows) == 2

    target = tmp_path / "plot.json"
    code = main(["plotdata", "--results", str(out / "results.csv"),
                 "--figure", "pc_curve", "--format", "json",
                 "--output", str(target)])
    assert code == 0
    records = json.loads(target.read_text())
    assert [r["x"] for r in records] == [0.5, 1.0]


def test_missing_subcommand_is_a_usage_error(capsys):
    """No subcommand, or the removed ``validate``, exits 2 with argparse's usage error."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2
    assert "invalid choice: 'validate'" in capsys.readouterr().err


def test_plotdata_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["plotdata", "--results", "r.csv",
                                   "--figure", "volcano"])
