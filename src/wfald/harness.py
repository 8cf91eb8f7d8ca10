"""Experiment harness: config files, dataset builders, sweeps and file output.

Config grammar
--------------
Plain text, one ``key = value`` per line, ``#`` starts a comment.  Run keys
use the bare RunConfig field names (``eta = 3e-3``, ``snr_db = 20`` or
``snr_db = none``); sweep keys carry a ``sweep.`` prefix on SweepSpec field
names.  A value is read as its field's annotation says; grid values and
``theta_star`` are comma separated.  The same ``key=value`` strings can be passed as command
line overrides, which win over the file.

Output contracts
----------------
``run_sweep`` writes ``results.csv`` (one row per grid point, fixed column
order, floats serialized with ``repr`` so reruns are byte-identical) and
``manifest.json`` (schema and seed provenance, no timestamps).  Sweep rows
come out in canonical order regardless of worker count.  ``emit_plotdata``
reshapes ``results.csv`` into tidy series tables for plotting.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .analysis import (BoundInputs, contraction_gamma, drift_bounds, empirical_gaussian,
                       gaussian_w2_squared, per_device_mse, predictive_error,
                       running_mse, w2_bound_sequence)
from .model import Dataset, exact_posterior, generate_synthetic
from .protocol import ALGORITHMS, RunConfig, RunResult, run
from .rng import data_generator, test_data_generator


class ConfigurationError(ValueError):
    """A config file or override is malformed or out of range."""


RESULT_COLUMNS = (
    "algorithm", "p_c", "snr_db", "replicates",
    "mse_mean", "mse_se", "w2_sq",
    "bound_final_mean", "bound_final_se",
    "v_theta_mean", "v_theta_se", "v_c_mean", "v_c_se",
    "v_theta_bound", "v_c_bound",
    "test_ens_mean", "test_ens_se", "test_freq_mean", "test_freq_se",
)

ITERATION_COLUMNS = (
    "s", "mse", "w2_sq", "bound", "v_theta", "v_c",
    "v_theta_bound", "v_c_bound", "beta", "alpha",
)

_BOUNDED = ("WFALD", "FALD")  # algorithms the convergence bound applies to


# -------------------------------------------------------------- datasets --- #


def build_dataset(config: RunConfig) -> Dataset:
    """Deterministic benchmark dataset for a config (master seed only).

    The data stream depends on the master seed alone, so every algorithm and
    every grid point of a sweep sees the same dataset.  For dimensions
    without a stored ground truth the coefficient vector is drawn first from
    the same stream.
    """
    rng = data_generator(config.master_seed)
    star = config.resolve_theta_star(rng)
    return generate_synthetic(config.n_samples, config.dim, star, config.noise_std, rng)


def build_test_set(config: RunConfig, theta_star: np.ndarray,
                   per_device: int = 500) -> tuple[np.ndarray, np.ndarray]:
    """Held-out per-device test data, shapes (k, dim, per_device) and (k, per_device)."""
    rng = test_data_generator(config.master_seed)
    us, vs = [], []
    for _ in range(config.k):
        d = generate_synthetic(per_device, config.dim, theta_star, config.noise_std, rng)
        us.append(d.covariates)
        vs.append(d.targets)
    return np.stack(us), np.stack(vs)


# -------------------------------------------------------- config parsing --- #


@dataclass
class SweepSpec:
    """A grid of runs sharing one base configuration."""

    base: RunConfig
    pc_grid: tuple
    snr_db_grid: tuple
    algorithms: tuple
    replicates: int

    def validate(self):
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigurationError(f"unknown algorithm in sweep: {a!r}")
        for p in self.pc_grid:
            if not 0 < p <= 1:
                raise ConfigurationError(f"sweep p_c value out of range: {p}")
        if self.replicates < 1:
            raise ConfigurationError("sweep.replicates must be at least 1")
        if not self.pc_grid or not self.snr_db_grid or not self.algorithms:
            raise ConfigurationError("sweep grids and sweep.algorithms must be non-empty")
        for config in sweep_configs(self):
            try:
                config.validate()
            except ValueError as exc:
                raise ConfigurationError(f"sweep point {config.algorithm}: {exc}") from None


#: comma lists, each mapped to the key whose grammar its items follow
_LIST_KEYS = {"theta_star": "eta", "sweep.pc_grid": "p_c", "sweep.snr_db_grid": "snr_db",
              "sweep.algorithms": "algorithm"}
_NONE_TOKENS = {"none", "null", "noiseless"}


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parser(key: str, hint):
    """Parser of one key's stripped text: a comma list, or its annotation ``X`` or ``X | None``."""
    if key in _LIST_KEYS:
        def parse_list(text):
            items = tuple(_PARSERS[_LIST_KEYS[key]](t.strip()) for t in text.split(",") if t.strip())
            if key == "theta_star":
                # an empty vector keeps the default coefficients
                return np.array(items) if items else None
            return items
        return parse_list
    scalar = {int: int, float: float, str: str, bool: _parse_bool}
    kinds = [t for t in typing.get_args(hint) if t is not type(None)]
    if not kinds:
        return scalar[hint]
    parse = scalar[kinds[0]]  # X | None
    return lambda text: None if text.lower() in _NONE_TOKENS else parse(text)


_HINTS = {**typing.get_type_hints(RunConfig),
          **{f"sweep.{name}": hint for name, hint in typing.get_type_hints(SweepSpec).items()}}
#: every settable key and its parser, from the RunConfig and SweepSpec annotations
_PARSERS = {key: _parser(key, hint) for key, hint in _HINTS.items()
            if key not in ("seed_path", "sweep.base")}


def _parse_scalar(key: str, text: str):
    try:
        return _PARSERS[key](text.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key}: {exc}") from None


def read_config_text(text: str) -> dict:
    """Parse config file text into a raw {key: string} mapping."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, _, value = body.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def parse_config(path: str | None = None, overrides: list[str] | None = None) -> dict:
    """Merge a config file with command line overrides into raw strings."""
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw.update(read_config_text(fh.read()))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def build_run_config(raw: dict) -> RunConfig:
    """Resolve raw key/value strings into a validated RunConfig; sweep keys are skipped."""
    kwargs = {}
    for key, text in raw.items():
        if key not in _PARSERS:
            raise ConfigurationError(f"unknown config key: {key}")
        if not key.startswith("sweep."):
            kwargs[key] = _parse_scalar(key, text)
    config = RunConfig(**kwargs)
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    return config


def build_sweep_spec(raw: dict) -> SweepSpec:
    base = build_run_config(raw)
    sweep = {key.removeprefix("sweep."): _parse_scalar(key, text)
             for key, text in raw.items() if key.startswith("sweep.")}
    defaults = dict(pc_grid=(base.p_c,), snr_db_grid=(base.snr_db,),
                    algorithms=(base.algorithm,), replicates=base.replicates)
    spec = SweepSpec(base=base, **{**defaults, **sweep})
    spec.validate()
    return spec


def config_record(config: RunConfig) -> dict:
    """A config as JSON-ready plain values, the echo in summary.json and manifest.json."""
    record = dataclasses.asdict(config)
    record["theta_star"] = None if config.theta_star is None else list(map(float, config.theta_star))
    record["seed_path"] = list(config.seed_path)
    return record


# ------------------------------------------------------------- summaries --- #


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else float("nan")
    return mean, se


def bound_skip_reason(result: RunResult) -> str | None:
    """Why the convergence bound does not apply to a run, or None if it does.

    The bound covers WFALD and FALD, and needs a step size within the
    contraction range eta <= 2 / L of the measured smoothness L.
    """
    cfg = result.config
    if cfg.algorithm not in _BOUNDED:
        return f"the convergence bound covers {' and '.join(_BOUNDED)} only"
    c = result.constants
    try:
        contraction_gamma(cfg.eta, c.strong_convexity, c.smoothness)
    except ValueError as exc:
        return str(exc)
    return None


def summarize_run(result: RunResult, posterior, test_inputs=None, test_targets=None):
    """Aggregate a run into a summary row and a per-iteration table.

    The table maps each name in ``ITERATION_COLUMNS`` to a length-S array
    indexed by completed round s = 1..S: ``s`` is an int array, every other
    column float64.  Drift columns describe the particle state entering
    round s, channel columns the round-s transmission (nan when round s did
    not aggregate over the air), and accuracy columns the state after round
    s.  The bound columns are nan where ``bound_skip_reason`` gives a reason.
    """
    cfg = result.config
    R, S = cfg.replicates, cfg.s_total
    errors = per_device_mse(result.device_mean, posterior.mean)
    mse_mean, mse_se = _mean_se(errors)

    w2_final = float("nan")
    w2_per_iter = np.full(S, np.nan)
    if R >= cfg.dim + 2:
        # one fit per round s = 1..S, each over the replicates' particles
        fits = empirical_gaussian(result.avg_traj[:, 1:, :].swapaxes(0, 1))
        w2_per_iter = gaussian_w2_squared(fits, posterior)
        w2_final = w2_per_iter[-1]

    bound_mean = bound_se = float("nan")
    bound_per_iter = np.full(S, np.nan)
    if bound_skip_reason(result) is None:
        seqs = w2_bound_sequence(BoundInputs.from_run(result, posterior))
        bound_per_iter = seqs[:, 1:].mean(axis=0)
        bound_mean, bound_se = _mean_se(seqs[:, -1])

    vt_rep = result.v_theta[:, cfg.s_burn:].mean(axis=1)
    vc_rep = result.v_c[:, cfg.s_burn:].mean(axis=1)
    vt_mean, vt_se = _mean_se(vt_rep)
    vc_mean, vc_se = _mean_se(vc_rep)
    vt_bound, vc_bound = drift_bounds(result.constants, cfg.eta, cfg.p_c,
                                      cfg.k, cfg.dim, vt_mean)

    test_cols = dict(test_ens_mean=float("nan"), test_ens_se=float("nan"),
                     test_freq_mean=float("nan"), test_freq_se=float("nan"))
    if test_inputs is not None:
        # the ensemble predicts with the device-averaged posterior mean, the
        # frequentist estimate is the device-averaged final iterate
        for name, thetas in (("test_ens", result.device_mean), ("test_freq", result.theta_final)):
            errors = predictive_error(thetas.mean(axis=1), test_inputs, test_targets)
            test_cols[f"{name}_mean"], test_cols[f"{name}_se"] = _mean_se(errors)

    summary = {
        "algorithm": cfg.algorithm,
        "p_c": cfg.p_c,
        "snr_db": float("nan") if cfg.snr_db is None else cfg.snr_db,
        "replicates": R,
        "mse_mean": mse_mean, "mse_se": mse_se,
        "w2_sq": w2_final,
        "bound_final_mean": bound_mean, "bound_final_se": bound_se,
        "v_theta_mean": vt_mean, "v_theta_se": vt_se,
        "v_c_mean": vc_mean, "v_c_se": vc_se,
        "v_theta_bound": vt_bound, "v_c_bound": vc_bound,
        **test_cols,
    }

    mse_run = running_mse(result.avg_traj, cfg.s_burn, posterior.mean)
    # residual noise counts as zero on rounds that are not wireless
    betas = np.nan_to_num(result.beta, nan=0.0)
    alpha_cnt = (~np.isnan(result.alpha)).sum(axis=0)
    alpha_sum = np.nansum(result.alpha, axis=0)
    alpha_mean = np.divide(alpha_sum, alpha_cnt,
                           out=np.full(S, np.nan), where=alpha_cnt > 0)
    vt_iter = result.v_theta.mean(axis=0)
    vc_iter = result.v_c.mean(axis=0)
    _, vc_bound_iter = drift_bounds(result.constants, cfg.eta, cfg.p_c, cfg.k, cfg.dim, vt_iter)

    # each round's mean over a contiguous row sums the replicates exactly as
    # a mean over one column of ``betas`` does; betas.mean(axis=0) does not
    beta_iter = np.ascontiguousarray(betas.T).mean(axis=1)
    table = dict(zip(ITERATION_COLUMNS, (
        np.arange(1, S + 1), mse_run, w2_per_iter, bound_per_iter, vt_iter, vc_iter,
        np.full(S, vt_bound, dtype=float), vc_bound_iter, beta_iter, alpha_mean)))
    return summary, table


def evaluate(config: RunConfig) -> tuple[RunResult, dict, dict[str, np.ndarray]]:
    """Run one configuration and summarize it: ``(result, summary, table)``, the table as columns.

    The one path from a config to its summaries, for ``wfald run`` and every
    sweep point.  The run's config records the coefficients its dataset was
    drawn with.  The test sets follow ``config``, so SGLD, whose run has a
    single device, is scored on the same K per-device sets as the others.
    """
    data = build_dataset(config)
    result = run(dataclasses.replace(config, theta_star=data.theta_star), data)
    test_u, test_v = build_test_set(config, data.theta_star)
    summary, table = summarize_run(result, exact_posterior(data), test_u, test_v)
    return result, summary, table


# ----------------------------------------------------------------- sweeps --- #


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_csv(path: str, columns, table):
    """Write ``table``, which maps each name in ``columns`` to a sequence, as CSV.

    Floats are written with ``repr``, other cells with ``str``, 1,024 rows at a time.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for start in range(0, len(table[columns[0]]), 1024):
            chunk = [table[c][start:start + 1024] for c in columns]
            cells = [map(_fmt, c.tolist() if isinstance(c, np.ndarray) else c) for c in chunk]
            writer.writerows(zip(*cells))


def sweep_points(spec: SweepSpec) -> list[tuple]:
    """Canonical (algorithm, p_c, snr_db, seed_path) grid with duplicates removed.

    The seed path is the (p_c index, SNR index) grid position shared by all
    algorithms at that point, so paired comparisons ride on common random
    numbers.  Channel-free algorithms collapse the SNR axis (and SGLD also
    the p_c axis) to a single entry.
    """
    points, seen = [], set()
    order = [a for a in ALGORITHMS if a in spec.algorithms]
    order += [a for a in spec.algorithms if a not in order]
    for algo in order:
        wireless = algo in ("WFALD", "WFedAvg")
        for i, pc in enumerate(spec.pc_grid):
            for j, snr in enumerate(spec.snr_db_grid):
                eff_pc = pc if algo != "SGLD" else None
                eff_snr = snr if wireless else None
                key = (algo, eff_pc, eff_snr)
                if key in seen:
                    continue
                seen.add(key)
                pi = i if algo != "SGLD" else 0
                pj = j if wireless else 0
                points.append((algo, eff_pc, eff_snr, (pi, pj)))
    return points


def _evaluate_point(args):
    idx, config = args
    return idx, evaluate(config)[1]


def sweep_configs(spec: SweepSpec) -> list[RunConfig]:
    configs = []
    for algo, pc, snr, path in sweep_points(spec):
        configs.append(dataclasses.replace(
            spec.base, algorithm=algo,
            p_c=spec.base.p_c if pc is None else pc,
            snr_db=snr, replicates=spec.replicates, seed_path=path))
    return configs


def run_sweep(spec: SweepSpec, output_dir: str, workers: int = 1) -> list[dict]:
    """Run every grid point and write results.csv plus manifest.json.

    Output is independent of ``workers``: rows are keyed by grid index and
    emitted in canonical order, and all randomness is derived from the seed
    scheme rather than execution order.
    """
    spec.validate()
    if workers < 1:
        raise ConfigurationError(f"need at least one worker, got {workers}")
    os.makedirs(output_dir, exist_ok=True)
    configs = sweep_configs(spec)
    tasks = list(enumerate(configs))
    if workers == 1:
        results = dict(map(_evaluate_point, tasks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_evaluate_point, tasks))
    rows = [results[i] for i in range(len(tasks))]
    # report the effective grid coordinates, nan where an axis is collapsed
    for row, (algo, pc, snr, _) in zip(rows, sweep_points(spec)):
        row["p_c"] = float("nan") if pc is None else pc
        row["snr_db"] = float("nan") if snr is None else snr

    write_csv(os.path.join(output_dir, "results.csv"), RESULT_COLUMNS,
              {c: [row[c] for row in rows] for c in RESULT_COLUMNS})
    manifest = sweep_manifest(spec)
    with open(os.path.join(output_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rows


def sweep_manifest(spec: SweepSpec) -> dict:
    payload = {
        "base_config": config_record(spec.base),
        "pc_grid": list(spec.pc_grid),
        "snr_db_grid": [None if s is None else s for s in spec.snr_db_grid],
        "algorithms": list(spec.algorithms),
        "replicates": spec.replicates,
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return {
        "schema_version": 1,
        "tool_version": __version__,
        "master_seed": spec.base.master_seed,
        "seed_scheme": ("streams spawned from SeedSequence(master_seed, spawn_key=(namespace, ...)); "
                        "data namespace 1, runs namespace 2 keyed by (grid position, replicate), "
                        "held-out data namespace 3; algorithms share paths at equal grid positions"),
        "config_sha256": digest,
        "row_count": len(sweep_points(spec)),
        **payload,
    }


# -------------------------------------------------------------- plot data --- #


PLOT_COLUMNS = ("figure", "series", "x", "y", "y_stderr")
FIGURES = ("pc_curve", "snr_curve", "baseline_compare")


def _load_results(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [key for key in RESULT_COLUMNS if key not in (reader.fieldnames or ())]
        if missing:
            raise ConfigurationError(f"{path} has no {missing[0]!r} column")
        rows = []
        for rec in reader:
            row = dict(rec)
            for key in RESULT_COLUMNS[1:]:  # all but "algorithm" are numbers
                try:
                    row[key] = float(rec[key]) if rec[key] != "" else float("nan")
                except (TypeError, ValueError):
                    raise ConfigurationError(f"{path}, line {reader.line_num}: {key} is "
                                             f"{rec[key]!r}, not a number") from None
            rows.append(row)
    return rows


def emit_plotdata(results_path: str, figure: str) -> list[dict]:
    """Reshape a results table into tidy (series, x, y) records for one figure."""
    if figure not in FIGURES:
        raise ConfigurationError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    rows = _load_results(results_path)
    out = []
    if figure == "pc_curve":
        for row in rows:
            if np.isnan(row["p_c"]):
                continue
            snr = "noiseless" if np.isnan(row["snr_db"]) else f"snr={row['snr_db']:g}dB"
            out.append({"figure": figure, "series": f"{row['algorithm']} {snr}",
                        "x": row["p_c"], "y": row["mse_mean"], "y_stderr": row["mse_se"]})
    elif figure == "snr_curve":
        for row in rows:
            if np.isnan(row["snr_db"]):
                continue
            out.append({"figure": figure, "series": f"{row['algorithm']} pc={row['p_c']:g}",
                        "x": row["snr_db"], "y": row["mse_mean"], "y_stderr": row["mse_se"]})
    else:
        for row in rows:
            if np.isnan(row["snr_db"]):
                continue
            freq = row["algorithm"] == "WFedAvg"
            out.append({"figure": figure, "series": row["algorithm"],
                        "x": row["snr_db"],
                        "y": row["test_freq_mean"] if freq else row["test_ens_mean"],
                        "y_stderr": row["test_freq_se"] if freq else row["test_ens_se"]})
    out.sort(key=lambda r: (r["series"], r["x"]))
    return out


def plotdata_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PLOT_COLUMNS)
    for rec in records:
        writer.writerow([_fmt(rec[c]) for c in PLOT_COLUMNS])
    return buf.getvalue()
