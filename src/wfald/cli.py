"""Command line interface.

Subcommands: ``run`` (single configuration, writes summary.json and
iterations.csv), ``sweep`` (grid of configurations, writes results.csv and
manifest.json), ``plotdata`` (reshape results into tidy plotting series) and
``validate`` (fast self-checks).  Exit codes: 0 success, 1 configuration
problem, 2 protocol failure at runtime (power violation, divergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .channel import ProtocolError
from .harness import (ConfigurationError, FIGURES, ITERATION_COLUMNS,
                      bound_skip_reason, build_dataset, build_run_config,
                      build_sweep_spec, config_record, emit_plotdata, evaluate, parse_config,
                      plotdata_csv, run_sweep, write_csv)
from .model import exact_posterior
from .protocol import run


def _config_args(sub):
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config entry (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfald",
        description="Simulate federated Langevin sampling over an analog multiple-access channel.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run one configuration and write its summaries")
    _config_args(p_run)
    p_run.add_argument("--output", default=".", help="directory for summary.json / iterations.csv")

    p_sweep = subs.add_parser("sweep", help="run a parameter grid and write results.csv")
    _config_args(p_sweep)
    p_sweep.add_argument("--output", default="sweep_out", help="directory for results.csv / manifest.json")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes, at least 1 (output is worker-count independent)")

    p_plot = subs.add_parser("plotdata", help="reshape results.csv into tidy plot series")
    p_plot.add_argument("--results", required=True, help="path to a sweep results.csv")
    p_plot.add_argument("--figure", required=True, choices=FIGURES)
    p_plot.add_argument("--format", choices=("csv", "json"), default="csv")
    p_plot.add_argument("--output", help="output file (default: stdout)")

    subs.add_parser("validate", help="run fast built-in self-checks")
    return parser


def _cmd_run(args) -> int:
    config = build_run_config(parse_config(args.config, args.overrides))
    result, summary, table = evaluate(config)
    bound_note = bound_skip_reason(result)

    os.makedirs(args.output, exist_ok=True)
    payload = {"config": config_record(result.config), "summary": summary,
               "bound_note": bound_note,
               "region_radius": result.region_radius,
               "constants": {
                   "smoothness": result.constants.smoothness,
                   "strong_convexity": result.constants.strong_convexity,
                   "grad_bound": result.constants.grad_bound,
                   "grad_noise_sq_sum": result.constants.grad_noise_sq_sum,
               }}
    with open(os.path.join(args.output, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    write_csv(os.path.join(args.output, "iterations.csv"), ITERATION_COLUMNS, table)

    print(f"{config.algorithm}: {config.replicates} replicate(s), {config.s_total} rounds")
    print(f"posterior-mean MSE {summary['mse_mean']:.6g} (se {summary['mse_se']:.3g})")
    if not np.isnan(summary["bound_final_mean"]):
        print(f"convergence bound at final round {summary['bound_final_mean']:.6g}")
    else:
        print(f"convergence bound not evaluated: {bound_note}")
    print(f"wrote {os.path.join(args.output, 'summary.json')} and iterations.csv")
    return 0


def _cmd_sweep(args) -> int:
    raw = parse_config(args.config, args.overrides)
    spec = build_sweep_spec(raw)
    rows = run_sweep(spec, args.output, workers=args.workers)
    print(f"swept {len(rows)} grid points -> {os.path.join(args.output, 'results.csv')}")
    return 0


def _cmd_plotdata(args) -> int:
    records = emit_plotdata(args.results, args.figure)
    if args.format == "csv":
        text = plotdata_csv(records)
    else:
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(records)} records)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate() -> int:
    from .model import Dataset
    from .protocol import RunConfig
    from .rng import generator, seed_sequence

    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        failures += 0 if ok else 1

    # closed-form posterior on a hand-checked one-dimensional problem
    data = Dataset(covariates=np.array([[1.0, 1.0]]), targets=np.array([1.0, 2.0]))
    post = exact_posterior(data)
    ok = np.allclose(post.mean, [1.0]) and np.allclose(post.covariance, [[1.0 / 3.0]])
    report("posterior closed form", ok)

    # drawing a block of variates consumes a stream exactly like repeated draws
    g1 = generator(seed_sequence(7, 2, 0, 0, 0))
    g2 = generator(seed_sequence(7, 2, 0, 0, 0))
    block = g1.standard_normal((5, 3))
    seq = np.stack([g2.standard_normal(3) for _ in range(5)])
    report("stream chunk invariance", np.array_equal(block, seq))

    cfg = RunConfig(algorithm="WFALD", k=4, dim=2, n_samples=40, s_total=12,
                    s_burn=4, snr_db=15.0, replicates=1, p_b=0.5,
                    theta_star=np.array([1.0, -1.0]), store_batch_indices=True)
    data = build_dataset(cfg)
    r1 = run(cfg, data)
    r2 = run(cfg, data)
    report("replay determinism", np.array_equal(r1.avg_traj, r2.avg_traj))

    cfg_f = dataclasses.replace(cfg, algorithm="FALD")
    r3 = run(cfg_f, data)
    same_flags = np.array_equal(r1.flags, r3.flags)
    same_batches = all(
        np.array_equal(a, b)
        for a, b in zip(r1.batch_indices[0], r3.batch_indices[0]))
    report("scheduling equivalence across algorithms", same_flags and same_batches)

    use = r1.power_use[~np.isnan(r1.power_use)]
    report("transmit power respected", use.size > 0 and bool((use <= 1 + 1e-9).all()))

    hi = run(dataclasses.replace(cfg, snr_db=60.0, store_batch_indices=False), data)
    lo = run(dataclasses.replace(cfg, snr_db=-10.0, store_batch_indices=False), data)
    hi_beta = np.nanmax(hi.beta)
    lo_beta = np.nanmax(lo.beta)
    report("residual channel noise regimes", hi_beta == 0.0 and lo_beta > 0.0,
           f"high-SNR beta {hi_beta}, low-SNR beta {lo_beta}")

    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "plotdata":
            return _cmd_plotdata(args)
        return _cmd_validate()
    except (ConfigurationError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
