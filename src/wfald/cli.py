"""Command line interface.

Subcommands: ``run`` (single configuration, writes summary.json and
iterations.csv), ``sweep`` (grid of configurations, writes results.csv and
manifest.json) and ``plotdata`` (reshape results into tidy plotting series).
Exit codes: 0 success, 1 configuration problem, 2 protocol failure at
runtime (power violation, divergence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .channel import ProtocolError
from .harness import (ConfigurationError, FIGURES, ITERATION_COLUMNS, PLOT_COLUMNS,
                      bound_skip_reason, build_run_config,
                      build_sweep_spec, config_record, emit_plotdata, evaluate, parse_config,
                      run_sweep, write_csv)


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
    return parser


def _cmd_run(args) -> int:
    config = build_run_config(parse_config(args.config, args.overrides))
    result, summary, table = evaluate(config)
    bound_note = bound_skip_reason(result)

    os.makedirs(args.output, exist_ok=True)
    payload = {"config": config_record(result.config), "summary": summary,
               "bound_note": bound_note,
               "region_radius": result.constants.region_radius,
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
        table = {c: [r[c] for r in records] for c in PLOT_COLUMNS}
        write_csv(args.output or None, PLOT_COLUMNS, table)
    else:
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    if args.output:
        print(f"wrote {args.output} ({len(records)} records)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_plotdata(args)
    # a path missing or of the wrong kind, but not any OSError (a failed fork, say)
    except (ConfigurationError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
