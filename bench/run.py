#!/usr/bin/env python3
"""wfald benchmark: run one workload for a fixed time, check it, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source tree that holds ``src/wfald``.  Each measured
call is a fresh ``bench/workload.py`` process that runs ``wfald run`` or
``wfald sweep`` through ``wfald.cli.main`` with one worker and one BLAS/OpenMP
thread.  Calls repeat until ``--seconds`` is used up; every call's outputs are
checked against values computed here (``checks.py``) and against each other.

``--trace 0`` reports the end-to-end metrics, medians over the calls.
``--trace 1`` alternates untraced and traced calls and reports the per-layer
self times and call counts of the traced ones, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402  (numpy must see the thread limits)
from tracer import LAYER_NAMES  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: a call still running this long after the run started is killed, so a
#: hung program cannot keep the run past its 180 s limit
RUN_LIMIT_S = 170.0

#: the reference problem shared by every workload (README, "Inputs")
REFERENCE = {"k": 30, "dim": 5, "n_samples": 1200, "eta": 3e-3, "p_b": 0.4,
             "p_c": 0.5, "s_total": 200, "s_burn": 100}


@dataclass(frozen=True)
class Workload:
    command: str        # wfald subcommand
    settings: dict      # --set key=value pairs on top of REFERENCE
    shards: int | None  # devices whose constants checks.Reference recomputes
    check: Callable     # checks.check_* function

    @property
    def config(self) -> dict:
        return {**REFERENCE, **self.settings}

    @property
    def grid_points(self) -> int:
        if self.command == "sweep":
            return checks.expected_grid_rows(self.config)
        return 1

    @property
    def replicate_rounds(self) -> int:
        cfg = self.config
        if self.command == "sweep":
            return self.grid_points * cfg["sweep.replicates"] * cfg["s_total"]
        return cfg.get("replicates", 1) * cfg["s_total"]

    def cli_args(self, seed: int, out_dir: Path) -> list[str]:
        args = [self.command]
        for key, value in {**self.config, "master_seed": seed}.items():
            args += ["--set", f"{key}={value}"]
        args += ["--output", str(out_dir)]
        if self.command == "sweep":
            args += ["--workers", "1"]
        return args


WORKLOADS = {
    "wfald_fading_replicates": Workload(
        "run", {"algorithm": "WFALD", "snr_db": 10.0, "gain_model": "rayleigh",
                "replicates": 300},
        shards=30, check=checks.check_fading),
    "reference_sweep": Workload(
        "sweep", {"sweep.algorithms": "WFALD,FALD,SGLD,WFedAvg",
                  "sweep.pc_grid": "0.2,0.5,1.0", "sweep.snr_db_grid": "10,20,none",
                  "sweep.replicates": 20},
        shards=None, check=checks.check_sweep),
    "sgld_long_chain": Workload(
        "run", {"algorithm": "SGLD", "s_total": 20000, "s_burn": 1000},
        shards=1, check=checks.check_sgld),
}


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Call:
    """One workload process and what it reported."""

    traced: bool
    ok: bool
    report: dict
    setup_s: float = float("nan")


def run_call(workload: Workload, seed: int, work_dir: Path, spans: Path | None,
             deadline: float, problems: list, digests: set, ref) -> Call:
    out = work_dir / "output"
    report_path = work_dir / "report.json"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), "--src", str(ROOT / "src"),
           "--report", str(report_path)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *workload.cli_args(seed, out)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        print(f"call killed after {time.monotonic() - spawned:.0f} s", file=sys.stderr)
        return Call(traced=spans is not None, ok=False, report={})
    if proc.returncode != 0 or not report_path.exists():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        print(f"call failed with exit code {proc.returncode}: {' | '.join(tail)}",
              file=sys.stderr)
        return Call(traced=spans is not None, ok=False, report={})

    report = json.loads(report_path.read_text(encoding="utf-8"))
    call = Call(traced=spans is not None, ok=True, report=report,
                setup_s=report["first_run_entry"] - spawned)
    if report["runs"] != workload.grid_points:
        problems.append(f"protocol.run ran {report['runs']} times, expected {workload.grid_points}")
    if report["replicate_rounds"] != workload.replicate_rounds:
        problems.append(f"{report['replicate_rounds']} replicate-rounds simulated, "
                        f"expected {workload.replicate_rounds}")
    try:
        problems += workload.check(str(out), workload.config, ref)
        digests.add(_digest(out))
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {exc}")
    shutil.rmtree(work_dir)
    return call


def end_to_end(calls: list[Call]) -> dict:
    med = statistics.median
    reports = [c.report for c in calls]
    return {
        "wall_s": {"value": med([r["wall_s"] for r in reports]), "unit": "s"},
        "setup_s": {"value": med([c.setup_s for c in calls]), "unit": "s"},
        "replicate_rounds_per_s": {
            "value": med([r["replicate_rounds"] / r["run_s"] for r in reports]), "unit": "1/s"},
        "peak_rss_mb": {"value": med([r["peak_rss_mb"] for r in reports]), "unit": "MB"},
    }


def per_layer(traced: list[Call], untraced: list[Call]) -> dict:
    reports = [c.report for c in traced]
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = {
            "value": statistics.median([r["calls"][name] for r in reports]), "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median([r["self_s"][name] for r in reports]), "unit": "s"}
    metrics["protocol.us_per_replicate_round"] = {
        "value": statistics.median([1e6 * r["self_s"]["protocol.run"] / r["replicate_rounds"]
                                    for r in reports]), "unit": "us"}
    metrics["protocol.replicate_rounds"] = {
        "value": statistics.median([r["replicate_rounds"] for r in reports]), "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median([r["wall_s"] for r in reports])
        - statistics.median([c.report["wall_s"] for c in untraced]), "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one wfald benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="master_seed of the workload")
    parser.add_argument("--seconds", type=float, default=40.0, help="time to spend measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "wfald" / "cli.py").is_file():
        print(f"no wfald source tree under {ROOT / 'src'}; run from a wfald checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    ref = (checks.Reference.build(args.seed, REFERENCE["n_samples"], workload.shards)
           if workload.shards else None)
    work_root = OUT_DIR / "tmp" / f"{tag}-{os.getpid()}"
    trace_dir = OUT_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    calls, problems, digests = [], [], set()
    started = time.monotonic()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        t0 = time.monotonic()
        calls.append(run_call(workload, args.seed, work_root / f"call{len(calls)}",
                              trace_dir / f"{tag}.spans.csv" if traced else None,
                              started + RUN_LIMIT_S, problems, digests, ref))
        longest = max(longest, time.monotonic() - t0)
        enough = len(calls) >= (2 if args.trace else 1)
        if enough and time.monotonic() - started + longest > args.seconds:
            break
    shutil.rmtree(work_root, ignore_errors=True)

    if len(digests) > 1:
        problems.append(f"outputs differ between calls of one seed ({len(digests)} digests)")
    ok = [c for c in calls if c.ok]
    untraced = [c for c in ok if not c.traced]
    traced = [c for c in ok if c.traced]
    attempted = len(calls) * workload.grid_points
    failed = (len(calls) - len(ok)) * workload.grid_points
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if not untraced or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    if args.trace:
        (trace_dir / f"{tag}.layers.json").write_text(
            json.dumps(metrics, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(ok)} of {len(calls)} calls ok "
          f"({len(traced)} traced), {attempted} grid points")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
