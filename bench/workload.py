"""One workload process: runs wfald through ``wfald.cli.main`` and reports.

Started by ``run.py`` as a fresh interpreter for every measured call, so
set-up time and peak memory are those of a cold process.  Usage:

    python3 bench/workload.py --src SRC --report REPORT.json [--spans SPANS.csv] -- CLI ARGS...

With ``--spans`` the public functions listed in ``tracer.TARGETS`` are
wrapped and the spans are written to that file; without it only
``protocol.run`` is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from tracer import RunMeter, Tracer, rebind


def peak_rss_mb() -> float:
    """High-water resident set of this process image, in MB.

    ``VmHWM`` counts only this image; ``ru_maxrss`` may also carry the
    parent's resident set from before ``exec``, so it is the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the wfald package")
    parser.add_argument("--report", required=True, help="where to write the JSON report")
    parser.add_argument("--spans", help="trace, and write the spans to this CSV file")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    import wfald.cli

    src = os.path.realpath(args.src)
    if os.path.commonpath([src, os.path.realpath(wfald.cli.__file__)]) != src:
        print(f"wfald was imported from {wfald.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    meter = RunMeter()
    rebind("wfald.protocol", "run", meter.wrap)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    code = wfald.cli.main(cli_args)
    wall_s = time.perf_counter() - start

    report = {
        "exit_code": code,
        "wall_s": wall_s,
        "first_run_entry": meter.first_entry,
        "run_s": meter.run_s,
        "runs": meter.runs,
        "replicate_rounds": meter.replicate_rounds,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        report["calls"] = tracer.calls
        report["self_s"] = tracer.self_s
        tracer.write_spans(args.spans, origin=start)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
