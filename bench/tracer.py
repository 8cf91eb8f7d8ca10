"""Spans and counters around wfald's public functions, installed from outside.

The program has no spans of its own, so the benchmark wraps the functions
listed in ``TARGETS`` after import.  Several modules import by name
(``from .channel import power_gain``), so a wrapper must replace every binding
of the original object, not only the one in the defining module: ``install``
rebinds each name in every ``wfald`` module and class that holds it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time

# (layer metric prefix, defining module, attribute path in that module)
TARGETS = (
    ("cli.main", "wfald.cli", "main"),
    ("harness.build_run_config", "wfald.harness", "build_run_config"),
    ("harness.build_sweep_spec", "wfald.harness", "build_sweep_spec"),
    ("harness.build_dataset", "wfald.harness", "build_dataset"),
    ("harness.build_test_set", "wfald.harness", "build_test_set"),
    ("harness.summarize_run", "wfald.harness", "summarize_run"),
    ("harness.write_csv", "wfald.harness", "write_csv"),
    ("harness.run_sweep", "wfald.harness", "run_sweep"),
    ("protocol.run", "wfald.protocol", "run"),
    ("rng.run_streams", "wfald.rng", "run_streams"),
    ("channel.draw_gains", "wfald.channel", "ChannelConfig.draw_gains"),
    ("channel.power_gain", "wfald.channel", "power_gain"),
    ("channel.inversion_power_gain", "wfald.channel", "inversion_power_gain"),
    ("channel.check_power", "wfald.channel", "check_power"),
    ("channel.noma_superpose", "wfald.channel", "noma_superpose"),
    ("channel.receive_aggregate", "wfald.channel", "receive_aggregate"),
    ("channel.residual_noise_power", "wfald.channel", "residual_noise_power"),
    ("model.exact_posterior", "wfald.model", "exact_posterior"),
    ("model.measure_constants", "wfald.model", "measure_constants"),
    ("model.partition_even", "wfald.model", "partition_even"),
    ("analysis.w2_bound_sequence", "wfald.analysis", "w2_bound_sequence"),
    ("analysis.gaussian_w2_squared", "wfald.analysis", "gaussian_w2_squared"),
    ("analysis.empirical_gaussian", "wfald.analysis", "empirical_gaussian"),
    ("analysis.running_mse", "wfald.analysis", "running_mse"),
    ("analysis.drift_bounds", "wfald.analysis", "drift_bounds"),
    ("analysis.predictive_error", "wfald.analysis", "predictive_error"),
    ("analysis.per_device_mse", "wfald.analysis", "per_device_mse"),
)

LAYER_NAMES = tuple(name for name, _, _ in TARGETS)


def _namespaces() -> list:
    """Every wfald module, and every class defined in one, currently loaded."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "wfald" or name.startswith("wfald.")]
    classes = {}
    for mod in modules:
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("wfald"):
                classes[id(value)] = value
    return modules + list(classes.values())


def _lookup(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def rebind(module: str, path: str, make_wrapper) -> None:
    """Replace every binding of ``module.path`` by ``make_wrapper(original)``."""
    original = _lookup(module, path)
    wrapper = make_wrapper(original)
    bound = 0
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, wrapper)
                bound += 1
    if bound == 0:
        raise RuntimeError(f"{module}.{path} is bound nowhere; cannot wrap it")


class RunMeter:
    """Times ``protocol.run`` and counts the replicate-rounds it simulates."""

    def __init__(self):
        self.first_entry = None
        self.run_s = 0.0
        self.runs = 0
        self.replicate_rounds = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def metered(config, data):
            start = time.monotonic()
            if self.first_entry is None:
                self.first_entry = start
            result = fn(config, data)
            self.run_s += time.monotonic() - start
            self.runs += 1
            self.replicate_rounds += config.replicates * config.s_total
            return result
        return metered


class Tracer:
    """In-memory spans with per-name call counts and self times.

    A span is (id, parent id, name, start, end); parent 0 is the root.  Self
    time is a span's duration minus the durations of its direct children.
    """

    def __init__(self):
        self.spans = []
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        self._stack = []          # [span id, summed child duration]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(self._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                self.spans.append((frame[0], parent, name, start, end))
        return traced

    def install(self) -> None:
        for name, module, path in TARGETS:
            rebind(module, path, functools.partial(self.wrap, name))

    def write_spans(self, path: str, origin: float) -> None:
        """Write spans as CSV, times in seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")
