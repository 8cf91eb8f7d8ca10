"""The public surface: exported names and the functions the benchmark traces."""

import ast
import importlib
import os

import wfald

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _tracer_targets():
    """``TARGETS`` from the benchmark's tracer, read from its source."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_exported_name_resolves():
    missing = [name for name in wfald.__all__ if not hasattr(wfald, name)]
    assert missing == []
    assert len(set(wfald.__all__)) == len(wfald.__all__)


def test_every_traced_function_resolves():
    targets = _tracer_targets()
    assert targets
    for _, module, path in targets:
        obj = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(obj, part), f"{module}.{path}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{path}"
