"""The benchmark's hooks into kp40, checked without running it.

perfbench/ wraps kp40 functions by object and drives kp40 through the names it
imports; a rename there surfaces only when the benchmark runs.  These tests
load its modules by path, writing nothing, and check each hook.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_its_kp40_module_attribute(monkeypatch):
    _load("workloads", monkeypatch)    # imports the kp40 names its operations call
    tracing = _load("tracing", monkeypatch)
    hooks = [fn for fn, *_ in tracing.SPANNED + tracing.COUNTED]
    assert hooks
    for fn in hooks:
        module = sys.modules[fn.__module__]
        assert module.__name__.startswith("kp40."), fn
        assert getattr(module, fn.__name__, None) is fn, f"{fn.__module__}.{fn.__name__}"
    # the traced run rewraps the record loader, a classmethod
    assert isinstance(vars(tracing.simulate.CountRecord)["from_json"], classmethod)
