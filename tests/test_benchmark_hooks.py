"""The benchmark's hooks into kp40, checked without running it.

perfbench/ wraps kp40 functions by object and drives kp40 through the names it
imports; a rename there surfaces only when the benchmark runs.  These tests
load its modules by path, writing nothing, and check each hook; the runner,
which starts measuring when imported, is only parsed.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _kp40_reads(tree: ast.AST) -> set[str]:
    """The dotted kp40 names a module's code reads: each name it imports from kp40, and
    each attribute chain in load context rooted at such a name."""
    bound: dict[str, str] = {}    # local name -> the dotted kp40 name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kp40":
                    bound[alias.asname or "kp40"] = alias.name if alias.asname else "kp40"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kp40":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    reads = set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            reads.add(".".join([bound[node.id], *reversed(chain)]))
    return reads


def _code_strings(tree: ast.AST) -> list[ast.AST]:
    """The Python snippets a module keeps as module-level strings that import kp40,
    such as the set-up code a fresh interpreter runs."""
    snippets = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str) and "import kp40" in node.value.value:
            snippets.append(ast.parse(node.value.value))
    return snippets


def _resolve(dotted: str):
    """The object a dotted kp40 name names: its longest importable module prefix, then
    attribute lookups; raises if any part is missing."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(dotted)


@pytest.mark.parametrize("name", ["run", "workloads"])
def test_every_kp40_name_the_benchmark_reads_exists(name):
    tree = ast.parse((PERFBENCH / f"{name}.py").read_text())
    reads = set().union(*map(_kp40_reads, [tree, *_code_strings(tree)]))
    assert reads
    missing = []
    for dotted in sorted(reads):
        try:
            _resolve(dotted)
        except (ImportError, AttributeError):
            missing.append(dotted)
    assert not missing, f"perfbench/{name}.py reads names kp40 does not have: {missing}"


def test_the_set_up_probe_runs_and_loads_no_numpy_rationals_or_csv():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    code, = [node.value.value for node in tree.body if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]]
    watched = ("numpy", "fractions", "decimal", "csv")
    probe = (f"{code}\nimport sys\n"
             f"print(*[m for m in {watched!r} if m in sys.modules], file=sys.stderr)")
    src = str(PERFBENCH.parent / "src")    # where run.py imports kp40 from
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 1 and "import_ms" in json.loads(lines[0])
    assert res.stderr.splitlines()[-1].split() == []
