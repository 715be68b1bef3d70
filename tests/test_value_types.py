"""The value types: immutable, equal to a copy rebuilt from their fields, and hashable
exactly when no field holds a dict."""

import ast
from pathlib import Path

import pytest

import kp40
from kp40.analysis import (CountRecord, EstimateSet, SimilarityReport, bhattacharyya,
                           estimate_probabilities)
from kp40.bounds import Assignment, ColorabilityResult, ks_colorable, max_ones
from kp40.ksset import KSSet, OrthoGraph
from kp40.pentagram import Context, PauliWord, pentagram_contexts
from kp40.rays import Ray
from kp40.simulate import NoiseModel, PulseRun, convergence_trace
from kp40.states import ProbabilityProfile, profile

# type -> whether its instances hash; a type with a dict field never did
HASHABLE = {
    Ray: True, PauliWord: True, Context: True, KSSet: True, OrthoGraph: True,
    Assignment: False, ColorabilityResult: True, ProbabilityProfile: False,
    CountRecord: False, EstimateSet: False, SimilarityReport: False,
    NoiseModel: True, PulseRun: True,
}


@pytest.fixture(scope="module")
def instances(kset, graph, octads):
    noise = NoiseModel(phase_jitter=0.2, efficiency=0.5)
    run = PulseRun(seed=1, n_pulses=40_000, projector_pool=(9, 10, 11, 12))
    _, record = convergence_trace("ghz", noise, run, [40_000])
    values = [
        kset.ray(1), PauliWord("ZXX"), pentagram_contexts()[0], kset, graph, max_ones(graph)[1],
        ks_colorable(octads, graph), profile("ghz"), record,
        estimate_probabilities(record), bhattacharyya({1: 0.5, 2: 0.5}, {1: 0.25, 2: 0.75}),
        noise, run,
    ]
    return {type(v): v for v in values}


@pytest.mark.parametrize("kind", list(HASHABLE), ids=lambda kind: kind.__name__)
def test_value_type_is_frozen_and_compares_and_hashes_by_value(instances, kind):
    value = instances[kind]
    for name in (value._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    copy = kind(**value._asdict())
    assert type(copy) is kind and copy == value
    if HASHABLE[kind]:
        assert hash(copy) == hash(value)
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_no_src_code_builds_a_value_past_its_new():
    # _replace and _make skip __new__, where CountRecord checks every record rule
    # and Ray checks its entries
    found = []
    for path in sorted(Path(kp40.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):    # breadth first: an inner function overwrites its outer one
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        found += [(path.name, owner.get(node), node.func.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("_replace", "_make")]
    assert found == []
