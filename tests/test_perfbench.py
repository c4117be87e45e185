"""The benchmark harness under perfbench/ binds library names by module and
attribute and wraps them in place; these tests fail when a library change
breaks a name it reads or a wrapping it restores."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import multimix.langevin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")


def test_every_traced_name_resolves():
    for module, attrs, _ in spans.SPANS.values():
        owner = importlib.import_module(f"multimix.{module}")
        for attr in attrs:
            assert callable(getattr(owner, attr)), f"multimix.{module}.{attr}"
    assert callable(multimix.langevin.ScoreField.__dict__["evaluate"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_op_runs_the_same_traced(name):
    build, op = workloads.WORKLOADS[name]
    fixed = build(0)
    plain = op(fixed, np.random.default_rng([0, 0]))
    tracer = spans.Tracer()
    with tracer.installed():
        traced = op(fixed, np.random.default_rng([0, 0]))
    assert tracer.leftover_bindings() == []
    for res in (plain, traced):
        assert res.problems == []
    assert len(plain.outputs) == len(traced.outputs)
    for a, b in zip(plain.outputs, traced.outputs):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(plain.errors, traced.errors)
