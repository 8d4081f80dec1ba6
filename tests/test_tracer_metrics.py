"""The benchmark's traced run can compute every declared per-layer metric.

``benchmarks/tracing.py`` wraps the solver's public functions by name, and
a metric whose functions are all gone is dropped from the traced run's
result.  These tests read the benchmark's files and change none of them.
"""

import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

import rieszfd
from rieszfd import DtPolicy, InitialCondition, SchemeConfig, SimulationConfig, run

ROOT = Path(__file__).resolve().parent.parent


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _functions(tracing):
    """Every function of the timed layers' namespaces and classes, by identity."""
    out = {}
    for layer in tracing.TIMED_LAYERS:
        module = importlib.import_module(f"rieszfd.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj):
                out[layer, name] = obj
            elif inspect.isclass(obj):
                out.update(((layer, name, attr), member) for attr, member in vars(obj).items()
                           if inspect.isfunction(member))
    return out


def test_every_declared_per_layer_metric_is_computable_from_what_the_tracer_wraps(monkeypatch):
    tracing = _tracing(monkeypatch)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    derived = {name for name in declared if name.startswith("trace.")}  # the worker's own
    before = _functions(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = set(tracer.installed)
        tracer.enabled = True
        run(SimulationConfig(
            grid=rieszfd.build_grid(-10.0, 10.0, 64),
            scheme=SchemeConfig(params=rieszfd.validate_params(1.5, 0.3), k_alpha=1.0, sigma=0.0),
            initial=InitialCondition.delta(),
            t_end=3e-4,
            dt_policy=DtPolicy.fixed(1e-4),
        ))
        tracer.enabled = False
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert _functions(tracing) == before
    # by LAYER_METRICS's own rule: a metric needs one of its functions wrapped
    assert sorted(declared - derived - set(tracing.layer_metrics([], installed))) == []
    metrics = tracing.layer_metrics(spans, installed)
    assert sorted(declared - derived - set(metrics)) == []
    assert all(math.isfinite(value) for value in metrics.values())
    # the per-step solve is a traced linalg call
    assert sum(span[0] == "linalg.ToeplitzFactorization.solve" for span in spans) == 3
    assert metrics["linalg.self_s"] > 0.0 and np.isfinite(metrics["schemes.self_s"])
