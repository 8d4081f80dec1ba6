"""Outside-in layer tracing for the benchmark's traced run.

The solver's modules are its layers.  ``install`` wraps every public
function and public method of the timed layers and puts the wrapper into
every ``rieszfd`` namespace that holds the original, because names are
bound at import: ``rieszfd.simulate`` holds its own ``explicit_step``,
``rieszfd.schemes`` its own ``lu_solve``, and so on.  Nothing inside the
solver changes.  Each call made while the tracer is enabled leaves one
span (key, start, end, parent span, meter reading) in memory; spans are
summarised per repetition into the per-layer metrics below.

A function that a later version of the solver no longer has is simply
not wrapped, and the metrics that depend only on it are dropped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

TIMED_LAYERS = ("kernel", "schemes", "linalg", "simulate", "grid", "config", "cli")

# evaluated once per stencil weight: a span each would cost more than the
# work it measures and inflate the weight-table time several fold
UNTRACED = frozenset({"kernel.weight", "kernel.rf_coefficients"})

MIB = 2.0**20


def _apply_meter(args, kwargs, result):
    # bytes the dense apply reads: the (N-1) x (N+1) operator, the state
    # and the three interior-length vectors (two tails and the output)
    n = len(args[0].values) - 1
    return {"bytes": 8.0 * ((n - 1) * (n + 1) + (n + 1) + 3 * (n - 1))}


def _factor_meter(args, kwargs, result):
    n = result.lu.shape[0]
    return {"flops": 2.0 / 3.0 * n**3, "bytes": float(result.lu.nbytes)}


# how the metrics that are not plain times or counts are obtained; their
# units in BENCHMARK.json end in "-computed" where the amount of work comes
# from array sizes rather than from a measurement
DERIVATION = {
    "kernel.operator_mib": "computed: nbytes of the operator array",
    "schemes.apply_gbps": "computed: bytes of operator and vectors read per apply, over measured time",
    "linalg.lu_factor_gflops": "computed: 2/3 N^3 flops of the factorization, over measured time",
    "linalg.factor_mib": "computed: nbytes of the LU factors",
    "cli.csv_mib": "measured: sizes of the written CSV files",
    "cli.csv_mib_per_s": "measured: sizes of the written CSV files, over measured time",
}

METERS = {
    "kernel.weight_table": lambda a, k, r: {"weights": float(r.weights.size)},
    "kernel.WeightTable.application_matrix": lambda a, k, r: {"bytes": float(r.nbytes)},
    "schemes.rf_apply_bounded": _apply_meter,
    "linalg.lu_factor": _factor_meter,
    "cli.write_snapshot_csv": lambda a, k, r: {"bytes": float(os.path.getsize(a[1]))},
}


class Tracer:
    """Span recorder shared by all installed wrappers.

    ``enabled`` is switched on only around the benchmark's calls into the
    solver, so set-up and output checks leave no spans.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()

    def wrap(self, key: str, fn):
        meter = METERS.get(key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [key, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if meter is not None:
                try:
                    record[4] = meter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    record[4] = None
            return result

        return traced

    def install(self, package_name: str = "rieszfd") -> None:
        """Wrap the public callables of every timed layer of the package."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in TIMED_LAYERS:
            module = importlib.import_module(f"{package_name}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    if key not in UNTRACED:
                        wrappers[id(obj)] = (obj, self.wrap(key, obj))
                        self.installed.add(key)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        key = f"{layer}.{name}.{attr}"
                        if attr.startswith("_") or not inspect.isfunction(member) or key in UNTRACED:
                            continue
                        self._set(obj, attr, self.wrap(key, member))
                        self.installed.add(key)
        prefix = package_name + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package_name or mod_name.startswith(prefix)):
                continue
            for name, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    self._set(module, name, found[1])

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self.installed.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


@dataclass
class KeyStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)
    meters: list = field(default_factory=list)

    def meter_sum(self, name: str) -> float:
        return sum(m[name] for m in self.meters if m is not None)

    def meter_max(self, name: str) -> float:
        return max((m[name] for m in self.meters if m is not None), default=0.0)


def summarize(spans: list[list]) -> dict[str, KeyStats]:
    """Per-function call counts, inclusive and self time, durations, meters."""
    child_time = [0.0] * len(spans)
    for key, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, KeyStats] = {}
    for i, (key, start, end, _, meter) in enumerate(spans):
        s = stats.setdefault(key, KeyStats())
        duration = end - start
        s.calls += 1
        s.total += duration
        s.self_time += duration - child_time[i]
        s.durations.append(duration)
        s.meters.append(meter)
    return stats


def _percentile_ms(durations: list, q: float) -> float:
    return 1e3 * float(np.percentile(durations, q)) if durations else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


_MISSING = KeyStats()


def _s(stats, key) -> KeyStats:
    return stats.get(key, _MISSING)


# name, the wrapped functions it reads, how to compute it from
# {key: KeyStats}; a metric is dropped when none of its functions exists
# in the solver.  Units are declared in BENCHMARK.json.
LAYER_METRICS = [
    ("kernel.weight_table_s", ["kernel.weight_table"],
     lambda st: _s(st, "kernel.weight_table").total),
    ("kernel.weights_tabulated", ["kernel.weight_table"],
     lambda st: _s(st, "kernel.weight_table").meter_sum("weights")),
    ("kernel.application_matrix_s", ["kernel.WeightTable.application_matrix"],
     lambda st: _s(st, "kernel.WeightTable.application_matrix").total),
    ("kernel.application_matrix_calls", ["kernel.WeightTable.application_matrix"],
     lambda st: _s(st, "kernel.WeightTable.application_matrix").calls),
    ("kernel.operator_mib", ["kernel.WeightTable.application_matrix"],
     lambda st: _s(st, "kernel.WeightTable.application_matrix").meter_max("bytes") / MIB),
    ("kernel.tail_arrays_s", ["kernel.TailSums.interior_arrays"],
     lambda st: _s(st, "kernel.TailSums.interior_arrays").total),
    ("schemes.apply_s", ["schemes.rf_apply_bounded"],
     lambda st: _s(st, "schemes.rf_apply_bounded").total),
    ("schemes.apply_calls", ["schemes.rf_apply_bounded"],
     lambda st: _s(st, "schemes.rf_apply_bounded").calls),
    ("schemes.apply_gbps", ["schemes.rf_apply_bounded"],
     lambda st: _ratio(_s(st, "schemes.rf_apply_bounded").meter_sum("bytes") / 1e9,
                       _s(st, "schemes.rf_apply_bounded").total)),
    ("schemes.step_self_s", ["schemes.explicit_step", "schemes.implicit_step"],
     lambda st: _s(st, "schemes.explicit_step").self_time + _s(st, "schemes.implicit_step").self_time),
    ("schemes.stability_checks", ["schemes.max_stable_dt"],
     lambda st: _s(st, "schemes.max_stable_dt").calls),
    ("schemes.assemble_s", ["schemes.assemble_system"],
     lambda st: _s(st, "schemes.assemble_system").total),
    ("linalg.lu_factor_s", ["linalg.lu_factor"],
     lambda st: _s(st, "linalg.lu_factor").total),
    ("linalg.lu_factor_gflops", ["linalg.lu_factor"],
     lambda st: _ratio(_s(st, "linalg.lu_factor").meter_sum("flops") / 1e9, _s(st, "linalg.lu_factor").total)),
    ("linalg.factor_mib", ["linalg.lu_factor"],
     lambda st: _s(st, "linalg.lu_factor").meter_max("bytes") / MIB),
    ("linalg.lu_solve_s", ["linalg.lu_solve"],
     lambda st: _s(st, "linalg.lu_solve").total),
    ("linalg.lu_solve_calls", ["linalg.lu_solve"],
     lambda st: _s(st, "linalg.lu_solve").calls),
    ("linalg.lu_solve_ms_p50", ["linalg.lu_solve"],
     lambda st: _percentile_ms(_s(st, "linalg.lu_solve").durations, 50)),
    ("linalg.lu_solve_ms_p95", ["linalg.lu_solve"],
     lambda st: _percentile_ms(_s(st, "linalg.lu_solve").durations, 95)),
    ("simulate.run_self_s", ["simulate.run"],
     lambda st: _s(st, "simulate.run").self_time),
    ("simulate.resolve_dt_s", ["simulate.resolve_dt"],
     lambda st: _s(st, "simulate.resolve_dt").total),
    ("grid.boundary_s", ["grid.boundary_at_half_step"],
     lambda st: _s(st, "grid.boundary_at_half_step").total),
    ("grid.boundary_calls", ["grid.boundary_at_half_step"],
     lambda st: _s(st, "grid.boundary_at_half_step").calls),
    ("grid.sample_initial_s", ["grid.sample_initial"],
     lambda st: _s(st, "grid.sample_initial").total),
    ("config.parse_s", ["config.parse_config"],
     lambda st: _s(st, "config.parse_config").total),
    ("config.manifest_s", ["config.build_manifest", "config.write_manifest"],
     lambda st: _s(st, "config.build_manifest").total + _s(st, "config.write_manifest").total),
    ("cli.csv_write_s", ["cli.write_snapshot_csv"],
     lambda st: _s(st, "cli.write_snapshot_csv").total),
    ("cli.csv_files", ["cli.write_snapshot_csv"],
     lambda st: _s(st, "cli.write_snapshot_csv").calls),
    ("cli.csv_mib", ["cli.write_snapshot_csv"],
     lambda st: _s(st, "cli.write_snapshot_csv").meter_sum("bytes") / MIB),
    ("cli.csv_mib_per_s", ["cli.write_snapshot_csv"],
     lambda st: _ratio(_s(st, "cli.write_snapshot_csv").meter_sum("bytes") / MIB,
                       _s(st, "cli.write_snapshot_csv").total)),
]

for _layer in TIMED_LAYERS:
    LAYER_METRICS.append(
        (f"{_layer}.self_s", [_layer],
         lambda st, prefix=_layer + ".": sum(s.self_time for k, s in st.items() if k.startswith(prefix)))
    )

def layer_metrics(spans: list[list], installed: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    A metric is computed when at least one of its functions is wrapped;
    an entry naming a whole layer needs any wrapped function of it.
    """
    stats = summarize(spans)
    layers = {key.split(".", 1)[0] for key in installed}
    out = {}
    for name, needs, compute in LAYER_METRICS:
        if any(need in installed or need in layers for need in needs):
            out[name] = float(compute(stats))
    return out

