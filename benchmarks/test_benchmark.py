"""Tests of the benchmark itself: oracle, seeding, tracing, entry point.

Run with ``python -m pytest benchmarks``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rieszfd
from green import cauchy_density, green, heat_kernel, rel_l2
from tracing import LAYER_METRICS, Tracer, layer_metrics
from worker import measure
from workloads import CliSweep, sweep_parameters

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("t", [0.2, 1.0])
def test_green_matches_heat_kernel_at_alpha_two(t):
    x = np.linspace(-6.0, 6.0, 121)
    assert np.max(np.abs(green(x, t, 2.0, 0.0) - heat_kernel(x, t))) <= 1e-14


@pytest.mark.parametrize("t, k_alpha", [(0.2, 1.0), (1.0, 1.0), (0.5, 2.0)])
def test_green_matches_cauchy_density_at_alpha_one(t, k_alpha):
    x = np.linspace(-6.0, 6.0, 121)
    assert np.max(np.abs(green(x, t, 1.0, 0.0, k_alpha) - cauchy_density(x, t, k_alpha))) <= 1e-14


def test_green_mirrors_with_skew_and_keeps_unit_mass():
    x = np.linspace(-30.0, 30.0, 6001)
    g = green(x, 0.2, 1.5, 0.3)
    assert np.max(np.abs(g - green(-x, 0.2, 1.5, -0.3))) <= 1e-14
    assert math.isclose(float(np.trapezoid(g, x)), 1.0, abs_tol=2e-3)


def test_skewed_green_sign_matches_solver():
    # the implicit_skew parameters with a ten times coarser time step: the
    # oracle with the solver's skew agrees, the mirrored one does not
    config = rieszfd.SimulationConfig(
        grid=rieszfd.build_grid(-10.0, 10.0, 1000),
        scheme=rieszfd.SchemeConfig(params=rieszfd.validate_params(1.5, 0.3), k_alpha=1.0, sigma=0.0),
        initial=rieszfd.InitialCondition.delta(),
        t_end=0.2,
        snapshot_times=(0.2,),
        dt_policy=rieszfd.DtPolicy.fixed(1e-3),
    )
    final = rieszfd.run(config).snapshots[-1]
    xs = final.grid.nodes()
    inside = (xs >= -3.0) & (xs <= 3.0)
    right = rel_l2(final.values[inside], green(xs[inside], final.time, 1.5, 0.3))
    mirrored = rel_l2(final.values[inside], green(xs[inside], final.time, 1.5, -0.3))
    assert right < 2e-2
    assert mirrored > 0.3


def test_sweep_parameters_are_seeded_and_admissible():
    a, b = sweep_parameters(1), sweep_parameters(2)
    assert a == sweep_parameters(1)
    assert a != b
    for alpha, theta in a + b:
        rieszfd.validate_params(alpha, theta)
    extreme = [abs(t) == min(al, 2.0 - al) for al, t in a[1:]]
    assert sum(extreme) == 8


def test_two_seeds_do_the_same_work_and_report_the_same_metrics(tmp_path):
    results = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        results.append(measure(CliSweep(rieszfd, seed, workdir), seconds=0.0, trace=False))
    first, second = results
    assert first["correct"] and second["correct"]
    assert first["steps_per_rep"] == second["steps_per_rep"] == 25 * 240
    assert set(first["metrics"]) == set(second["metrics"]) == {
        "wall_s", "setup_s", "steps_per_s", "peak_rss_mib", "rel_l2_error", "success_share"
    }
    assert first["metrics"]["success_share"] == 1.0


def _tiny_config():
    return rieszfd.SimulationConfig(
        grid=rieszfd.build_grid(-1.0, 1.0, 20),
        scheme=rieszfd.SchemeConfig(params=rieszfd.validate_params(1.5, 0.0), k_alpha=1.0, sigma=0.5),
        initial=rieszfd.InitialCondition.delta(),
        t_end=0.01,
        snapshot_times=(0.01,),
        dt_policy=rieszfd.DtPolicy.fixed(1e-3),
    )


def test_tracer_wraps_every_namespace_and_restores_it():
    import rieszfd.simulate

    original, original_solve = rieszfd.simulate.implicit_step, rieszfd.linalg.lu_solve
    tracer = Tracer()
    tracer.install()
    try:
        assert rieszfd.simulate.implicit_step is not original
        assert rieszfd.schemes.lu_solve is rieszfd.linalg.lu_solve is not original_solve
        rieszfd.run(_tiny_config())
        assert tracer.take() == []  # nothing is recorded while disabled
        tracer.enabled = True
        rieszfd.run(_tiny_config())
        tracer.enabled = False
        spans = tracer.take()
        installed = set(tracer.installed)
    finally:
        tracer.uninstall()
    assert rieszfd.simulate.implicit_step is original
    assert rieszfd.schemes.lu_solve is original_solve
    metrics = layer_metrics(spans, installed)
    assert metrics["linalg.lu_solve_calls"] == 10
    assert metrics["grid.boundary_calls"] == 22  # two per step, two for the assembly
    assert metrics["kernel.weights_tabulated"] == 39
    assert metrics["schemes.step_self_s"] > 0.0
    # self times of all layers add up to the traced time of the top span
    top = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    self_total = sum(metrics[f"{layer}.self_s"] for layer in ("kernel", "schemes", "linalg", "simulate", "grid"))
    assert math.isclose(self_total, top, rel_tol=1e-9)


def test_metrics_of_a_removed_function_are_dropped():
    installed = {"simulate.run", "linalg.lu_factor"}
    metrics = layer_metrics([], installed)
    assert "linalg.lu_factor_s" in metrics
    assert "linalg.lu_solve_s" not in metrics
    assert "kernel.self_s" not in metrics
    assert set(metrics) <= {name for name, *_ in LAYER_METRICS}


def test_run_refuses_a_directory_without_the_solver(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cli_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_manifest_names_every_reported_metric():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == ["explicit_gauss", "implicit_skew"]
    assert {m["name"] for m in manifest["end_to_end"]} == {
        "wall_s", "setup_s", "steps_per_s", "peak_rss_mib", "rel_l2_error", "success_share"
    }
    per_layer = {m["name"] for m in manifest["per_layer"]}
    assert per_layer == {name for name, *_ in LAYER_METRICS} | {"trace.overhead_s", "trace.overhead_share", "trace.spans"}
    assert all(m["bound"] <= manifest["end_to_end"][1]["bound"] for m in manifest["end_to_end"])
