"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; each one asserts at its stated tolerance.
"""

import time

import numpy as np
import pytest

from rieszfd import (
    BoundarySpec,
    DtPolicy,
    InitialCondition,
    SchemeConfig,
    SimulationConfig,
    AnalyticKernel,
    FieldState,
    TailSums,
    build_grid,
    implicit_step,
    mass,
    max_stable_dt,
    run,
    snapshot_error,
    validate_params,
    weight,
    weight_table,
)
from rieszfd.grid import sample_initial
from rieszfd.oracles import p_coefficient, stability_bound_split, tail_oracle, weight_oracle
from rieszfd.schemes import step_plan
from conftest import sample_params

# frozen 6-decimal reference weights, theta = 0
REFERENCE_TABLE = {
    0.1: {0: -0.993029, 1: 0.041819, 2: 0.022853, 3: 0.014264, 4: 0.010322, 5: 0.008054, 10: 0.003751},
    0.5: {0: -0.963132, 1: 0.170296, 2: 0.067624, 3: 0.036213, 4: 0.023595, 5: 0.016974, 10: 0.006116},
    1.5: {0: -1.498970, 1: 0.574964, 2: 0.125442, 3: 0.020048, 4: 0.009118, 5: 0.005125, 10: 0.000906},
    2.0: {0: -2.0, 1: 1.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0, 10: 0.0},
}
NEAR_ONE_COLUMN = {
    0: -0.857606, 1: 0.253710, 2: 0.064577, 3: 0.029047, 4: 0.016789, 5: 0.010996, 10: 0.002926,
}


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_weight_table_reproduction():
    started = time.perf_counter()
    worst = 0.0
    for alpha, column in REFERENCE_TABLE.items():
        params = validate_params(alpha, 0.0)
        for k, ref in column.items():
            worst = max(worst, abs(weight(k, params) - ref))
    near = validate_params(0.999, 0.0)
    worst_near = max(abs(weight(k, near) - ref) for k, ref in NEAR_ONE_COLUMN.items())
    elapsed = time.perf_counter() - started
    report(
        "criterion 1, weight table reproduction",
        worst <= 1e-6 and worst_near <= 5e-4 and elapsed < 1.0,
        f"exact columns max |diff| = {worst:.2e} (tol 1e-6), near-1 column "
        f"{worst_near:.2e} (tol 5e-4, approximate), runtime {elapsed:.3f}s",
    )


def test_criterion_02_update_coefficients_sum_to_one():
    h, k_alpha, dt = 0.5, 2.0, 0.01
    worst = 0.0
    for params in sample_params(200, seed=101):
        table = weight_table(params, -50, 50)
        tails = TailSums(params)
        r = k_alpha * dt / h**params.alpha
        # the update coefficients 1 + r*w_0 and r*w_k, as p_coefficient forms them
        for m in (1, 10, 50):
            total = 1.0 + r * table.weight(0)
            total += sum(r * table.weight(k) + r * table.weight(-k) for k in range(1, m + 1))
            total += r * (tails.left(m) + tails.right(m))
            worst = max(worst, abs(total - 1.0))
    report(
        "criterion 2, coefficient sum identity",
        worst <= 1e-12,
        f"max |sum - 1| = {worst:.2e} over 200 samples, M in {{1, 10, 50}} (tol 1e-12)",
    )


def test_criterion_03_oracle_equivalence():
    worst_w = 0.0
    for seed, low in ((102, True), (103, False)):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            a = float(rng.uniform(0.02, 0.98) if low else rng.uniform(1.02, 2.0))
            t = float(rng.uniform(-1.0, 1.0) * min(a, 2.0 - a))
            params = validate_params(a, t)
            for k in range(-20, 21):
                worst_w = max(worst_w, abs(weight(k, params) - weight_oracle(k, params)))
    worst_t = 0.0
    for params in sample_params(8, seed=104):
        tails = TailSums(params)
        for j in (1, 3, 7):
            worst_t = max(
                worst_t,
                abs(tails.left(j) - tail_oracle(j, params, 10**6, "left")),
                abs(tails.right(j) - tail_oracle(j, params, 10**6, "right")),
            )
    report(
        "criterion 3, oracle equivalence",
        worst_w <= 1e-12 and worst_t <= 1e-8,
        f"weights max |diff| = {worst_w:.2e} (tol 1e-12, 50 samples/branch, |k|<=20); "
        f"tails max |diff| = {worst_t:.2e} (tol 1e-8)",
    )


def test_criterion_04_classical_heat_scheme_limit():
    params = validate_params(2.0, 0.0)
    grid = build_grid(-10.0, 10.0, 200)
    dt = 0.5 * max_stable_dt(params, 1.0, grid.h)
    cfg = SchemeConfig(params=params, k_alpha=1.0)
    table = weight_table(params, -(grid.n_cells - 1), grid.n_cells - 1)
    plan = step_plan(cfg, dt, table, TailSums(params), grid.n_cells, grid.h)
    state = sample_initial(InitialCondition.delta(), grid)
    reference = state.values.copy()
    lam = cfg.k_alpha * dt / grid.h**2
    worst = 0.0
    for _ in range(100):
        state = implicit_step(state, plan)
        new = reference.copy()
        new[1:-1] = reference[1:-1] + lam * (
            reference[2:] - 2.0 * reference[1:-1] + reference[:-2]
        )
        new[0] = 0.0
        new[-1] = 0.0
        reference = new
        worst = max(worst, float(np.max(np.abs(state.values - reference))))
    report(
        "criterion 4, forward-time central-space limit",
        worst <= 1e-12,
        f"max abs diff = {worst:.2e} over 100 steps, N=200 (tol 1e-12)",
    )


def _fundamental_config(alpha):
    return SimulationConfig(
        grid=build_grid(-10.0, 10.0, 1000),
        scheme=SchemeConfig(params=validate_params(alpha, 0.0), k_alpha=1.0, sigma=1.0),
        initial=InitialCondition.delta(),
        t_end=1.0,
        snapshot_times=(1.0,),
        dt_policy=DtPolicy.auto(0.9),
    )


def test_criterion_05_gaussian_fundamental_solution():
    started = time.perf_counter()
    series = run(_fundamental_config(2.0))
    err = snapshot_error(series, AnalyticKernel("gauss_alpha2", 1.0), 1.0, "l2rel")
    elapsed = time.perf_counter() - started
    report(
        "criterion 5, Gaussian fundamental solution",
        err <= 0.01 and elapsed <= 10.0,
        f"rel. L2 = {err:.5f} (tol 0.01), dt = {series.dt:.3e}, "
        f"{series.n_steps} steps in {elapsed:.1f}s",
    )


def test_criterion_06_cauchy_fundamental_solution():
    series = run(_fundamental_config(0.999))
    err = snapshot_error(
        series, AnalyticKernel("cauchy_alpha1", 1.0), 1.0, "l2rel", x_window=(-7.0, 7.0)
    )
    report(
        "criterion 6, Cauchy fundamental solution",
        err <= 0.05,
        f"rel. L2 on [-7, 7] = {err:.5f} (tol 0.05, alpha = 0.999 surrogate)",
    )


def test_criterion_07_mass_conservation():
    params = validate_params(2.0, 0.0)
    grid = build_grid(-10.0, 10.0, 1000)
    dt = 0.9 * max_stable_dt(params, 1.0, grid.h)
    cfg = SchemeConfig(params=params, k_alpha=1.0)
    table = weight_table(params, -(grid.n_cells - 1), grid.n_cells - 1)
    plan = step_plan(cfg, dt, table, TailSums(params), grid.n_cells, grid.h)
    state = sample_initial(InitialCondition.delta(), grid)
    m0 = mass(state)
    margin = grid.n_cells
    drift = 0.0
    for _ in range(1000):
        state = implicit_step(state, plan)
        support = np.nonzero(np.abs(state.values) > 1e-12)[0]
        margin = min(margin, int(support[0]), int(grid.n_cells - support[-1]))
        drift = max(drift, abs(mass(state) - m0))
    report(
        "criterion 7, mass conservation",
        drift <= 1e-8 and margin >= 50,
        f"max |mass drift| = {drift:.2e} over 1000 steps (tol 1e-8), "
        f"support stayed >= {margin} nodes from the boundary (needs >= 50)",
    )


def test_criterion_08_upwind_limit():
    params = validate_params(0.999, 0.999)
    w0, w1 = weight(0, params), weight(1, params)
    spill = sum(abs(weight(k, params)) for k in range(-100, 101) if k not in (0, 1))
    report(
        "criterion 8, upwind limit",
        abs(w0 + 1.0) <= 1e-2 and abs(w1 - 1.0) <= 1e-2 and spill <= 1e-2,
        f"|w0+1| = {abs(w0 + 1):.2e}, |w1-1| = {abs(w1 - 1):.2e}, "
        f"sum of others = {spill:.2e} (tol 1e-2 each)",
    )


def test_criterion_09_sigma_cross_checks():
    rng = np.random.default_rng(105)
    worst = 0.0
    for trial in range(10):
        params = sample_params(1, seed=500 + trial)[0]
        grid = build_grid(0.0, 1.0, 12 + trial)
        dt = 0.5 * max_stable_dt(params, 1.0, grid.h)
        cfg = SchemeConfig(
            params=params, k_alpha=1.0, sigma=1.0,
            bc_left=BoundarySpec.constant(float(rng.uniform(-1, 1))),
            bc_right=BoundarySpec.constant(float(rng.uniform(-1, 1))),
        )
        table = weight_table(params, -(grid.n_cells - 1), grid.n_cells - 1)
        tails = TailSums(params)
        n = grid.n_cells
        vals = rng.uniform(-1, 1, n + 1)
        plan = step_plan(cfg, dt, table, tails, n, grid.h)
        implicit = implicit_step(FieldState(grid=grid, values=vals), plan)
        # the explicit update written with its coefficients p_k and the tails
        r = cfg.k_alpha * dt / grid.h**params.alpha
        gl, gr = cfg.bc_left.value, cfg.bc_right.value
        explicit = np.array([gl] + [
            sum(p_coefficient(k, cfg, dt, grid.h) * vals[j + k] for k in range(-j, n - j + 1))
            + r * (gl * tails.left(j) + gr * tails.right(n - j))
            for j in range(1, n)
        ] + [gr])
        worst = max(worst, float(np.max(np.abs(explicit - implicit.values))))

    params = validate_params(1.5, 0.0)
    grid = build_grid(0.0, 1.0, 20)
    cfg = SchemeConfig(
        params=params, k_alpha=1.0, sigma=0.0,
        bc_left=BoundarySpec.constant(4.0), bc_right=BoundarySpec.constant(4.0),
    )
    table = weight_table(params, -19, 19)
    state = FieldState(grid=grid, values=np.full(21, 4.0))
    state = implicit_step(state, step_plan(cfg, 0.01, table, TailSums(params), 20, grid.h))
    fixed_point_drift = float(np.max(np.abs(state.values - 4.0)))
    report(
        "criterion 9, sigma cross-checks",
        worst <= 1e-12 and fixed_point_drift <= 1e-12,
        f"sigma=1 step vs explicit update max diff = {worst:.2e} (tol 1e-12, 10 configs); "
        f"sigma=0 constant fixed-point drift = {fixed_point_drift:.2e} (tol 1e-12)",
    )


def test_criterion_10_stability_bound_consistency():
    worst = 0.0
    for params in sample_params(100, seed=106):
        direct = max_stable_dt(params, 1.7, 0.3)
        split = stability_bound_split(params, 1.7, 0.3)
        worst = max(worst, abs(direct - split) / max(1.0, abs(direct)))
    params2 = validate_params(2.0, 0.0)
    heat = abs(max_stable_dt(params2, 1.0, 0.1) - 0.1**2 / 2.0)
    report(
        "criterion 10, stability bound internal consistency",
        worst <= 1e-12 and heat <= 1e-12,
        f"branch vs direct rel diff = {worst:.2e} over 100 samples (tol 1e-12); "
        f"|bound(2) - h^2/2K| = {heat:.2e}",
    )


@pytest.mark.parametrize(
    "alpha,theta,g_left",
    [(0.9, -0.7, 0.0), (0.9, -0.7, 10.0), (1.6, -0.4, 10.0)],
)
def test_qualitative_skewed_runs(alpha, theta, g_left):
    config = SimulationConfig(
        grid=build_grid(0.0, 1.0, 200),
        scheme=SchemeConfig(
            params=validate_params(alpha, theta), k_alpha=1.0, sigma=1.0,
            bc_left=BoundarySpec.constant(g_left), bc_right=BoundarySpec.constant(0.0),
        ),
        initial=InitialCondition.box(10.0, 0.4, 0.6),
        t_end=0.02,
        snapshot_times=(0.005, 0.02),
        dt_policy=DtPolicy.auto(0.9),
    )
    series = run(config)
    final = series.snapshots[-1].values
    finite = bool(np.all(np.isfinite(final)))
    in_range = bool(np.all(final >= -1e-9) and np.all(final <= 10.0 + 1e-9))
    if g_left == 10.0:
        head = final[:6]
        monotone = bool(np.all(np.diff(head) <= 1e-12)) and head[0] == 10.0
    else:
        monotone = True
    report(
        f"qualitative run alpha={alpha}, theta={theta}, g_left={g_left}",
        finite and in_range and monotone,
        f"finite={finite}, range=[{final.min():.3f}, {final.max():.3f}], "
        f"monotone approach near left boundary={monotone}",
    )
