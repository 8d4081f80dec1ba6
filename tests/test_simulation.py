import math

import numpy as np
import pytest

import rieszfd.kernel
import rieszfd.linalg
import rieszfd.schemes
from rieszfd import (
    AnalyticKernel,
    BoundarySpec,
    ConfigInvalid,
    DtPolicy,
    FieldState,
    InitialCondition,
    NoSuchSnapshot,
    SchemeConfig,
    SimulationConfig,
    UnstableTimestep,
    build_grid,
    mass,
    max_stable_dt,
    run,
    snapshot_error,
    validate_params,
)
from rieszfd.grid import sample_initial
from rieszfd.schemes import step_plan
from rieszfd.simulate import SnapshotSeries, config_hash, resolve_dt


def small_config(alpha=1.5, theta=0.0, sigma=1.0, t_end=0.1, snapshots=(), policy=None,
                 n_cells=40, initial=None, gl=0.0, gr=0.0):
    return SimulationConfig(
        grid=build_grid(-2.0, 2.0, n_cells),
        scheme=SchemeConfig(
            params=validate_params(alpha, theta), k_alpha=1.0, sigma=sigma,
            bc_left=BoundarySpec.constant(gl), bc_right=BoundarySpec.constant(gr),
        ),
        initial=initial or InitialCondition.delta(),
        t_end=t_end,
        snapshot_times=snapshots,
        dt_policy=policy or DtPolicy.auto(0.9),
    )


class TestConfig:
    def test_t_end_positive(self):
        for t_end in (0.0, math.inf, math.nan):
            with pytest.raises(ConfigInvalid):
                small_config(t_end=t_end)

    def test_snapshots_inside_horizon(self):
        with pytest.raises(ConfigInvalid):
            small_config(snapshots=(0.5,), t_end=0.1)
        with pytest.raises(ConfigInvalid):
            small_config(snapshots=(-0.1,))
        with pytest.raises(ConfigInvalid):
            small_config(snapshots=(math.nan,))

    def test_policy_validation(self):
        with pytest.raises(ConfigInvalid):
            DtPolicy.auto(1.5)
        with pytest.raises(ConfigInvalid):
            DtPolicy.fixed(-1.0)
        with pytest.raises(ConfigInvalid):
            DtPolicy.fixed(math.inf)


class TestResolveDt:
    def test_auto_respects_stability_bound_strictly(self):
        cfg = small_config()
        dt, n = resolve_dt(cfg)
        bound = max_stable_dt(cfg.scheme.params, cfg.scheme.k_alpha, cfg.grid.h)
        assert 0.0 < dt < bound
        assert n * dt == pytest.approx(cfg.t_end, rel=1e-12)

    def test_snapshot_times_become_step_multiples(self):
        cfg = small_config(t_end=1.0, snapshots=(0.25, 0.5, 1.0), alpha=0.999)
        dt, n = resolve_dt(cfg)
        for t in cfg.snapshot_times:
            steps = t / dt
            assert abs(steps - round(steps)) <= 1e-9

    def test_fixed_policy_single_step(self):
        # implicit, so the step may exceed the explicit bound
        cfg = small_config(policy=DtPolicy.fixed(0.5), t_end=0.1, sigma=0.0)
        dt, n = resolve_dt(cfg)
        assert dt == 0.5 and n == 1

    @pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
    def test_every_sigma_above_one_half_checks_its_bound(self, sigma):
        # alpha = 2, N = 200: the bound / (2 sigma - 1) is sharp there, so
        # a delta stays bounded over 2000 steps at 0.9 of it and grows
        # without limit at 1.1 of it
        params = validate_params(2.0, 0.0)
        grid = build_grid(-10.0, 10.0, 200)
        threshold = max_stable_dt(params, 1.0, grid.h) / (2.0 * sigma - 1.0)
        scheme = SchemeConfig(params=params, k_alpha=1.0, sigma=sigma)
        delta = sample_initial(InitialCondition.delta(), grid).values
        for factor in (0.9, 1.1):
            dt = factor * threshold
            config = SimulationConfig(grid=grid, scheme=scheme, initial=InitialCondition.delta(),
                                      t_end=2000 * dt, dt_policy=DtPolicy.fixed(dt))
            final = step_plan(scheme, dt, grid).advance(delta, 0, 2000)
            if factor < 1.0:
                assert resolve_dt(config)[0] == dt
                assert np.max(np.abs(final)) < 0.15
            else:
                with pytest.raises(UnstableTimestep, match=f"sigma={sigma}"):
                    resolve_dt(config)
                assert not np.max(np.abs(final)) < 1e10

    def test_refuses_runaway_step_count_before_building_anything(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("weight table built for a refused run")

        monkeypatch.setattr(rieszfd.schemes, "weight_table", no_table)
        for sigma in (1.0, 0.0):
            cfg = small_config(policy=DtPolicy.fixed(1e-12), t_end=1.0, sigma=sigma)
            with pytest.raises(ConfigInvalid, match="budget"):
                run(cfg)
        # the auto dt at alpha = 2 and h = 1e-4 takes 2.2e8 steps to t = 1
        cfg = small_config(alpha=2.0, n_cells=40_000, t_end=1.0)
        with pytest.raises(ConfigInvalid, match="budget"):
            resolve_dt(cfg)


class TestRun:
    def test_first_snapshot_is_initial_condition(self):
        cfg = small_config(snapshots=(0.05, 0.1))
        series = run(cfg)
        initial = sample_initial(cfg.initial, cfg.grid)
        assert series.snapshots[0].time == 0.0
        assert np.array_equal(series.snapshots[0].values, initial.values)

    def test_requested_snapshots_recorded_in_order(self):
        cfg = small_config(t_end=0.1, snapshots=(0.05, 0.1))
        series = run(cfg)
        times = series.times
        assert times[0] == 0.0
        assert len(times) == 3
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[1] == pytest.approx(0.05, abs=series.dt * 1e-9)
        assert times[-1] == pytest.approx(0.1, abs=series.dt * 1e-9)

    def test_final_state_always_recorded(self):
        series = run(small_config(snapshots=()))
        assert series.times[-1] == pytest.approx(0.1, rel=1e-12)

    def test_deterministic_bit_identical(self):
        cfg = small_config(alpha=1.3, theta=0.2, snapshots=(0.05,))
        a, b = run(cfg), run(cfg)
        assert a.dt == b.dt and a.n_steps == b.n_steps
        assert a.config_hash == b.config_hash
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.values, sb.values)

    def test_zero_initial_zero_boundaries_stays_zero(self):
        for sigma in (1.0, 0.25):
            cfg = small_config(
                alpha=0.7, theta=0.1, sigma=sigma,
                initial=InitialCondition.box(0.0, -1.0, 1.0), snapshots=(0.05,),
            )
            series = run(cfg)
            for snap in series.snapshots:
                assert np.max(np.abs(snap.values)) == 0.0

    def test_single_step_when_t_end_below_dt(self):
        # implicit path: fixed dt above the explicit bound is still allowed
        cfg = small_config(policy=DtPolicy.fixed(1.0), t_end=0.01, sigma=0.0)
        series = run(cfg)
        assert series.n_steps == 1
        assert series.snapshots[-1].step_index == 1

    def test_implicit_run_matches_stepwise_mass_behaviour(self):
        cfg = small_config(sigma=0.0, t_end=0.02)
        series = run(cfg)
        assert np.all(np.isfinite(series.snapshots[-1].values))

    def test_delta_run_keeps_unit_mass_away_from_boundaries(self):
        cfg = small_config(alpha=2.0, t_end=0.05)
        series = run(cfg)
        assert mass(series.snapshots[-1]) == pytest.approx(1.0, abs=1e-10)

    def test_max_abs_nonincreasing_for_nonnegative_data(self):
        cfg = small_config(alpha=1.5, theta=0.3, t_end=0.05, snapshots=(0.01, 0.02, 0.05))
        series = run(cfg)
        peaks = [np.max(np.abs(s.values)) for s in series.snapshots]
        assert all(b <= a + 1e-14 for a, b in zip(peaks, peaks[1:]))

    def test_explicit_run_factors_and_solves_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an explicit run needs no dense operator, factorization or solve")

        for owner, name in ((rieszfd.schemes, "toeplitz_factor"),
                            (rieszfd.linalg.ToeplitzFactorization, "solve"),
                            (rieszfd.linalg.TridiagonalFactorization, "solve"),
                            (rieszfd.linalg, "lu_factor"), (rieszfd.linalg, "lu_solve"),
                            (rieszfd.schemes, "assemble_system"),
                            (rieszfd.kernel.WeightTable, "application_matrix")):
            monkeypatch.setattr(owner, name, refuse)
        series = run(small_config(alpha=1.3, theta=0.2, gl=0.5, t_end=0.02))
        assert np.all(np.isfinite(series.snapshots[-1].values))

    def test_large_implicit_run_forms_no_dense_matrix(self, monkeypatch):
        # the dense path would need about 1.5 GB at N = 2**13
        def refuse(*args):
            raise AssertionError("an implicit run forms no dense operator, LU or LU solve")

        for owner, name in ((rieszfd.kernel.WeightTable, "application_matrix"),
                            (rieszfd.linalg, "lu_factor"), (rieszfd.linalg, "lu_solve")):
            monkeypatch.setattr(owner, name, refuse)
        cfg = SimulationConfig(
            grid=build_grid(-10.0, 10.0, 2**13),
            scheme=SchemeConfig(params=validate_params(1.5, 0.3), k_alpha=1.0, sigma=0.5),
            initial=InitialCondition.delta(),
            t_end=3e-4,
            dt_policy=DtPolicy.fixed(1e-4),
        )
        series = run(cfg)
        assert series.n_steps == 3
        assert np.all(np.isfinite(series.snapshots[-1].values))

    def test_implicit_heat_limit_keeps_delta_nonnegative(self):
        # at alpha = 2 the tridiagonal system is eliminated directly, so the
        # far field keeps its nonnegative values
        cfg = SimulationConfig(
            grid=build_grid(-10.0, 10.0, 1000),
            scheme=SchemeConfig(params=validate_params(2.0, 0.0), k_alpha=1.0, sigma=0.0),
            initial=InitialCondition.delta(),
            t_end=0.2,
            snapshot_times=(0.1,),
            dt_policy=DtPolicy.fixed(1e-4),
        )
        for snap in run(cfg).snapshots:
            assert np.min(snap.values) >= 0.0
            assert mass(snap) <= 1.0 + 1e-12

    @pytest.mark.parametrize("alpha, theta", [(2.0, 0.0), (1.5, 0.3)])
    def test_fused_explicit_step_keeps_delta_nonnegative(self, alpha, theta):
        # under the explicit bound every fused update coefficient is
        # nonnegative, so no node of a delta run turns negative and its
        # trapezoid mass, up to the rounding of the sums, never grows
        config = SimulationConfig(
            grid=build_grid(-10.0, 10.0, 1000),
            scheme=SchemeConfig(params=validate_params(alpha, theta), k_alpha=1.0),
            initial=InitialCondition.delta(),
            t_end=1.0,
            dt_policy=DtPolicy.auto(0.9),
        )
        dt, n_steps = resolve_dt(config)
        grid = config.grid
        plan = step_plan(config.scheme, dt, grid)
        assert np.min(plan.stencil) >= 0.0
        assert np.min(plan.left) >= 0.0 and np.min(plan.right) >= 0.0
        state = sample_initial(config.initial, grid)
        values, previous = state.values, mass(state)
        for f in range(n_steps):
            values = plan.advance(values, f)
            assert np.min(values) >= 0.0
            current = mass(FieldState(grid=grid, values=values))
            assert current <= previous * (1.0 + 1e-12)
            previous = current

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_run_across_segments_equals_one_advance(self, sigma):
        # run advances 5000 steps in one advance call, which walks them in
        # two segments, 4096 and 904 steps, each evaluating the boundary
        # tables at its own half steps; calls that cut the steps elsewhere
        # give the same bits
        n_steps = 5000
        assert rieszfd.schemes._SEGMENT_STEPS < n_steps
        params = validate_params(1.5, 0.3)
        grid = build_grid(0.0, 1.0, 8)
        dt = 0.5 * max_stable_dt(params, 1.0, grid.h)
        scheme = SchemeConfig(
            params=params, k_alpha=1.0, sigma=sigma,
            bc_left=BoundarySpec.time_table([(0.0, 1.0), (n_steps * dt, -0.5)]),
            bc_right=BoundarySpec.time_table([(0.0, 0.0), (0.5 * n_steps * dt, 2.0)]),
        )
        initial = InitialCondition.box(1.0, 0.25, 0.5)
        series = run(SimulationConfig(grid=grid, scheme=scheme, initial=initial,
                                      t_end=n_steps * dt, dt_policy=DtPolicy.fixed(dt)))
        assert series.n_steps == n_steps
        values = sample_initial(initial, grid).values
        plan = step_plan(scheme, dt, grid)
        expected = plan.advance(values, 0, n_steps)
        assert np.array_equal(series.snapshots[-1].values, expected)
        values = plan.advance(values, 0, 4095)
        for f in range(4095, 4098):
            values = plan.advance(values, f)
        assert np.array_equal(plan.advance(values, 4098, n_steps - 4098), expected)

    def test_series_derives_its_step_count_and_hash(self):
        cfg = small_config(t_end=0.1, snapshots=(0.05,))
        series = run(cfg)
        rebuilt = SnapshotSeries(cfg, series.dt, series.snapshots)
        for s in (series, rebuilt):
            assert s.n_steps == resolve_dt(cfg)[1] == s.snapshots[-1].step_index
            assert s.config_hash == config_hash(cfg)

    def test_config_hash_distinguishes_configs(self):
        a = run(small_config(alpha=1.5, t_end=0.01))
        b = run(small_config(alpha=1.6, t_end=0.01))
        assert a.config_hash != b.config_hash


class TestSnapshotError:
    def test_exact_match_gives_zero(self):
        cfg = small_config(alpha=2.0, t_end=0.05)
        series = run(cfg)
        state = series.snapshots[-1]

        def oracle(x, t):
            return np.interp(x, state.grid.nodes(), state.values)

        assert snapshot_error(series, oracle, 0.05, "l2rel") == 0.0
        assert snapshot_error(series, oracle, 0.05, "linf") == 0.0

    def test_linf_against_zero_oracle(self):
        cfg = small_config(alpha=2.0, t_end=0.05, n_cells=10)
        series = run(cfg)

        def zero(x, t):
            return np.zeros_like(np.asarray(x, dtype=float))

        peak = np.max(np.abs(series.snapshots[-1].values))
        assert snapshot_error(series, zero, 0.05, "linf") == pytest.approx(peak)

    def test_missing_snapshot(self):
        series = run(small_config(t_end=0.1))
        with pytest.raises(NoSuchSnapshot):
            series.nearest(0.456)

    def test_unknown_norm(self):
        series = run(small_config(t_end=0.1))
        with pytest.raises(ValueError):
            snapshot_error(series, AnalyticKernel("gauss_alpha2"), 0.1, "l7")

    @pytest.mark.parametrize("norm", ["l2rel", "linf"])
    @pytest.mark.parametrize("window", [(0.01, 0.02), (0.5, 0.1), (0.0, math.nan)])
    def test_window_without_a_node_is_refused(self, norm, window):
        # 20 cells on [-2, 2]: nodes 0.2 apart, none in (0.01, 0.02)
        series = run(small_config(alpha=2.0, t_end=0.05, n_cells=20))
        kernel = AnalyticKernel("gauss_alpha2", 1.0)
        with pytest.raises(ConfigInvalid, match="x_window"):
            snapshot_error(series, kernel, 0.05, norm, x_window=window)

    def test_window_where_the_oracle_is_zero_is_refused_for_l2rel(self):
        # at t = 0.05 the heat kernel is exp(-405) at x = 9: zero in floats
        # on every node of [9, 10], so l2rel has nothing to divide by
        scheme = SchemeConfig(params=validate_params(2.0, 0.0), k_alpha=1.0)
        series = run(SimulationConfig(grid=build_grid(-10.0, 10.0, 50), scheme=scheme,
                                      initial=InitialCondition.delta(), t_end=0.05))
        kernel = AnalyticKernel("gauss_alpha2", 1.0)
        with pytest.raises(ConfigInvalid, match=r"x_window \(9\.0, 10\.0\) at t = 0\.05"):
            snapshot_error(series, kernel, 0.05, "l2rel", x_window=(9.0, 10.0))
        assert snapshot_error(series, kernel, 0.05, "linf", x_window=(9.0, 10.0)) >= 0.0

    def test_window_restricts_nodes(self):
        cfg = small_config(alpha=2.0, t_end=0.05)
        series = run(cfg)
        kernel = AnalyticKernel("gauss_alpha2", 1.0)
        full = snapshot_error(series, kernel, 0.05, "linf")
        windowed = snapshot_error(series, kernel, 0.05, "linf", x_window=(-0.5, 0.5))
        assert windowed <= full + 1e-18
