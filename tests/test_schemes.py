import dataclasses
import tracemalloc

import numpy as np
import pytest

import rieszfd.schemes
import rieszfd.simulate
from rieszfd import (
    BoundarySpec,
    ConfigInvalid,
    DtPolicy,
    FieldState,
    InitialCondition,
    SchemeConfig,
    SimulationConfig,
    TailSums,
    ValidationError,
    build_grid,
    implicit_step,
    mass,
    max_stable_dt,
    run,
    validate_params,
    weight,
)
from rieszfd.grid import boundary_at_half_step, sample_initial
from rieszfd.oracles import p_coefficient, stability_bound_split
from rieszfd.schemes import assemble_system, rf_apply_bounded, step_plan
from conftest import sample_params


def make_setup(params, n_cells=16, left=0.0, right=1.0, k_alpha=1.0, dt=None, sigma=1.0,
               gl=0.0, gr=0.0):
    grid = build_grid(left, right, n_cells)
    if dt is None:
        dt = 0.5 * max_stable_dt(params, k_alpha, grid.h)
    cfg = SchemeConfig(
        params=params, k_alpha=k_alpha, sigma=sigma,
        bc_left=BoundarySpec.constant(gl), bc_right=BoundarySpec.constant(gr),
    )
    return grid, cfg, step_plan(cfg, dt, grid)


class TestPCoefficient:
    def test_heat_limit_quarter_step(self):
        params = validate_params(2.0, 0.0)
        h = 0.1
        cfg, dt = SchemeConfig(params=params, k_alpha=1.0), h * h / 4.0
        assert p_coefficient(0, cfg, dt, h) == pytest.approx(0.5, abs=1e-15)
        assert p_coefficient(1, cfg, dt, h) == pytest.approx(0.25, abs=1e-15)
        assert p_coefficient(-1, cfg, dt, h) == pytest.approx(0.25, abs=1e-15)
        assert p_coefficient(2, cfg, dt, h) == 0.0
        assert p_coefficient(-5, cfg, dt, h) == 0.0

    def test_vanishing_step_limit(self):
        params = validate_params(0.7, 0.2)
        cfg = SchemeConfig(params=params, k_alpha=1.0)
        assert abs(p_coefficient(0, cfg, 1e-13, 0.5) - 1.0) <= 1e-11
        assert abs(p_coefficient(3, cfg, 1e-13, 0.5)) <= 1e-11

    def test_windowed_sum_identity(self):
        for params in sample_params(40, seed=21):
            h = 0.5
            cfg, dt = SchemeConfig(params=params, k_alpha=2.0), 0.01
            tails = TailSums(params)
            r = cfg.k_alpha * dt / h**params.alpha
            for m in (1, 10, 50):
                total = p_coefficient(0, cfg, dt, h)
                total += sum(
                    p_coefficient(k, cfg, dt, h) + p_coefficient(-k, cfg, dt, h)
                    for k in range(1, m + 1)
                )
                total += r * (tails.left(m) + tails.right(m))
                assert abs(total - 1.0) <= 1e-12


class TestStabilityBound:
    def test_heat_equation_value(self):
        params = validate_params(2.0, 0.0)
        assert max_stable_dt(params, 1.0, 0.1) == pytest.approx(0.005, abs=1e-18)
        assert max_stable_dt(params, 2.0, 0.1) == pytest.approx(0.0025, abs=1e-18)

    def test_half_order_value(self):
        params = validate_params(0.5, 0.0)
        assert max_stable_dt(params, 1.0, 0.02) == pytest.approx(0.146835, abs=1e-6)

    def test_agrees_with_branch_expression(self):
        for params in sample_params(100, seed=22):
            direct = max_stable_dt(params, 1.7, 0.3)
            split = stability_bound_split(params, 1.7, 0.3)
            assert abs(direct - split) <= 1e-12 * max(1.0, direct)

    def test_positive(self):
        for params in sample_params(50, seed=23):
            assert max_stable_dt(params, 1.0, 0.1) > 0.0

    @pytest.mark.parametrize("k_alpha, h", [(np.nan, 0.1), (np.inf, 0.1), (1.0, np.inf),
                                            (1.0, np.nan), (0.0, 0.1), (1.0, -0.1)])
    def test_requires_finite_positive_inputs(self, k_alpha, h):
        with pytest.raises(ConfigInvalid, match="positive and finite"):
            max_stable_dt(validate_params(1.5, 0.0), k_alpha, h)


class TestApplyBounded:
    def test_annihilates_constants(self):
        for params in sample_params(15, seed=24):
            grid, cfg, _ = make_setup(params, n_cells=24)
            state = FieldState(grid=grid, values=np.full(25, 3.7))
            out = rf_apply_bounded(state, 3.7, 3.7, params)
            assert np.max(np.abs(out)) <= 1e-10

    def test_alpha_two_is_second_difference(self, rng):
        params = validate_params(2.0, 0.0)
        grid = build_grid(0.0, 1.0, 12)
        vals = rng.uniform(-1, 1, 13)
        gl, gr = 0.4, -0.3
        out = rf_apply_bounded(FieldState(grid=grid, values=vals), gl, gr, params)
        h2 = grid.h**2
        for i in range(1, 12):
            expected = (vals[i + 1] - 2 * vals[i] + vals[i - 1]) / h2
            # boundary values do not enter: the tails vanish identically
            assert out[i - 1] == pytest.approx(expected, rel=1e-13, abs=1e-10)

    def test_linear_field_alpha_two(self):
        params = validate_params(2.0, 0.0)
        grid = build_grid(0.0, 1.0, 20)
        xs = grid.nodes()
        out = rf_apply_bounded(FieldState(grid=grid, values=xs), xs[0], xs[-1], params)
        assert np.max(np.abs(out)) <= 1e-10


class TestExplicitStep:
    def test_zero_is_fixed_point(self):
        params = validate_params(1.3, -0.2)
        grid, cfg, plan = make_setup(params)
        state = FieldState(grid=grid, values=np.zeros(17))
        new = implicit_step(state, plan)
        assert np.array_equal(new.values, np.zeros(17))
        assert new.step_index == 1 and new.time == plan.dt

    def test_heat_limit_update_form(self, rng):
        params = validate_params(2.0, 0.0)
        grid = build_grid(0.0, 1.0, 10)
        dt = grid.h**2 / 4.0
        cfg = SchemeConfig(params=params, k_alpha=1.0,
                           bc_left=BoundarySpec.constant(1.0), bc_right=BoundarySpec.constant(2.0))
        plan = step_plan(cfg, dt, grid)
        vals = rng.uniform(0, 1, 11)
        new = implicit_step(FieldState(grid=grid, values=vals), plan)
        for i in range(1, 10):
            expected = (vals[i - 1] + 2 * vals[i] + vals[i + 1]) / 4.0
            assert new.values[i] == pytest.approx(expected, abs=1e-13)
        assert new.values[0] == 1.0 and new.values[10] == 2.0

    def test_single_step_mass_preservation(self):
        # spike at node c: interior rows collect p_m for m in [1-c, N-1-c],
        # so one step loses exactly the two tails beyond that window
        params = validate_params(1.5, 0.0)
        grid, cfg, plan = make_setup(params, n_cells=400, left=-10.0, right=10.0)
        tails = TailSums(params)
        state = sample_initial(InitialCondition.delta(), grid)
        new = implicit_step(state, plan)
        r = cfg.k_alpha * plan.dt / grid.h**params.alpha
        c = grid.n_cells // 2
        leak = r * (tails.left(c - 1) + tails.right(grid.n_cells - 1 - c))
        assert abs(mass(state) - mass(new) - leak * mass(state)) <= 1e-12

    def test_rejects_unstable_step(self, monkeypatch):
        # the run refuses the step size before it tabulates any weights
        params = validate_params(0.5, 0.0)
        grid = build_grid(0.0, 1.0, 16)
        dt = 1.01 * max_stable_dt(params, 1.0, grid.h)
        scheme = SchemeConfig(params=params, k_alpha=1.0)
        config = SimulationConfig(grid=grid, scheme=scheme, initial=InitialCondition.delta(),
                                  t_end=3 * dt, dt_policy=DtPolicy.fixed(dt))

        def no_table(*args):
            raise AssertionError("weight table built for a refused run")

        with monkeypatch.context() as patched:
            patched.setattr(rieszfd.schemes, "weight_table", no_table)
            with pytest.raises(ConfigInvalid, match="at or above the stability bound"):
                run(config)
        # the plan itself never checks the bound: it steps past it
        plan = step_plan(scheme, dt, grid)
        state = sample_initial(InitialCondition.delta(), grid)
        for _ in range(3):
            state = implicit_step(state, plan)
        assert state.step_index == 3 and np.all(np.isfinite(state.values))

    def test_maximum_principle(self, rng):
        for params in sample_params(15, seed=25):
            gl, gr = rng.uniform(-2, 2, 2)
            grid, cfg, plan = make_setup(params, n_cells=20, gl=gl, gr=gr)
            vals = rng.uniform(-2, 2, 21)
            new = implicit_step(FieldState(grid=grid, values=vals), plan)
            lo = min(vals.min(), gl, gr) - 1e-12
            hi = max(vals.max(), gl, gr) + 1e-12
            assert np.all(new.values >= lo) and np.all(new.values <= hi)

    def test_long_time_decay(self):
        for alpha, theta in ((2.0, 0.0), (1.5, 0.3), (0.7, -0.2)):
            params = validate_params(alpha, theta)
            grid, cfg, plan = make_setup(params, n_cells=40)
            state = sample_initial(InitialCondition.box(1.0, 0.4, 0.6), grid)
            previous = np.max(np.abs(state.values))
            for _ in range(25):
                state = implicit_step(state, plan)
                current = np.max(np.abs(state.values))
                assert current <= previous + 1e-14
                previous = current

    def test_transport_limit_matches_upwind(self):
        # extreme skew turns the update into explicit one-sided advection
        params = validate_params(0.999, 0.999)
        grid = build_grid(0.0, 1.0, 50)
        dt = 0.5 * max_stable_dt(params, 1.0, grid.h)
        cfg = SchemeConfig(params=params, k_alpha=1.0)
        nu = cfg.k_alpha * dt / grid.h**params.alpha
        assert abs(p_coefficient(0, cfg, dt, grid.h) - (1.0 - nu)) <= 1e-2
        assert abs(p_coefficient(1, cfg, dt, grid.h) - nu) <= 1e-2
        others = sum(
            abs(p_coefficient(k, cfg, dt, grid.h)) for k in range(-49, 50) if k not in (0, 1)
        )
        assert others <= 1e-2


class TestAssembleSystem:
    def test_sigma_one_interior_is_identity(self):
        params = validate_params(0.8, 0.1)
        grid, cfg, plan = make_setup(params, n_cells=10, sigma=1.0)
        state = FieldState(grid=grid, values=np.arange(11.0))
        matrix, _ = assemble_system(state, cfg, plan.dt)
        assert np.array_equal(matrix, np.eye(11))

    def test_sigma_zero_heat_limit_tridiagonal(self):
        params = validate_params(2.0, 0.0)
        grid = build_grid(0.0, 1.0, 8)
        dt = 0.01
        cfg = SchemeConfig(params=params, k_alpha=1.0, sigma=0.0)
        state = FieldState(grid=grid, values=np.zeros(9))
        a, _ = assemble_system(state, cfg, dt)
        lam = dt / grid.h**2
        for i in range(1, 8):
            assert a[i, i] == pytest.approx(1.0 + 2.0 * lam, rel=1e-15)
            assert a[i, i - 1] == pytest.approx(-lam, rel=1e-15)
            assert a[i, i + 1] == pytest.approx(-lam, rel=1e-15)
            far = [a[i, j] for j in range(9) if abs(j - i) > 1]
            assert np.max(np.abs(far)) == 0.0

    def test_against_direct_indexing_oracle(self, rng):
        params = validate_params(0.5, 0.25)
        n = 4
        grid = build_grid(0.0, 1.0, n)
        dt = 0.02
        gl, gr = 0.7, -0.4
        cfg = SchemeConfig(params=params, k_alpha=1.3, sigma=0.5,
                           bc_left=BoundarySpec.constant(gl), bc_right=BoundarySpec.constant(gr))
        vals = rng.uniform(-1, 1, n + 1)
        state = FieldState(grid=grid, values=vals)
        matrix, rhs = assemble_system(state, cfg, dt)

        tails = TailSums(params)
        r = cfg.k_alpha * dt / grid.h**params.alpha
        expected = np.zeros((n + 1, n + 1))
        expected[0, 0] = 1.0
        expected[n, n] = 1.0
        for row in range(1, n):
            for col in range(n + 1):
                a_entry = (cfg.sigma - 1.0) * r * weight(col - row, params)
                expected[row, col] = (1.0 if row == col else 0.0) + a_entry
        assert np.max(np.abs(matrix - expected)) <= 1e-14

        by_index = np.zeros(n + 1)
        by_index[0], by_index[n] = gl, gr
        for j in range(1, n):
            window = sum(vals[j + k] * weight(k, params) for k in range(-j, n - j + 1))
            by_index[j] = vals[j] + r * (
                gl * tails.left(j)
                + gr * tails.right(n - j)
                + cfg.sigma * window
            )
        assert np.max(np.abs(rhs - by_index)) <= 1e-13


class TestImplicitStep:
    def test_sigma_one_equals_explicit(self, rng):
        # C + dt K h^-alpha (W C + g_L s_L + g_R s_R), written out by index
        n = 14
        for trial in range(10):
            params = sample_params(1, seed=300 + trial)[0]
            gl, gr = rng.uniform(-1, 1, 2)
            grid, cfg, plan = make_setup(params, n_cells=n, gl=gl, gr=gr, sigma=1.0)
            tails = TailSums(params)
            vals = rng.uniform(-1, 1, n + 1)
            new = implicit_step(FieldState(grid=grid, values=vals), plan)
            expected = np.empty(n + 1)
            expected[0], expected[n] = gl, gr
            for j in range(1, n):
                window = sum(vals[j + k] * weight(k, params) for k in range(-j, n - j + 1))
                op = window + gl * tails.left(j) + gr * tails.right(n - j)
                expected[j] = vals[j] + plan.dt * cfg.k_alpha * op / grid.h**params.alpha
            assert np.max(np.abs(new.values - expected)) <= 1e-12

    def test_zero_field_zero_boundaries(self):
        for sigma in (0.0, 0.5, 1.0):
            params = validate_params(1.7, 0.1)
            grid, cfg, plan = make_setup(params, n_cells=12, sigma=sigma)
            state = FieldState(grid=grid, values=np.zeros(13))
            new = implicit_step(state, plan)
            assert np.max(np.abs(new.values)) == 0.0

    def test_fully_implicit_constant_fixed_point(self):
        params = validate_params(0.6, -0.3)
        grid, cfg, plan = make_setup(params, n_cells=18, sigma=0.0, gl=2.5, gr=2.5)
        state = FieldState(grid=grid, values=np.full(19, 2.5))
        for _ in range(20):
            state = implicit_step(state, plan)
        assert np.max(np.abs(state.values - 2.5)) <= 1e-12

    def test_reused_factorization_matches_fresh(self, rng):
        params = validate_params(1.4, 0.2)
        grid, cfg, plan = make_setup(params, n_cells=12, sigma=0.3, gl=1.0)
        state = FieldState(grid=grid, values=rng.uniform(0, 1, 13))

        def fresh():
            return step_plan(cfg, plan.dt, grid)

        a = implicit_step(implicit_step(state, fresh()), fresh())
        b = implicit_step(implicit_step(state, plan), plan)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.inf, np.nan])
    def test_refuses_a_nonpositive_or_nonfinite_dt(self, dt):
        params = validate_params(1.5, 0.3)
        grid = build_grid(0.0, 1.0, 8)
        state = FieldState(grid=grid, values=np.ones(9))
        for sigma in (0.0, 0.5, 1.0):
            cfg = SchemeConfig(params=params, k_alpha=1.0, sigma=sigma)
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                step_plan(cfg, dt, grid)
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                assemble_system(state, cfg, dt)

    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_refuses_a_state_of_another_grid(self, alpha):
        # a plan for 8 cells on [0, 1] and 16-cell values: at alpha = 2 the
        # step would return a wrong 17-value state, at 1.5 fail deep inside
        params = validate_params(alpha, 0.0)
        cfg = SchemeConfig(params=params, k_alpha=1.0)
        coarse, fine = build_grid(0.0, 1.0, 8), build_grid(0.0, 1.0, 16)
        plan = step_plan(cfg, 0.5 * max_stable_dt(params, 1.0, fine.h), coarse)
        values = np.linspace(0.0, 1.0, 17)
        with pytest.raises(ValidationError, match="cannot step a state on"):
            implicit_step(FieldState(grid=fine, values=values), plan)
        with pytest.raises(ValidationError, match=r"a 8-cell plan steps 9 values, got \(17,\)"):
            plan.advance(values, 0, 3)
        # as many nodes on another domain: another h, so other coefficients
        with pytest.raises(ValidationError, match="cannot step a state on"):
            implicit_step(FieldState(grid=build_grid(0.0, 2.0, 8), values=values[::2]), plan)
        assert implicit_step(FieldState(grid=coarse, values=values[::2]), plan).step_index == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_node_aligned_step_at_every_reach(self, n):
        # the stencil reaches one node at alpha = 2 and the whole grid at
        # every other order, one-sided at theta = +-alpha below 1; no
        # stencil at sigma = 0.  Either way a step gives one value per node
        rng = np.random.default_rng(n)
        grid = build_grid(0.0, 1.0, n)
        values = rng.uniform(-1.0, 1.0, n + 1)
        sizes = set()
        for alpha, theta in ((2.0, 0.0), (1.5, 0.3), (0.7, 0.7), (0.7, -0.7)):
            params = validate_params(alpha, theta)
            for sigma in (0.0, 0.5, 1.0):
                dt = 0.01 * grid.h**alpha
                cfg = SchemeConfig(params=params, k_alpha=1.0,
                                   sigma=sigma, bc_left=BoundarySpec.constant(0.7),
                                   bc_right=BoundarySpec.constant(-0.4))
                plan = step_plan(cfg, dt, grid)
                sizes.add(None if plan.stencil is None else plan.stencil.size)
                got = plan.advance(values, 0)
                state = FieldState(grid=grid, values=values)
                expected = np.linalg.solve(*assemble_system(state, cfg, dt))
                assert got[0] == 0.7 and got[-1] == -0.4
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert sizes == {None, 3, 2 * n - 1}

    def test_half_step_boundary_values_used(self):
        # time-dependent boundary: value at dt*(f + 1/2) lands on the nodes
        params = validate_params(1.5, 0.0)
        spec = BoundarySpec.time_table([(0.0, 0.0), (1.0, 1.0)])
        grid = build_grid(0.0, 1.0, 8)
        cfg = SchemeConfig(params=params, k_alpha=1.0, sigma=0.0, bc_left=spec, bc_right=spec)
        state = FieldState(grid=grid, values=np.zeros(9))
        new = implicit_step(state, step_plan(cfg, 0.1, grid))
        assert new.values[0] == pytest.approx(0.05, abs=1e-15)
        assert new.values[-1] == pytest.approx(0.05, abs=1e-15)
        assert new.values[0] == boundary_at_half_step(spec, 0.1, 0)


def _peak_bytes(call):
    """The tracemalloc peak of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAdvance:
    @pytest.mark.parametrize("f, steps", [(0, 0), (0, -3), (-1, 2)])
    def test_refuses_a_step_count_below_one_or_a_negative_start(self, f, steps):
        params = validate_params(1.5, 0.3)
        *_, plan = make_setup(params, n_cells=8, gl=1.0)
        values = np.linspace(0.0, 1.0, 9)
        with pytest.raises(ValueError, match="f >= 0 and steps >= 1"):
            plan.advance(values, f, steps)

    def test_reads_any_state_as_one_float_array(self):
        # an int64 state and a list step bit for bit like their float64
        # copy, into a new float array; any other shape is refused
        params = validate_params(1.5, 0.3)
        ints = np.array([0, 2, 2, 2, 2, 2, 2, 2, 2])
        for sigma in (0.0, 0.5, 1.0):
            *_, plan = make_setup(params, n_cells=8, sigma=sigma, gl=0.3, gr=-0.2)
            floats = ints.astype(np.float64)
            expected = plan.advance(floats, 0, 5)
            assert expected is not floats
            for values in (ints, ints.tolist()):
                got = plan.advance(values, 0, 5)
                assert got is not values and got.dtype == np.float64
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            with pytest.raises(ValidationError, match=r"steps 9 values, got \(9, 1\)"):
                plan.advance(ints[:, None], 0, 5)

    def test_memory_is_bounded_whatever_the_step_count(self):
        # 30000 steps of an 8-cell plan: the boundary values of all of them
        # at once would take about 2 MiB of arrays and Python floats
        params = validate_params(1.5, 0.3)
        grid = build_grid(0.0, 1.0, 8)
        dt = 0.5 * max_stable_dt(params, 1.0, grid.h)
        table = BoundarySpec.time_table([(0.0, 1.0), (30_000 * dt, -0.5)])
        cfg = SchemeConfig(params=params, k_alpha=1.0, bc_left=table, bc_right=table)
        plan = step_plan(cfg, dt, grid)
        values = np.linspace(0.0, 1.0, 9)
        assert _peak_bytes(lambda: plan.advance(values, 0, 30_000)) < 2**20

    def test_scalar_weight_memory_does_not_grow_with_the_offset(self):
        params = validate_params(1.5, 0.3)
        assert _peak_bytes(lambda: weight(10**7, params)) < 2**20

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_plan_peak_stays_within_the_run_byte_estimate(self, sigma):
        # resolve_dt budgets the step plan at _PLAN_ARRAYS arrays of N + 1
        # floats; the GMRES setup of the factorization is the peak.  At
        # small N fixed overheads dominate, so measure a large grid
        n = 2**14
        params = validate_params(1.5, 0.3)
        grid = build_grid(-10.0, 10.0, n)
        cfg = SchemeConfig(params=params, k_alpha=1.0, sigma=sigma)
        # the work arrays of a 20-step advance stay inside the same bound
        values = np.exp(-grid.nodes() ** 2)
        for dt in (0.5, 1e4 * max_stable_dt(params, 1.0, grid.h)):
            peak = _peak_bytes(lambda: step_plan(cfg, dt, grid))
            assert peak <= rieszfd.simulate._PLAN_ARRAYS * 8 * (n + 1)
            plan = step_plan(cfg, dt, grid)
            peak = _peak_bytes(lambda: plan.advance(values, 0, 20))
            assert peak <= rieszfd.simulate._PLAN_ARRAYS * 8 * (n + 1)

    @pytest.mark.parametrize("steps", [1, 31, 70], ids=["one", "31", "blocked"])
    @pytest.mark.parametrize("boundaries", ["zero", "constant", "tables"])
    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_never_writes_its_input_and_returns_a_new_array(
        self, sigma, alpha, boundaries, steps
    ):
        # at sigma = 0 the solve reads the interior of the input itself
        params = validate_params(alpha, 0.3 if alpha < 2.0 else 0.0)
        grid = build_grid(-10.0, 10.0, 64)
        dt = 0.5 * max_stable_dt(params, 1.0, grid.h)
        bcs = {
            "zero": (BoundarySpec.constant(0.0),) * 2,
            "constant": (BoundarySpec.constant(0.4), BoundarySpec.constant(-0.6)),
            "tables": (BoundarySpec.time_table([(0.0, 1.0), (80 * dt, -0.5)]),
                       BoundarySpec.time_table([(0.0, 0.0), (80 * dt, 2.0)])),
        }[boundaries]
        cfg = SchemeConfig(params=params, k_alpha=1.0, sigma=sigma,
                           bc_left=bcs[0], bc_right=bcs[1])
        plan = step_plan(cfg, dt, grid)
        values = np.exp(-grid.nodes() ** 2)
        before = values.tobytes()
        got = plan.advance(values, 3, steps)
        assert values.tobytes() == before
        assert not np.shares_memory(got, values) and got.flags.writeable
        values.setflags(write=False)  # a write into it would now raise
        assert np.array_equal(plan.advance(values, 3, steps), got)

    @pytest.mark.parametrize("n, alpha, theta, sigma, dt, steps, boundaries", [
        (1000, 1.5, 0.3, 0.0, 1e-4, 2000, "zero"),  # the benchmark's implicit_skew march
        (400, 1.5, 0.3, 0.5, 2.5e-4, 5000, "tables"),  # past a segment of _SEGMENT_STEPS
        (1000, 2.0, 0.0, 0.5, 1e-3, 300, "constant"),  # the tridiagonal solve
    ], ids=["implicit-skew", "sigma-half-tables", "tridiagonal"])
    def test_steps_bit_for_bit_like_a_new_array_per_step(
        self, n, alpha, theta, sigma, dt, steps, boundaries
    ):
        # the step's arithmetic written out with fresh arrays, as advance
        # did before it reused its work arrays from step to step
        grid = build_grid(-10.0, 10.0, n)
        bcs = {
            "zero": (BoundarySpec.constant(0.0),) * 2,
            "constant": (BoundarySpec.constant(0.4), BoundarySpec.constant(-0.6)),
            "tables": (BoundarySpec.time_table([(0.0, 1.0), (0.5, -0.5), (1.25, 0.2)]),
                       BoundarySpec.time_table([(0.0, 0.0), (1.25, 2.0)])),
        }[boundaries]
        cfg = SchemeConfig(params=validate_params(alpha, theta), k_alpha=1.0, sigma=sigma,
                           bc_left=bcs[0], bc_right=bcs[1])
        plan = step_plan(cfg, dt, grid)
        assert rieszfd.schemes._SEGMENT_STEPS == 4096 and plan.factorization is not None
        values = sample_initial(InitialCondition.delta(), grid).values
        times = dt * (np.arange(steps) + 0.5)
        expected = values
        for g_left, g_right in zip(bcs[0].at(times).tolist(), bcs[1].at(times).tolist()):
            interior = expected[1:-1]
            if plan.stencil is not None:
                interior = np.correlate(expected, plan.stencil, "valid")
            if g_left != 0.0:
                interior = interior + g_left * plan.left
            if g_right != 0.0:
                interior = interior + g_right * plan.right
            interior = plan.factorization.solve(interior)
            expected = np.concatenate(([g_left], interior, [g_right]))
        assert plan.advance(values, 0, steps).tobytes() == expected.tobytes()


def _heat_plan(n, sigma=1.0, alpha=2.0, bc_left=BoundarySpec.constant(0.0),
               bc_right=BoundarySpec.constant(0.0)):
    params = validate_params(alpha, 0.0)
    grid = build_grid(-10.0, 10.0, n)
    dt = 0.9 * max_stable_dt(params, 1.0, grid.h)
    cfg = SchemeConfig(params=params, k_alpha=1.0, sigma=sigma, bc_left=bc_left, bc_right=bc_right)
    return step_plan(cfg, dt, grid)


def _one_step_at_a_time(plan, values, f, steps):
    for g in range(f, f + steps):
        values = plan.advance(values, g)
    return values


def _forged_heat_plan(**fields):
    plan = _heat_plan(200, bc_left=BoundarySpec.constant(0.4),
                      bc_right=BoundarySpec.constant(-0.6))
    return dataclasses.replace(plan, **fields)


def _column_at(node):
    column = np.zeros(199)
    column[node - 1] = 0.01
    return column


def _assert_not_blocked(plan):
    values = np.exp(-plan.grid.nodes() ** 2)
    got = plan.advance(values, 0, 70)
    assert plan._squares is None
    assert np.array_equal(got, _one_step_at_a_time(plan, values, 0, 70))


class TestBlockedAdvance:
    """alpha = 2 at N >= 10: a call of at least _BLOCKED_CALL_STEPS steps takes
    up to k = min(_BLOCK_STEPS, (N - 2) // 4) steps per matrix product."""

    @pytest.mark.parametrize("n", [130, 200, 1000, 1023])
    @pytest.mark.parametrize("boundaries", ["zero", "constant", "tables"])
    @pytest.mark.parametrize("f, steps", [(7, 100), (0, 4200), (3, "2k+1"), (3, "2k-1")])
    def test_agrees_with_one_step_calls_to_rounding(self, n, boundaries, f, steps):
        # no step count is a whole number of blocks: a short block of 1 and
        # of k - 1 steps, and 4200 steps cross a segment boundary, where
        # segments are whole blocks and the last one leaves a short block.
        # N + 1 = 1024 fills the last row of the panel product, the other
        # grids leave part of it past the images
        k = _heat_plan(n)._block_steps
        steps = {"2k+1": 2 * k + 1, "2k-1": 2 * k - 1}.get(steps, steps)
        assert steps % k != 0
        assert ((n + 1) % rieszfd.schemes._PANEL_WIDTH == 0) == (n == 1023)
        bcs = BoundarySpec.constant(0.0), BoundarySpec.constant(0.0)
        if boundaries == "constant":
            bcs = BoundarySpec.constant(0.7), BoundarySpec.constant(-1.3)
        elif boundaries == "tables":
            dt = _heat_plan(n).dt
            bcs = (BoundarySpec.time_table([(0.0, 1.0), (3000 * dt, -0.5)]),
                   BoundarySpec.time_table([(0.0, 0.0), (50 * dt, 2.0), (2000 * dt, 0.5)]))
        plan = _heat_plan(n, bc_left=bcs[0], bc_right=bcs[1])
        assert plan._squares is not None
        values = np.exp(-plan.grid.nodes() ** 2) + np.sin(plan.grid.nodes())
        blocked = plan.advance(values, f, steps)
        stepped = _one_step_at_a_time(plan, values, f, steps)
        assert np.max(np.abs(blocked - stepped)) <= 1e-13 * np.max(np.abs(stepped))
        assert blocked[0] == stepped[0] and blocked[-1] == stepped[-1]
        if boundaries != "zero":
            return
        # delta data with zero end values: exact zeros beyond the reach, no
        # negative node, and no table of composed stencils for the inflow
        plan = dataclasses.replace(plan)
        delta = np.zeros(n + 1)
        delta[n // 2] = 1.0 / plan.grid.h
        got = plan.advance(delta, f, steps)
        assert np.all(got[np.abs(np.arange(n + 1) - n // 2) > steps] == 0.0)
        assert np.all(got >= 0.0) and not np.any(np.signbit(got))
        assert "_squares" in plan.__dict__ and "_inflow" not in plan.__dict__

    def test_delta_spreads_one_node_a_step_and_stays_nonnegative(self):
        plan = _heat_plan(1000)
        values = np.zeros(1001)
        values[500] = 1.0 / plan.grid.h
        values = plan.advance(values, 0, 40)
        assert np.all(values >= 0.0)
        far = np.abs(np.arange(1001) - 500) > 40
        assert np.all(values[far] == 0.0) and np.all(values[~far] > 0.0)

    @pytest.mark.parametrize("n, sigma, alpha", [(200, 1.0, 1.5), (200, 0.5, 2.0), (9, 1.0, 2.0)])
    def test_other_plans_step_bit_for_bit_like_one_step_calls(self, n, sigma, alpha):
        # a long stencil, a solve or too few nodes for a block of two steps
        plan = _heat_plan(n, sigma=sigma, alpha=alpha, bc_left=BoundarySpec.constant(0.4))
        values = np.exp(-plan.grid.nodes() ** 2)
        got = plan.advance(values, 3, 70)
        assert plan._squares is None
        assert np.array_equal(got, _one_step_at_a_time(plan, values, 3, 70))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_boundary_column_past_the_stencil_is_not_blocked(self, side):
        # the odd extension holds both ends at zero, so it has no place for
        # a boundary column: a plan with one steps one step at a time
        _assert_not_blocked(_forged_heat_plan(**{side: _column_at(101)}))

    @pytest.mark.parametrize("side, node", [("left", 1), ("right", 199)])
    def test_a_boundary_column_next_to_its_end_is_not_blocked(self, side, node):
        _assert_not_blocked(_forged_heat_plan(**{side: _column_at(node)}))

    def test_an_asymmetric_stencil_is_not_blocked(self):
        # an odd extension steps like a held end only for a symmetric stencil
        _assert_not_blocked(_forged_heat_plan(stencil=np.array([0.5, 0.1, 0.4])))

    def test_block_data_is_built_only_for_a_call_long_enough_to_block(self):
        plan = _heat_plan(200)
        values = np.exp(-plan.grid.nodes() ** 2)
        plan.advance(values, 0)
        plan.advance(values, 0, rieszfd.schemes._BLOCKED_CALL_STEPS - 1)
        assert not {"_squares", "_panel", "_inflow"} & plan.__dict__.keys()
        # a call shorter than a full block builds the squares, not P_k's panel
        assert rieszfd.schemes._BLOCKED_CALL_STEPS < plan._block_steps
        plan.advance(values, 0, rieszfd.schemes._BLOCKED_CALL_STEPS)
        assert "_squares" in plan.__dict__ and "_panel" not in plan.__dict__
        plan.advance(values, 0, plan._block_steps)
        assert "_panel" in plan.__dict__

    def test_a_call_too_short_to_block_steps_bit_for_bit_with_the_table_built(self):
        plan = _heat_plan(1000, bc_left=BoundarySpec.constant(0.4))
        values = np.exp(-plan.grid.nodes() ** 2)
        assert plan._squares is not None
        assert plan._panel is not None and plan._inflow is not None
        steps = rieszfd.schemes._BLOCKED_CALL_STEPS - 1
        got = plan.advance(values, 3, steps)
        assert np.array_equal(got, _one_step_at_a_time(plan, values, 3, steps))

    @pytest.mark.parametrize("n", [10, 33, 64, 129])
    @pytest.mark.parametrize("boundaries", ["zero", "constant", "tables"])
    def test_every_block_length_agrees_with_one_step_calls(self, n, boundaries):
        # grids of two to 31 steps a block.  33 steps leave a short block
        # over, 16 k steps none, and 4100 steps end in a segment of 4 steps.
        # At zero boundary values the first step still reads the end values
        bcs = BoundarySpec.constant(0.0), BoundarySpec.constant(0.0)
        if boundaries == "constant":
            bcs = BoundarySpec.constant(0.7), BoundarySpec.constant(-1.3)
        elif boundaries == "tables":
            dt = _heat_plan(n).dt
            bcs = (BoundarySpec.time_table([(0.0, 1.0), (30 * dt, -0.5), (900 * dt, 0.2)]),
                   BoundarySpec.time_table([(0.0, 0.0), (7 * dt, 2.0), (3000 * dt, 0.5)]))
        plan = _heat_plan(n, bc_left=bcs[0], bc_right=bcs[1])
        k = plan._block_steps
        assert k == min(rieszfd.schemes._BLOCK_STEPS, (n - 2) // 4) >= 2
        assert plan._squares is not None
        values = np.cos(plan.grid.nodes()) + 0.1 * np.arange(n + 1)
        for f, steps in ((0, 33), (5, 16 * k), (1, 4100)):
            blocked = plan.advance(values, f, steps)
            stepped = _one_step_at_a_time(plan, values, f, steps)
            assert np.max(np.abs(blocked - stepped)) <= 1e-13 * np.max(np.abs(stepped))
            assert blocked[0] == stepped[0] and blocked[-1] == stepped[-1]
            assert np.array_equal(plan.advance(values, f, steps), blocked)

    @pytest.mark.parametrize("n", [6, 33])
    def test_a_block_of_up_to_n_minus_one_steps_is_exact(self, n, monkeypatch):
        # the cap of a quarter of the grid is for cost: the k images and
        # k inflow nodes of one end may reach to the other
        dt = _heat_plan(n).dt
        plan = _heat_plan(n, bc_left=BoundarySpec.time_table([(0.0, 1.0), (40 * dt, -0.5)]),
                          bc_right=BoundarySpec.constant(0.3))
        values = np.sin(plan.grid.nodes())
        steps = 6 * n + 4
        stepped = _one_step_at_a_time(plan, values, 0, steps)
        for k in (2, n // 2, n - 1):
            monkeypatch.setattr(rieszfd.schemes.StepPlan, "_block_steps", property(lambda _: k))
            blocked = dataclasses.replace(plan).advance(values, 0, steps)
            assert np.max(np.abs(blocked - stepped)) <= 1e-13 * np.max(np.abs(stepped))

    def test_delta_over_several_long_blocks_keeps_its_zeros_and_sign(self):
        plan = _heat_plan(4000)
        assert plan._block_steps == rieszfd.schemes._BLOCK_STEPS
        values = np.zeros(4001)
        values[2000] = 1.0 / plan.grid.h
        values = plan.advance(values, 0, 700)
        far = np.abs(np.arange(4001) - 2000) > 700
        assert np.all(values[far] == 0.0) and np.all(values[~far] > 0.0)
        assert not np.any(np.signbit(values))

    @pytest.mark.parametrize("n", [130, 1000])
    @pytest.mark.parametrize("boundaries", ["zero", "tables"])
    def test_data_at_an_end_stays_nonnegative_without_negative_zeros(self, n, boundaries):
        # the images subtract the mirrored state; box data on nodes 0..9
        # must still give no negative node and no -0.0, whole blocks or not
        bcs = BoundarySpec.constant(0.0), BoundarySpec.constant(0.0)
        if boundaries == "tables":
            dt = _heat_plan(n).dt
            bcs = (BoundarySpec.time_table([(0.0, 0.0), (40 * dt, 2.0), (200 * dt, 0.0)]),
                   BoundarySpec.time_table([(0.0, 1.0), (100 * dt, 0.0)]))
        plan = _heat_plan(n, bc_left=bcs[0], bc_right=bcs[1])
        assert plan._squares is not None
        values = np.zeros(n + 1)
        values[:10] = 1.0
        k = rieszfd.schemes._BLOCK_STEPS
        for blocks in range(1, 13):
            for steps in (k * blocks, k * blocks + 7):
                got = plan.advance(values, 0, steps)
                assert np.all(got >= 0.0)
                assert not np.any(np.signbit(got[got == 0.0]))
