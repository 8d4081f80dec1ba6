import numpy as np
import pytest

from rieszfd import (
    BoundarySpec,
    FieldState,
    InitialCondition,
    ValidationError,
    build_grid,
    mass,
)
from rieszfd.grid import boundary_at_half_step, sample_initial


class TestGrid:
    def test_spacing(self):
        assert build_grid(-10.0, 10.0, 1000).h == pytest.approx(0.02, abs=1e-18)

    def test_nodes(self):
        g = build_grid(0.0, 1.0, 4)
        assert g.nodes().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_degenerate(self):
        with pytest.raises(ValidationError, match=r"need right > left, got \[0.0, 0.0\]"):
            build_grid(0.0, 0.0, 10)
        with pytest.raises(ValidationError, match=r"need right > left, got \[1.0, 0.0\]"):
            build_grid(1.0, 0.0, 10)
        with pytest.raises(ValidationError, match="need at least 2 cells, got 1"):
            build_grid(0.0, 1.0, 1)
        for left, right in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValidationError, match="domain ends must be finite"):
                build_grid(left, right, 10)
        # a cell count is an integer: a float, even a whole one, is not truncated
        for n_cells in (10.7, 2.0):
            with pytest.raises(ValidationError, match=f"must be an integer, got {n_cells}"):
                build_grid(0.0, 1.0, n_cells)
        assert build_grid(0.0, 1.0, np.int64(10)).n_cells == 10

    def test_endpoints_exact_without_drift(self):
        # 20/1000 is not exactly representable; endpoints must still be exact
        g = build_grid(-10.0, 10.0, 1000)
        xs = g.nodes()
        assert xs[0] == -10.0 and xs[-1] == 10.0
        assert np.all(np.diff(xs) > 0)

    def test_state_length_checked(self):
        g = build_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            FieldState(grid=g, values=np.zeros(4))


class TestInitialConditions:
    def test_delta_on_even_grid(self):
        g = build_grid(-10.0, 10.0, 1000)
        state = sample_initial(InitialCondition.delta(), g)
        assert state.values[500] == pytest.approx(50.0)
        assert np.count_nonzero(state.values) == 1
        assert state.time == 0.0 and state.step_index == 0

    def test_delta_rejects_odd_grid(self):
        with pytest.raises(ValidationError, match="needs an even cell count, got 11"):
            sample_initial(InitialCondition.delta(), build_grid(0.0, 1.0, 11))

    def test_box_closed_interval_membership(self):
        g = build_grid(0.0, 1.0, 10)
        state = sample_initial(InitialCondition.box(10.0, 0.4, 0.6), g)
        assert state.values.tolist() == [0, 0, 0, 0, 10, 10, 10, 0, 0, 0, 0]

    def test_box_out_of_domain(self):
        g = build_grid(0.0, 1.0, 10)
        with pytest.raises(ValidationError, match=r"box \[-0.1, 0.5\] not inside \[0.0, 1.0\]"):
            sample_initial(InitialCondition.box(1.0, -0.1, 0.5), g)
        with pytest.raises(ValidationError, match=r"box bounds inverted: \[0.8, 0.2\]"):
            sample_initial(InitialCondition.box(1.0, 0.8, 0.2), g)

    def test_tabulated_at_nodes_copies_exactly(self, rng):
        g = build_grid(0.0, 2.0, 8)
        values = rng.uniform(-1, 1, 9)
        ic = InitialCondition.tabulated(g.nodes(), values)
        state = sample_initial(ic, g)
        assert np.array_equal(state.values, values)

    def test_sampling_is_idempotent(self):
        g = build_grid(0.0, 1.0, 10)
        ic = InitialCondition.box(10.0, 0.4, 0.6)
        a = sample_initial(ic, g)
        b = sample_initial(ic, g)
        assert np.array_equal(a.values, b.values)


class TestBoundarySpec:
    def test_constant(self):
        spec = BoundarySpec.constant(10.0)
        for dt, f in ((0.1, 0), (0.003, 17), (2.0, 1000)):
            assert boundary_at_half_step(spec, dt, f) == 10.0

    def test_table_interpolates_at_half_step(self):
        spec = BoundarySpec.time_table([(0.0, 0.0), (1.0, 1.0)])
        assert boundary_at_half_step(spec, 0.1, 0) == pytest.approx(0.05)
        assert boundary_at_half_step(spec, 0.1, 4) == pytest.approx(0.45)

    def test_table_clamps_outside_range(self):
        spec = BoundarySpec.time_table([(0.0, 0.0), (1.0, 1.0)])
        assert boundary_at_half_step(spec, 0.1, 20) == 1.0

    def test_table_must_increase(self):
        with pytest.raises(ValueError):
            BoundarySpec.time_table([(0.0, 0.0), (0.0, 1.0)])

    def test_preconditions(self):
        spec = BoundarySpec.constant(0.0)
        with pytest.raises(ValueError):
            boundary_at_half_step(spec, 0.0, 0)
        with pytest.raises(ValueError):
            boundary_at_half_step(spec, 0.1, -1)
        with pytest.raises(ValueError, match="step index must be >= 0"):
            boundary_at_half_step(spec, 0.1, np.array([3, -1, 4]))

    @pytest.mark.parametrize("spec", [
        BoundarySpec.constant(-0.7),
        BoundarySpec.time_table([(0.0, 1.0), (0.3, -0.5), (1.0, 2.0)]),
    ], ids=["constant", "table"])
    def test_equals_the_spec_at_the_half_step_times_bit_for_bit(self, spec):
        # a constant skips the times, so it must still give what at() gives
        dt = 0.0123
        for f in (0, 17, 5000, np.arange(1), np.arange(3, 200), np.arange(4096)):
            expected = spec.at(dt * (f + 0.5))
            got = boundary_at_half_step(spec, dt, f)
            assert type(got) is type(expected) and np.shape(got) == np.shape(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestMass:
    def test_delta_has_unit_mass(self):
        g = build_grid(-10.0, 10.0, 1000)
        assert mass(sample_initial(InitialCondition.delta(), g)) == pytest.approx(1.0, abs=1e-14)

    def test_zero_field(self):
        g = build_grid(0.0, 1.0, 10)
        assert mass(FieldState(grid=g, values=np.zeros(11))) == 0.0

    def test_box_mass_converges(self):
        g = build_grid(0.0, 1.0, 2000)
        got = mass(sample_initial(InitialCondition.box(10.0, 0.4, 0.6), g))
        assert got == pytest.approx(2.0, abs=2 * g.h * 10.0)
