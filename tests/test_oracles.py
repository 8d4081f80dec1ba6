import math

import numpy as np
import pytest

import rieszfd.simulate
from rieszfd import (
    AnalyticKernel,
    ConfigInvalid,
    DtPolicy,
    InitialCondition,
    SchemeConfig,
    SimulationConfig,
    TailSums,
    ValidationError,
    build_grid,
    convergence_study,
    validate_params,
)
from rieszfd.oracles import reference_kernel_for, tail_oracle, weight_oracle
from conftest import sample_params


class TestKernels:
    def test_cauchy_values(self):
        kernel = AnalyticKernel("cauchy_alpha1", 1.0)
        assert kernel(0.0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
        assert kernel(1.0, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)

    def test_gauss_peak(self):
        kernel = AnalyticKernel("gauss_alpha2", 1.0)
        assert kernel(0.0, 1.0) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), abs=1e-15)

    def test_time_must_be_positive(self):
        with pytest.raises(ValidationError, match=r"kernel defined for t > 0, got t=0.0"):
            AnalyticKernel("gauss_alpha2")(0.0, 0.0)
        with pytest.raises(ValidationError, match=r"kernel defined for t > 0, got t=-1.0"):
            AnalyticKernel("cauchy_alpha1")(0.0, -1.0)

    def test_normalization(self):
        xs = np.arange(-40.0, 40.0 + 0.005, 0.01)
        gauss = AnalyticKernel("gauss_alpha2", 1.0)(xs, 1.0)
        assert float(np.trapezoid(gauss, xs)) == pytest.approx(1.0, abs=1e-4)
        cauchy = AnalyticKernel("cauchy_alpha1", 1.0)(xs, 1.0)
        assert float(np.trapezoid(cauchy, xs)) == pytest.approx(1.0, abs=2e-2)

    def test_scaling_in_k_and_t(self):
        kernel = AnalyticKernel("gauss_alpha2", 2.5)
        xs = np.arange(-60.0, 60.0, 0.01)
        vals = kernel(xs, 0.7)
        assert float(np.trapezoid(vals, xs)) == pytest.approx(1.0, abs=1e-4)


class TestWeightOracle:
    def test_reference_values(self):
        assert weight_oracle(0, validate_params(2.0, 0.0)) == pytest.approx(-2.0, abs=1e-14)
        assert weight_oracle(1, validate_params(0.5, 0.0)) == pytest.approx(0.170296, abs=1e-6)

    def test_matches_closed_form_broadly(self):
        from rieszfd import weight

        for p in sample_params(25, seed=41):
            for k in range(-15, 16):
                assert weight_oracle(k, p) == pytest.approx(weight(k, p), abs=1e-12)


class TestTailOracle:
    def test_reference_case_large_cutoff(self):
        p = validate_params(0.5, 0.0)
        got = tail_oracle(3, p, cutoff=10**7, side="right")
        assert abs(got - TailSums(p).right(3)) <= 1e-8

    def test_alpha_two_exact_zero(self):
        p = validate_params(2.0, 0.0)
        for j in (1, 3):
            assert tail_oracle(j, p, cutoff=j + 2) == 0.0

    def test_left_right_symmetry_at_zero_skew(self):
        p = validate_params(0.3, 0.0)
        left = tail_oracle(2, p, cutoff=10**5, side="left")
        right = tail_oracle(2, p, cutoff=10**5, side="right")
        assert left == right

    def test_skewed_sides_match_their_closed_forms(self):
        for p in sample_params(8, seed=42):
            ts = TailSums(p)
            for j in (1, 5):
                assert abs(tail_oracle(j, p, 10**5, "left") - ts.left(j)) <= 1e-8
                assert abs(tail_oracle(j, p, 10**5, "right") - ts.right(j)) <= 1e-8

    def test_preconditions(self):
        p = validate_params(0.5, 0.0)
        with pytest.raises(ValueError):
            tail_oracle(0, p)
        with pytest.raises(ValueError):
            tail_oracle(5, p, cutoff=6)


class TestConvergence:
    def test_kernel_selector(self):
        assert reference_kernel_for(validate_params(2.0, 0.0), 1.0).kind == "gauss_alpha2"
        assert reference_kernel_for(validate_params(0.999, 0.0), 1.0).kind == "cauchy_alpha1"
        with pytest.raises(ConfigInvalid):
            reference_kernel_for(validate_params(1.5, 0.0), 1.0)

    def test_zero_refinements_single_row(self):
        base = SimulationConfig(
            grid=build_grid(-10.0, 10.0, 100),
            scheme=SchemeConfig(params=validate_params(2.0, 0.0), k_alpha=1.0),
            initial=InitialCondition.delta(),
            t_end=0.25,
            dt_policy=DtPolicy.auto(0.9),
        )
        rows = convergence_study(base, 0)
        assert len(rows) == 1
        h, dt, err = rows[0]
        assert h == base.grid.h and err > 0.0

    def test_over_budget_level_is_refused_before_any_run(self, monkeypatch):
        # the README config: level 8 takes 3.6e8 steps, level 7 alone 9.1e7
        def no_plan(*args):
            raise AssertionError("a level ran before the study was refused")

        monkeypatch.setattr(rieszfd.simulate, "step_plan", no_plan)
        base = SimulationConfig(
            grid=build_grid(-10.0, 10.0, 1000),
            scheme=SchemeConfig(params=validate_params(2.0, 0.0), k_alpha=1.0),
            initial=InitialCondition.delta(),
            t_end=1.0,
            snapshot_times=(1.0,),
            dt_policy=DtPolicy.auto(0.9),
        )
        with pytest.raises(ConfigInvalid, match="budget"):
            convergence_study(base, 8)

    def test_gaussian_study_errors_decrease(self):
        base = SimulationConfig(
            grid=build_grid(-10.0, 10.0, 250),
            scheme=SchemeConfig(params=validate_params(2.0, 0.0), k_alpha=1.0),
            initial=InitialCondition.delta(),
            t_end=0.25,
            dt_policy=DtPolicy.auto(0.9),
        )
        rows = convergence_study(base, 3)
        errors = [err for _, _, err in rows]
        assert len(rows) == 4
        assert all(b < a for a, b in zip(errors, errors[1:]))
        # each refinement halves h
        hs = [h for h, _, _ in rows]
        assert all(b == pytest.approx(a / 2.0, rel=1e-12) for a, b in zip(hs, hs[1:]))

    def test_cauchy_study_errors_decrease(self):
        base = SimulationConfig(
            grid=build_grid(-10.0, 10.0, 250),
            scheme=SchemeConfig(params=validate_params(0.999, 0.0), k_alpha=1.0),
            initial=InitialCondition.delta(),
            t_end=1.0,
            dt_policy=DtPolicy.auto(0.9),
        )
        rows = convergence_study(base, 3, x_window=(-7.0, 7.0))
        errors = [err for _, _, err in rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))
