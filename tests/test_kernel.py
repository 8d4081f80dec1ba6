import math

import numpy as np
import pytest

from rieszfd import (
    AlphaNearOne,
    OutOfRangeAlpha,
    SkewnessTooLarge,
    WindowTooSmall,
    FieldState,
    SchemeConfig,
    TailSums,
    WeightTable,
    build_grid,
    validate_params,
    weight,
    weight_table,
)
from rieszfd.kernel import rf_coefficients
from rieszfd.oracles import weight_oracle
from rieszfd.schemes import assemble_system, rf_apply_bounded, step_plan
from conftest import sample_params

# frozen 6-decimal reference weights for theta = 0
TABLE = {
    0.1: {0: -0.993029, 1: 0.041819, 2: 0.022853, 3: 0.014264, 4: 0.010322, 5: 0.008054, 10: 0.003751},
    0.5: {0: -0.963132, 1: 0.170296, 2: 0.067624, 3: 0.036213, 4: 0.023595, 5: 0.016974, 10: 0.006116},
    1.5: {0: -1.498970, 1: 0.574964, 2: 0.125442, 3: 0.020048, 4: 0.009118, 5: 0.005125, 10: 0.000906},
    2.0: {0: -2.0, 1: 1.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0, 10: 0.0},
}


class TestValidateParams:
    def test_valid_pairs(self):
        for a, t in ((1.5, -0.4), (0.9, -0.7), (2.0, 0.0), (0.5, 0.5), (1.6, -0.4)):
            p = validate_params(a, t)
            assert p.alpha == a and p.theta == t

    def test_alpha_out_of_range(self):
        with pytest.raises(OutOfRangeAlpha):
            validate_params(0.0, 0.0)
        with pytest.raises(OutOfRangeAlpha):
            validate_params(2.5, 0.0)
        with pytest.raises(OutOfRangeAlpha):
            validate_params(-1.0, 0.0)

    def test_alpha_near_one_guard(self):
        with pytest.raises(AlphaNearOne):
            validate_params(1.0, 0.0)
        with pytest.raises(AlphaNearOne):
            validate_params(1.0000001, 0.0)  # 1e-7 inside the default 1e-6 band
        validate_params(1.0000011, 0.0)

    def test_skewness_bound(self):
        with pytest.raises(SkewnessTooLarge):
            validate_params(2.0, 0.1)
        with pytest.raises(SkewnessTooLarge):
            validate_params(1.5, 0.9)
        with pytest.raises(SkewnessTooLarge):
            validate_params(0.3, -0.5)


class TestCoefficients:
    def test_symmetric_half_order(self):
        c = rf_coefficients(validate_params(0.5, 0.0))
        assert c.c_left == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)
        assert c.c_right == c.c_left
        assert c.lam == 0.5

    def test_alpha_two_limit(self):
        c = rf_coefficients(validate_params(2.0, 0.0))
        assert (c.c_left, c.c_right) == (-0.5, -0.5)
        assert c.lam == 0.0
        # the special case agrees with the formula approaching the 0/0 point
        near = rf_coefficients(validate_params(2.0 - 1e-8, 0.0))
        assert near.c_left == pytest.approx(-0.5, abs=1e-7)
        assert near.c_right == pytest.approx(-0.5, abs=1e-7)

    def test_extreme_skew_is_one_sided(self):
        c = rf_coefficients(validate_params(0.999, 0.999))
        assert c.c_left == 0.0
        assert c.c_right == pytest.approx(1.0, abs=1e-15)
        assert c.lam == 0.0

    def test_theta_zero_left_right_equal(self):
        for p in sample_params(50, seed=11):
            c = rf_coefficients(validate_params(p.alpha, 0.0))
            assert c.c_left == c.c_right

    def test_blend_weight_in_unit_interval(self):
        for p in sample_params(100, seed=12):
            c = rf_coefficients(p)
            assert 0.0 <= c.lam <= 1.0


class TestWeights:
    @pytest.mark.parametrize("alpha", sorted(TABLE))
    def test_reference_table(self, alpha):
        p = validate_params(alpha, 0.0)
        for k, ref in TABLE[alpha].items():
            assert weight(k, p) == pytest.approx(ref, abs=1e-6)

    def test_negative_index_by_symmetry(self):
        p = validate_params(0.5, 0.0)
        assert weight(-3, p) == pytest.approx(0.036213, abs=1e-6)

    def test_alpha_two_is_central_stencil_exactly(self):
        table = weight_table(validate_params(2.0, 0.0), -2, 2)
        assert table.weights.tolist() == [0.0, 1.0, -2.0, 1.0, 0.0]
        p = validate_params(2.0, 0.0)
        for k in range(2, 40):
            assert weight(k, p) == 0.0
            assert weight(-k, p) == 0.0

    def test_small_window_table(self):
        table = weight_table(validate_params(0.1, 0.0), 0, 1)
        assert table.weights[0] == pytest.approx(-0.993029, abs=1e-6)
        assert table.weights[1] == pytest.approx(0.041819, abs=1e-6)

    def test_table_matches_pointwise_calls(self):
        for p in sample_params(10, seed=13):
            table = weight_table(p, -7, 9)
            for k in range(-7, 10):
                assert table.weight(k) == weight(k, p)
        # bit for bit, signed zeros included: the table of powers a weight
        # is read from is as long as max|k|, so one offset alone and a whole
        # window use tables of different lengths.  alpha = 2, near 1 and
        # extreme skew on both branches; windows of different max|k|, among
        # them verify's and the whole of an N = 1000 grid
        for alpha, theta in ((2.0, 0.0), (1.001, 0.0), (0.999, 0.999), (1.6, -0.4), (0.7, -0.7)):
            p = validate_params(alpha, theta)
            for k_min, k_max in ((-50, 50), (0, 10), (-999, 999)):
                table = weight_table(p, k_min, k_max)
                pointwise = np.array([weight(k, p) for k in range(k_min, k_max + 1)])
                assert np.array_equal(pointwise.view(np.int64), table.weights.view(np.int64))

    def test_table_window_must_contain_zero(self):
        with pytest.raises(ValueError):
            weight_table(validate_params(0.5, 0.0), 1, 5)

    def test_table_lookup_outside_window(self):
        table = weight_table(validate_params(0.5, 0.0), -2, 2)
        with pytest.raises(WindowTooSmall):
            table.weight(3)

    def test_skewed_weight_against_reconstruction(self):
        p = validate_params(0.7, 0.3)
        assert weight(1, p) == pytest.approx(weight_oracle(1, p), abs=1e-13)

    def test_sign_structure(self):
        for p in sample_params(200, seed=14):
            table = weight_table(p, -100, 100)
            assert table.weight(0) < 0.0
            for k in range(1, 101):
                assert table.weight(k) >= -1e-14
                assert table.weight(-k) >= -1e-14

    def test_symmetry_at_zero_skew(self):
        for p in sample_params(20, seed=15):
            q = validate_params(p.alpha, 0.0)
            worst = max(abs(weight(k, q) - weight(-k, q)) for k in range(1, 101))
            assert worst <= 1e-14

    def test_branch_continuity_near_excluded_order(self):
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            p = validate_params(a, 0.0)
            w0 = weight(0, p)
            assert math.isfinite(w0) and abs(w0) <= 2.0
            for k in range(-10, 11):
                assert math.isfinite(weight(k, p))

    def test_upwind_limit(self):
        p = validate_params(0.999, 0.999)
        assert abs(weight(0, p) + 1.0) <= 1e-2
        assert abs(weight(1, p) - 1.0) <= 1e-2
        spill = sum(abs(weight(k, p)) for k in range(-100, 101) if k not in (0, 1))
        assert spill <= 1e-2


class TestApply:
    # the explicit step (sigma = 1, r = 1) correlates with the table's
    # stencil; the dense reference multiplies by application_matrix, which
    # shares no code with it
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    @pytest.mark.parametrize("side", ["both", "left", "right"])
    def test_every_reach_matches_the_dense_product(self, n, side):
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n + 1)
        m = n + 2  # the window reaches past the N-1 the grid needs
        ks = np.arange(-m, m + 1)
        params = validate_params(1.5, 0.0)
        grid = build_grid(0.0, 1.0, n)
        cfg, dt = SchemeConfig(params=params, k_alpha=1.0), grid.h**1.5
        tails = TailSums(params)
        for reach in range(1, m + 1):
            w = np.where(np.abs(ks) <= reach, rng.uniform(0.5, 1.5, ks.size), 0.0)
            if side == "left":
                w[ks > 0] = 0.0
            elif side == "right":
                w[ks < 0] = 0.0
            table = WeightTable(params, -m, m, w)
            got = step_plan(cfg, dt, table, tails, n, grid.h).advance(u, 0)
            expected = np.linalg.solve(*assemble_system(FieldState(grid, u), cfg, dt, table, tails))
            dense = table.application_matrix(n)
            tol = 1e-13 * np.max(np.abs(dense)) * np.max(np.abs(u)) * n
            assert np.max(np.abs(got - expected)) <= tol
            # the stencil is trimmed to the nonzero reach once per table
            assert table._stencil.size == 2 * reach + 1

    def test_alpha_two_reaches_one_node(self):
        params = validate_params(2.0, 0.0)
        table = weight_table(params, -99, 99)
        tails = TailSums(params)
        assert table._stencil.tolist() == [1.0, -2.0, 1.0]
        grid = build_grid(0.0, 100.0, 100)  # h = 1, so r = dt = 1
        cfg = SchemeConfig(params=params, k_alpha=1.0)
        u = np.arange(101.0) ** 2
        got = step_plan(cfg, 1.0, table, tails, 100, grid.h).advance(u, 0)
        assert (got - u)[1:-1].tolist() == [2.0] * 99
        assert rf_apply_bounded(FieldState(grid, u), 0.0, 0.0, table, tails).tolist() == [2.0] * 99

    def test_window_too_small(self):
        p = validate_params(0.5, 0.0)
        cfg = SchemeConfig(params=p, k_alpha=1.0)
        for k_min, k_max in ((-3, 3), (-4, 3), (-3, 4)):
            table = weight_table(p, k_min, k_max)
            with pytest.raises(WindowTooSmall):
                step_plan(cfg, 1e-3, table, TailSums(p), 5, 0.2)  # n = 5 needs [-4, 4]
            with pytest.raises(WindowTooSmall):
                table.application_matrix(5)


class TestTailSums:
    def test_alpha_two_tails_vanish(self):
        ts = TailSums(validate_params(2.0, 0.0))
        for j in (1, 2, 5, 50):
            assert ts.left(j) == 0.0
            assert ts.right(j) == 0.0

    def test_zero_skew_symmetry(self):
        for p in sample_params(20, seed=16):
            ts = TailSums(validate_params(p.alpha, 0.0))
            for j in (1, 4, 9):
                assert ts.left(j) == ts.right(j)

    def test_nonnegative_nonincreasing_vanishing(self):
        for p in sample_params(40, seed=17):
            ts = TailSums(p)
            js = np.arange(1, 200)
            left, right = ts.left(js), ts.right(js)
            assert np.all(left >= 0.0) and np.all(right >= 0.0)
            assert np.all(np.diff(left) <= 1e-15) and np.all(np.diff(right) <= 1e-15)
            # decays like j**-alpha, so compare across a wide index span
            assert ts.left(10**12) <= 0.7 * ts.left(100) + 1e-15
            assert ts.right(10**12) <= 0.7 * ts.right(100) + 1e-15

    def test_window_sum_identity_every_m(self):
        # total weight sum including both tails is zero for every window size
        for p in sample_params(25, seed=18):
            ts = TailSums(p)
            for m in (1, 2, 3, 10, 50):
                total = weight(0, p)
                total += sum(weight(k, p) + weight(-k, p) for k in range(1, m + 1))
                total += ts.left(m) + ts.right(m)
                assert abs(total) <= 1e-10

    @pytest.mark.parametrize("alpha, theta", [(2.0, 0.0), (1.5, 0.3), (0.5, -0.2)])
    def test_interior_arrays_equal_the_one_sided_sums_bit_for_bit(self, alpha, theta):
        ts = TailSums(validate_params(alpha, theta))
        js = np.arange(1, 300)
        left, right = ts.interior_arrays(300)
        assert np.array_equal(left, ts.left(js)) and np.array_equal(right, ts.right(js))

    def test_j_zero_is_an_error(self):
        ts = TailSums(validate_params(0.5, 0.0))
        with pytest.raises(ValueError):
            ts.left(0)
        with pytest.raises(ValueError):
            ts.right(0)


class TestOracleAgreement:
    def test_closed_form_matches_reconstruction(self):
        for p in sample_params(30, seed=19):
            for k in range(-12, 13):
                assert weight(k, p) == pytest.approx(weight_oracle(k, p), abs=1e-12)
