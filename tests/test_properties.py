"""Property tests of the stencil weights, the tail sums, the matrix-free
stencil apply, the fused update coefficients of a step and the Toeplitz
implicit solve over the whole valid (alpha, theta) domain, extreme skew
and orders near 1 included.

A weight or tail that is exactly zero (alpha = 2, or the far side at
extreme skew) comes out of sums of O(1) terms, so the sign and order checks
allow a rounding error of 8 ulps of the largest weight.  The examples are
drawn deterministically so that every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import fft

from rieszfd import (
    BoundarySpec,
    DtPolicy,
    FieldState,
    InitialCondition,
    SchemeConfig,
    SimulationConfig,
    TailSums,
    build_grid,
    implicit_step,
    max_stable_dt,
    run,
    validate_params,
    weight,
    weight_table,
)
from rieszfd.grid import sample_initial
from rieszfd.kernel import ALPHA_ONE_GUARD
from rieszfd.linalg import _STRANG_MARGIN, _strang_eigenvalues, lu_factor, lu_solve
from rieszfd.schemes import assemble_system, step_plan

# orders anywhere in (0, 2], plus a band on both sides of the guard around 1
_ALPHAS = st.one_of(
    st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    st.builds(
        lambda d, sign: 1.0 + sign * d,
        st.floats(ALPHA_ONE_GUARD, 1e-2),
        st.sampled_from((-1.0, 1.0)),
    ),
).filter(lambda a: abs(a - 1.0) >= ALPHA_ONE_GUARD)
# skew as a share of its bound min(alpha, 2 - alpha); +-1 is one-sided
_SHARES = st.one_of(st.sampled_from((-1.0, 0.0, 1.0)), st.floats(-1.0, 1.0))

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# cases found by a wider search: far-field weights are small differences of
# O(q**b) powers, and near alpha = 1 and 0 the cancellation leaves rounding
# errors larger than the weights
NEAR_ONE = ((1.0000011, 0.0), 2000)
NEAR_ZERO = ((1e-12, -1e-12), 122)


def _pair(draw):
    alpha = draw(_ALPHAS)
    return alpha, draw(_SHARES) * min(alpha, 2.0 - alpha)


@st.composite
def cases(draw):
    """A valid (alpha, theta) pair and a window half-width as a grid uses."""
    return _pair(draw), draw(st.integers(2, 2000))


@st.composite
def grids(draw):
    """A valid (alpha, theta) pair, a cell count N and how far the table
    window reaches past the N-1 the grid needs."""
    return _pair(draw), draw(st.integers(2, 300)), draw(st.integers(0, 30))


def _rounding(weights):
    return 8.0 * np.finfo(float).eps * np.max(np.abs(weights))


def _tables(case):
    (alpha, theta), n = case
    params = validate_params(alpha, theta)
    tails = TailSums(params)
    js = np.arange(1, n + 1)
    return params, weight_table(params, -n, n).weights, tails.left(js), tails.right(js)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="far-field weights lose their sign to cancellation (ROADMAP item 3)",
)
@PROPERTY_SETTINGS
@given(cases())
@example(NEAR_ONE)
@example(NEAR_ZERO)
def test_off_centre_weights_are_nonnegative(case):
    _, w, _, _ = _tables(case)
    n = case[1]
    assert np.all(np.delete(w, n) >= -_rounding(w))


@PROPERTY_SETTINGS
@given(cases())
def test_tails_are_nonnegative(case):
    _, w, left, right = _tables(case)
    assert np.all(left >= -_rounding(w)) and np.all(right >= -_rounding(w))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="far-field tails lose their order to cancellation (ROADMAP item 3)",
)
@PROPERTY_SETTINGS
@given(cases())
@example(NEAR_ONE)
@example(NEAR_ZERO)
def test_tails_are_nonincreasing(case):
    _, w, left, right = _tables(case)
    assert np.all(np.diff(left) <= _rounding(w)) and np.all(np.diff(right) <= _rounding(w))


@PROPERTY_SETTINGS
@given(cases(), st.data())
def test_scalar_weight_equals_table_entry(case, data):
    params, w, _, _ = _tables(case)
    n = case[1]
    for k in data.draw(st.lists(st.integers(-n, n), min_size=1, max_size=20)) + [-1, 0, 1]:
        assert weight(k, params) == w[k + n]


@PROPERTY_SETTINGS
@given(cases())
def test_tails_telescope_into_the_weights(case):
    # right(j) - right(j+1) = w_{j+1} and left(j) - left(j+1) = w_{-j-1}.  Near
    # alpha = 1 the side coefficients grow like 1/|1 - alpha| while the weights
    # stay O(1), and the rounding of the closed forms grows with them: the
    # tolerance is 1e-12 * max|w| * max(1, 1/|1 - alpha|).
    params, w, left, right = _tables(case)
    n = case[1]
    tol = 1e-12 * np.max(np.abs(w)) * max(1.0, 1.0 / abs(1.0 - params.alpha))
    assert np.max(np.abs(-np.diff(right) - w[n + 2 :])) <= tol
    assert np.max(np.abs(-np.diff(left) - w[: n - 1][::-1])) <= tol


@PROPERTY_SETTINGS
@given(grids())
@example(((2.0, 0.0), 2, 0))
@example(((2.0, 0.0), 3, 5))
@example(((0.5, 0.5), 3, 0))
@example(((0.5, -0.5), 40, 3))
def test_apply_equals_the_dense_product(case):
    # the explicit step (sigma = 1, r = 1) applies the stencil of a table
    # whose window may reach past the N-1 the grid needs
    (alpha, theta), n, extra = case
    grid = build_grid(0.0, 1.0, n)
    _check_against_the_dense_solve(
        validate_params(alpha, theta), 1.0, grid, grid.h**alpha,
        BoundarySpec.constant(0.7), BoundarySpec.constant(-0.4), 0, extra,
    )


@PROPERTY_SETTINGS
@given(grids())
@example(((2.0, 0.0), 2, 0))
@example(((0.5, 0.5), 3, 0))
@example((NEAR_ZERO[0], NEAR_ZERO[1] + 1, 0))
# a law whose coefficients sum to 4.4e-16, not 0, in floating point: if
# the weights took that sum, their error would grow like q**b
@example(((1.0086072905446921, 0.0), 247, 0))
def test_update_coefficients_sum_to_one(case):
    # at sigma = 1 row i updates by the fused stencil entries
    # delta_k0 + r w_k that land on the nodes, k in [-i, N-i], and by the
    # tail terms r s_L(i), r s_R(N-i) that carry the boundary values; as
    # the weights sum to zero, these sum to one.  Each of the two
    # closed-form tails is allowed the tolerance of
    # test_tails_telescope_into_the_weights, scaled by r as the
    # coefficients are r w_k
    (alpha, theta), n, extra = case
    params = validate_params(alpha, theta)
    grid = build_grid(0.0, 1.0, n)
    dt = 0.9 * max_stable_dt(params, 1.0, grid.h)
    cfg = SchemeConfig(params=params, k_alpha=1.0)
    table = weight_table(params, -(n - 1) - extra, n - 1 + extra)
    tails = TailSums(params)
    plan = step_plan(cfg, dt, table, tails, n, grid.h)
    r = dt / grid.h**alpha
    on_nodes = np.correlate(np.ones(n + 1), plan.stencil, plan.mode)[1:-1]
    js = np.arange(1, n)
    total = on_nodes + r * (tails.left(js) + tails.right(n - js))
    tol = 2e-12 * r * np.max(np.abs(table.weights)) * max(1.0, 1.0 / abs(1.0 - alpha))
    assert np.max(np.abs(total - 1.0)) <= tol


@st.composite
def implicit_steps(draw):
    """A valid (alpha, theta) pair, sigma in [0, 1), a cell count N, the
    ratio r = K dt / h**alpha and two nonzero boundary values."""
    signed = st.builds(lambda v, sign: sign * v, st.floats(0.1, 2.0), st.sampled_from((-1.0, 1.0)))
    sigma = draw(st.floats(0.0, 1.0, exclude_max=True))
    n, log_r = draw(st.integers(2, 300)), draw(st.floats(-3.0, 3.0))
    return _pair(draw), sigma, n, 10.0**log_r, (draw(signed), draw(signed))


@PROPERTY_SETTINGS
@given(implicit_steps())
@example(((2.0, 0.0), 0.0, 2, 1.0, (1.0, -0.5)))
@example(((2.0, 0.0), 0.5, 3, 10.0, (0.3, 1.2)))
@example(((0.5, 0.5), 0.0, 2, 0.5, (-0.7, 0.4)))
@example(((1.5, -0.5), 0.25, 3, 100.0, (0.2, 0.9)))
def test_implicit_step_matches_the_dense_solve(case):
    (alpha, theta), sigma, n, r, (gl, gr) = case
    grid = build_grid(0.0, 1.0, n)
    _check_against_the_dense_solve(validate_params(alpha, theta), sigma, grid,
                                   r * grid.h**alpha, BoundarySpec.constant(gl),
                                   BoundarySpec.constant(gr), 0)


@PROPERTY_SETTINGS
@given(implicit_steps())
@example(((0.9921875, -0.9921875), 0.0, 4, 10.0**2.75, (1.0, 1.0)))
@example((NEAR_ZERO[0], 0.0, 300, 1e3, (1.0, 1.0)))
def test_strang_preconditioner_of_the_implicit_system_is_nonsingular(case):
    # the Strang circulant of T = I + (sigma - 1) r W at the length p >= N - 1
    # the preconditioner uses has the eigenvalues 1 + (sigma - 1) r
    # sum_k w_k e^(i k phi), k over p consecutive offsets around 0.  The
    # off-centre weights are nonnegative and the truncated sum is at most
    # zero, so every real part is at least 1, up to the rounding of r w
    (alpha, theta), sigma, n, r, _ = case
    w = weight_table(validate_params(alpha, theta), -(n - 1), n - 1).weights
    ks = np.arange(n - 1)
    first_col = (sigma - 1.0) * r * w[n - 1 - ks]
    first_row = (sigma - 1.0) * r * w[n - 1 + ks]
    first_col[0] += 1.0
    first_row[0] += 1.0
    size = fft.next_fast_len(n - 1 + (n - 1) // _STRANG_MARGIN, real=True)
    eigenvalues = _strang_eigenvalues(first_col, first_row, size)
    assert np.min(eigenvalues.real) >= 1.0 - 1e-12 * r * np.max(np.abs(w))


@st.composite
def time_table_steps(draw):
    """A valid (alpha, theta) pair, sigma in {0, 1/2, 1}, a cell count N,
    the ratio r = K dt / h**alpha, a step index and the two boundary
    values at t = 0 and t = 4 dt on each side."""
    sigma = draw(st.sampled_from((0.0, 0.5, 1.0)))
    n, log_r, f = draw(st.integers(2, 300)), draw(st.floats(-3.0, 3.0)), draw(st.integers(0, 5))
    ends = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(4))
    return _pair(draw), sigma, n, 10.0**log_r, f, ends


@PROPERTY_SETTINGS
@given(time_table_steps())
@example(((2.0, 0.0), 1.0, 2, 1.0, 0, (1.0, -0.5, 0.0, 2.0)))
@example(((0.5, -0.5), 0.5, 40, 10.0, 3, (0.3, 1.2, -1.0, 0.0)))
# lower triangular T with cond 4 and ||T|| about 1130: GMRES stops at a
# residual that scales with ||T||, as the rounding floor does
@example(((0.9921875, -0.9921875), 0.0, 4, 10.0**2.75, 0, (0.0, 0.0, 0.0, 0.0)))
def test_time_table_boundaries_match_the_dense_solve(case):
    (alpha, theta), sigma, n, r, f, (l0, l1, r0, r1) = case
    grid = build_grid(0.0, 1.0, n)
    dt = r * grid.h**alpha
    _check_against_the_dense_solve(
        validate_params(alpha, theta), sigma, grid, dt,
        BoundarySpec.time_table([(0.0, l0), (4.0 * dt, l1)]),
        BoundarySpec.time_table([(0.0, r0), (4.0 * dt, r1)]), f,
    )


def _check_against_the_dense_solve(params, sigma, grid, dt, bc_left, bc_right, f, extra=0):
    # the step solves the interior Toeplitz system; the dense LU of the
    # whole (N+1) x (N+1) system is the reference.  Within 1e-12 relative
    # where r <= 1, within 1e-12 cond(T) beyond.  The weight table reaches
    # ``extra`` offsets past the N-1 the grid needs
    n = grid.n_cells
    cfg = SchemeConfig(params=params, k_alpha=1.0, sigma=sigma,
                       bc_left=bc_left, bc_right=bc_right)
    table = weight_table(params, -(n - 1) - extra, n - 1 + extra)
    tails = TailSums(params)
    values = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
    state = FieldState(grid=grid, values=values, time=dt * f, step_index=f)
    matrix, rhs = assemble_system(state, cfg, dt, table, tails)
    expected = lu_solve(lu_factor(matrix), rhs)
    got = implicit_step(state, step_plan(cfg, dt, table, tails, n, grid.h)).values
    r = dt / grid.h**params.alpha
    gate = 1e-12 * (1.0 if r <= 1.0 else np.linalg.cond(matrix[1:-1, 1:-1]))
    assert got[0] == rhs[0] and got[-1] == rhs[-1]
    assert np.max(np.abs(got[1:-1] - expected[1:-1])) <= gate * np.max(np.abs(expected))


@st.composite
def runs(draw):
    """A valid (alpha, theta) pair, sigma in {0, 1/2, 1}, a cell count N
    and a number of steps."""
    sigma = draw(st.sampled_from((0.0, 0.5, 1.0)))
    return _pair(draw), sigma, draw(st.integers(2, 60)), draw(st.integers(1, 8))


@PROPERTY_SETTINGS
@given(runs())
def test_run_equals_stepping_by_hand(case):
    # run advances one plan from one recorded step to the next on bare
    # arrays, by hand implicit_step takes a fresh plan for each step: every
    # recorded state agrees bit for bit
    (alpha, theta), sigma, n, steps = case
    params = validate_params(alpha, theta)
    grid = build_grid(0.0, 1.0, n)
    dt = 0.5 * max_stable_dt(params, 1.0, grid.h)
    scheme = SchemeConfig(
        params=params, k_alpha=1.0, sigma=sigma,
        bc_left=BoundarySpec.time_table([(0.0, 1.0), (steps * dt, -0.5)]),
        bc_right=BoundarySpec.time_table([(0.0, 0.0), (steps * dt, 2.0)]),
    )
    initial = InitialCondition.box(1.0, 0.25, 0.5)
    series = run(SimulationConfig(grid=grid, scheme=scheme, initial=initial, t_end=steps * dt,
                                  snapshot_times=(dt,), dt_policy=DtPolicy.fixed(dt)))
    assert series.n_steps == steps
    table = weight_table(params, -(n - 1), n - 1)
    tails = TailSums(params)
    by_hand = [sample_initial(initial, grid)]
    for _ in range(steps):
        by_hand.append(implicit_step(by_hand[-1], step_plan(scheme, dt, table, tails, n, grid.h)))
    for snap in series.snapshots:
        ref = by_hand[snap.step_index]
        assert snap.time == ref.time and np.array_equal(snap.values, ref.values)
    # steps=k in one advance call against k single calls
    plan = step_plan(scheme, dt, table, tails, n, grid.h)
    assert np.array_equal(plan.advance(by_hand[0].values, 0, steps), by_hand[-1].values)
