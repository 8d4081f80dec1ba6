"""Sigma-weighted finite-difference time stepping on a bounded domain.

One step advances the interior nodes by the discretized fractional
operator while both Dirichlet values enter every interior node through
closed-form tail sums (values beyond the domain are held at the nearest
boundary value).  ``sigma`` blends the time levels: 1 is fully explicit,
0 fully implicit, anything between is a partially implicit scheme.
Boundary data is evaluated at half steps t = dt*(f + 1/2).

Every coefficient of a step is fixed for a run, so ``step_plan`` builds
them once from the grid, in O(N) memory, and below sigma = 1 factors the
interior Toeplitz system; a step is then one correlation that writes the
new state node by node, an axpy per nonzero boundary value and an
O(N log N) solve.  An explicit plan with the symmetric three-point
stencil (alpha = 2 at N >= 130) takes ``_BLOCK_STEPS`` steps per
correlation instead, over the state extended oddly about both ends.
``rf_apply_bounded`` and ``assemble_system`` are the dense reference the
tests and ``verify`` compare with: given only the state and the scheme's
parameters, they tabulate the same weights and tails for the state's
grid, build the operator from ``WeightTable.application_matrix`` and
share no stencil code with the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch
from .grid import BoundarySpec, FieldState, Grid1D, boundary_at_half_step
from .kernel import FractionalParams, TailSums, weight, weight_table
from .linalg import ToeplitzFactorization, TridiagonalFactorization, toeplitz_factor

_SEGMENT_STEPS = 4096  # half steps whose boundary values advance evaluates at once
_BLOCK_STEPS = 32  # explicit steps of a short stencil that advance takes in one correlation


@dataclass(frozen=True)
class SchemeConfig:
    """Diffusion coefficient, sigma weight and boundary data of a scheme.

    The time step is not part of it: ``run`` resolves dt from the
    simulation's ``DtPolicy``, and ``step_plan`` takes dt as an argument.
    """

    params: FractionalParams
    k_alpha: float
    sigma: float = 1.0
    bc_left: BoundarySpec = BoundarySpec.constant(0.0)
    bc_right: BoundarySpec = BoundarySpec.constant(0.0)

    def __post_init__(self):
        if not (self.k_alpha > 0.0 and math.isfinite(self.k_alpha)):
            raise ValueError(
                f"diffusion coefficient must be positive and finite, got {self.k_alpha}"
            )
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")


def max_stable_dt(params: FractionalParams, k_alpha: float, h: float) -> float:
    """Largest explicit time step keeping the k = 0 update coefficient positive.

    Equals -h**alpha / (k_alpha * w_0); w_0 < 0 for all valid parameters,
    so the bound is strictly positive.  Raises ConfigInvalid unless k_alpha
    and h are positive and finite.
    """
    if not (k_alpha > 0.0 and math.isfinite(k_alpha) and h > 0.0 and math.isfinite(h)):
        raise ConfigInvalid(f"k_alpha and h must be positive and finite, got {k_alpha} and {h}")
    return -(h**params.alpha) / (k_alpha * weight(0, params))


def _dense_operator(params: FractionalParams, n: int) -> np.ndarray:
    """``WeightTable.application_matrix`` of w_k over exactly [-(N-1), N-1]."""
    return weight_table(params, -(n - 1), n - 1).application_matrix(n)


def rf_apply_bounded(
    state: FieldState, g_left: float, g_right: float, params: FractionalParams, sigma: float = 1.0
) -> np.ndarray:
    """Sigma-weighted discrete fractional operator at the N-1 interior nodes.

    out[i-1] = h**-alpha * ( sigma * sum_{k=-i}^{N-i} C_{i+k} w_k
                             + g_left * s_L(i) + g_right * s_R(N-i) )

    The window sum covers every node of the bounded grid; the tail sums
    carry the boundary values held on the virtual nodes outside it.  Both
    are tabulated for the state's grid, the sum as a dense product.  The
    step does not call it: it is the reference that ``StepPlan`` is
    tested against, and shares none of its stencil code.
    """
    n = state.grid.n_cells
    s_left, s_right = TailSums(params).interior_arrays(n)
    window = sigma * (_dense_operator(params, n) @ state.values)
    boundary = g_left * s_left + g_right * s_right[::-1]  # s_R(N-i) for i = 1..N-1
    return (window + boundary) / state.grid.h ** params.alpha


def _implicit_ratio(cfg: SchemeConfig, dt: float, h: float) -> float:
    """(sigma - 1) K dt / h**alpha, the factor of w_{j-i} in the system.

    The one check of dt for the step and its dense reference: raises
    ValueError unless dt is positive and finite.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return (cfg.sigma - 1.0) * cfg.k_alpha * dt / h**cfg.params.alpha


def _node_stencil(weights: np.ndarray) -> tuple[np.ndarray, str]:
    """w_-r, ..., w_r from an N-cell grid's weights w_-(N-1), ..., w_(N-1),
    r = min(K, N-1) for K the largest |k| of a nonzero weight and at least
    1, and the ``np.correlate`` mode that gives one output per node: "same"
    while 2r+1 <= N+1, else "valid" on the stencil zero-extended to 2N+1."""
    n = len(weights) // 2 + 1
    offsets = np.abs(np.arange(1 - n, n))[weights != 0.0]
    reach = max(1, int(offsets.max(initial=0)))
    r = min(reach, n - 1)
    stencil = weights[n - 1 - r : n + r]
    return (stencil, "same") if 2 * r + 1 <= n + 1 else (np.pad(stencil, n - r), "valid")


@dataclass(frozen=True)
class StepPlan:
    """Every coefficient of a sigma-weighted step on one grid.

    With r = K dt / h**alpha the step solves T C^{f+1} = P C^f + g_L left
    + g_R right on the interior nodes, T = I + (sigma - 1) r W and
    P = I + sigma r W.  ``stencil`` is P's row trimmed to its reach, with
    the ``np.correlate`` ``mode`` that gives one output per node (None and
    "" at sigma = 0, P = I); ``left``/``right`` are r s_L(i)/r s_R(N-i)
    minus T's Dirichlet columns (sigma - 1) r w_{-i}/w_{N-i};
    ``factorization`` is T's (None at sigma = 1, T = I).  ``advance``
    takes any number of steps in one call, the same arithmetic in the same
    order as that many one-step calls, except where it blocks: an explicit
    plan with a symmetric three-tap stencil, no boundary column and
    4 ``_BLOCK_STEPS`` + 2 <= N takes full blocks of ``_BLOCK_STEPS`` steps
    by the method of images, as one correlation of the composed stencil
    over the state extended oddly about both ends plus one small matrix
    that carries the end values in.  Blocked steps agree with one-step
    calls to rounding, and the same call repeated gives the same bits.
    """

    grid: Grid1D
    dt: float
    bc_left: BoundarySpec
    bc_right: BoundarySpec
    stencil: np.ndarray | None
    mode: str
    left: np.ndarray
    right: np.ndarray
    factorization: ToeplitzFactorization | TridiagonalFactorization | None

    def advance(self, values: np.ndarray, f: int, steps: int = 1) -> np.ndarray:
        """C^{f+steps} from the N+1 nodal values C^f, as a new float array.

        ``values`` is read once as a 1-D float array, so an int state steps
        like its float copy.  f < 0 or steps < 1 raises ValueError, and any
        shape but (N+1,) DimensionMismatch, before any work.  The boundary
        values are evaluated once per ``_SEGMENT_STEPS`` half steps, so any
        step count takes O(N + _SEGMENT_STEPS) memory.  A plan that blocks
        takes each segment's full blocks first and its last fewer than
        ``_BLOCK_STEPS`` steps one at a time; its block data is built on the
        first call with a full block, so a one-step call never builds it."""
        if f < 0 or steps < 1:
            raise ValueError(f"advance needs f >= 0 and steps >= 1, got f={f}, steps={steps}")
        values, n = np.asarray(values, dtype=float), self.grid.n_cells
        if values.shape != (n + 1,):
            raise DimensionMismatch(f"a {n}-cell plan steps {n + 1} values, got {values.shape}")
        for start in range(f, f + steps, _SEGMENT_STEPS):
            half_steps = np.arange(start, min(start + _SEGMENT_STEPS, f + steps))
            g_lefts = boundary_at_half_step(self.bc_left, self.dt, half_steps)
            g_rights = boundary_at_half_step(self.bc_right, self.dt, half_steps)
            blocked = 0
            if len(half_steps) >= _BLOCK_STEPS and self._blocks is not None:
                blocked = len(half_steps) // _BLOCK_STEPS * _BLOCK_STEPS
                values = self._march_blocks(values, g_lefts[:blocked], g_rights[:blocked])
            for g_left, g_right in zip(g_lefts[blocked:].tolist(), g_rights[blocked:].tolist()):
                if self.stencil is None:
                    new = values.copy()
                else:
                    new = np.correlate(values, self.stencil, self.mode)
                if g_left != 0.0:
                    new[1:-1] += g_left * self.left
                if g_right != 0.0:
                    new[1:-1] += g_right * self.right
                if self.factorization is not None:
                    new[1:-1] = self.factorization.solve(new[1:-1])
                new[0], new[-1] = g_left, g_right
                values = new
        return values

    def _march_blocks(
        self, values: np.ndarray, g_lefts: np.ndarray, g_rights: np.ndarray
    ) -> np.ndarray:
        """Whole blocks of ``_BLOCK_STEPS`` = k steps at the boundary values
        ``g_lefts``/``g_rights``, one per step, by the method of images.

        Holding an end node at zero steps a symmetric stencil like the free
        step of the state extended oddly about that node.  So a block is one
        correlation of the composed stencil over (-C_k, ..., -C_1, 0, C_1,
        ..., C_(N-1), 0, -C_(N-1), ..., -C_(N-k)), plus the end values its
        steps read, (C_0, g_0, ..., g_(k-2)), carried onto nodes 1..k by
        ``inflow`` (and mirrored onto nodes N-1..N-k)."""
        k = _BLOCK_STEPS
        composed, inflow = self._blocks
        # row b: what the end values that block b reads add to its k end nodes
        lefts = np.concatenate(([values[0]], g_lefts[:-1])).reshape(-1, k) @ inflow.T
        rights = np.concatenate(([values[-1]], g_rights[:-1])).reshape(-1, k) @ inflow.T
        for b, last in enumerate(range(k - 1, len(g_lefts), k)):
            extended = np.concatenate(
                (-values[k:0:-1], [0.0], values[1:-1], [0.0], -values[-2 : -k - 2 : -1])
            )
            values = np.correlate(extended, composed, "valid")
            values[1 : k + 1] += lefts[b]
            values[-2 : -k - 2 : -1] += rights[b]
            values[0], values[-1] = g_lefts[last], g_rights[last]
        return values

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(composed, inflow) of ``_BLOCK_STEPS`` = k explicit steps at
        once, built on the first ``advance`` call that takes that many: the
        k-fold composed stencil P_k and the k x k matrix with
        inflow[m-1, i] = s_-1 (P_(k-1-i)[m-1] - P_(k-1-i)[m+1]), P_j the
        j-fold composed stencil s on the offsets -j..j.  None unless the
        plan is explicit with a symmetric three-tap stencil s, no boundary
        column and 4 k + 2 <= N, which keeps the k images and k inflow
        nodes of one end far from the other end."""
        k, s = _BLOCK_STEPS, self.stencil
        if (self.factorization is not None or len(s) != 3 or s[0] != s[2]
                or self.left.any() or self.right.any() or 4 * k + 2 > self.grid.n_cells):
            return None
        composed, powers = np.ones(1), np.zeros((k, k + 2))
        for j in reversed(range(k)):  # row j: P_(k-1-j) on the offsets 0..k+1
            powers[j, : k - j] = composed[k - 1 - j :]
            composed = np.convolve(composed, s)
        return composed, s[0] * (powers[:, :k] - powers[:, 2:]).T


def step_plan(cfg: SchemeConfig, dt: float, grid: Grid1D) -> StepPlan:
    """Build the coefficients of a step of size dt on ``grid`` once per run.

    Tabulates w_k over exactly the offsets the grid reads, [-(N-1), N-1],
    and the interior tail sums, in O(N) memory; ``_node_stencil`` trims
    the fused stencil.  T is factored only below sigma = 1.  dt must be
    positive and finite (ValueError otherwise); it is not compared with
    the explicit bound, so a plan may step past it.
    """
    n, h = grid.n_cells, grid.h
    ratio = _implicit_ratio(cfg, dt, h)
    r = cfg.k_alpha * dt / h**cfg.params.alpha
    weights = weight_table(cfg.params, -(n - 1), n - 1).weights
    below = ratio * weights[n - 1 :: -1]  # ratio * w_0, w_-1, ..., w_-(N-1)
    above = ratio * weights[n - 1 :]  # ratio * w_0, w_1, ..., w_(N-1)
    s_left, s_right = TailSums(cfg.params).interior_arrays(n)
    left = r * s_left - below[1:]
    right = r * s_right[::-1] - above[:0:-1]  # s_R(N-i) and w_(N-i) for i = 1..N-1
    factorization = None
    if cfg.sigma != 1.0:
        first_col, first_row = below[:-1].copy(), above[:-1].copy()
        first_col[0] += 1.0
        first_row[0] += 1.0
        factorization = toeplitz_factor(first_col, first_row)
    stencil, mode = None, ""
    if cfg.sigma != 0.0:
        stencil, mode = _node_stencil(weights)
        stencil = cfg.sigma * r * stencil
        stencil[len(stencil) // 2] += 1.0
        stencil.setflags(write=False)
    left.setflags(write=False)
    right.setflags(write=False)
    return StepPlan(grid, dt, cfg.bc_left, cfg.bc_right, stencil, mode, left, right, factorization)


def assemble_system(
    state: FieldState, cfg: SchemeConfig, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """The dense reference of ``StepPlan``: (A, b) of one step, A C^{f+1} = b.

    A[i, j] = delta_ij + (sigma - 1) r w_{j-i} on interior rows, with unit
    boundary rows; b = C^f + dt K rf_apply_bounded(C^f) on interior rows,
    with the boundary values on the end rows, all for the state's grid.
    """
    ratio = _implicit_ratio(cfg, dt, state.grid.h)
    f = state.step_index
    gl = boundary_at_half_step(cfg.bc_left, dt, f)
    gr = boundary_at_half_step(cfg.bc_right, dt, f)
    n = state.grid.n_cells
    matrix = np.eye(n + 1)
    matrix[1:-1] += ratio * _dense_operator(cfg.params, n)
    op = rf_apply_bounded(state, gl, gr, cfg.params, cfg.sigma)
    rhs = np.empty_like(state.values)
    rhs[1:-1] = state.values[1:-1] + dt * cfg.k_alpha * op
    rhs[0] = gl
    rhs[-1] = gr
    return matrix, rhs


def implicit_step(state: FieldState, plan: StepPlan) -> FieldState:
    """One sigma-weighted step of ``state`` by a ``step_plan``: solve
    A C^{f+1} = b.

    The plan holds its grid, dt, both boundary specs and every
    coefficient, and is built once for any number of steps; a state on
    another grid raises DimensionMismatch.  At sigma = 1 A is the identity
    and nothing is solved.  The boundary nodes take the prescribed values.
    The step does not compare dt with the explicit bound; ``run`` does
    that once, when it resolves dt.
    """
    if state.grid != plan.grid:
        raise DimensionMismatch(f"a plan for {plan.grid} cannot step a state on {state.grid}")
    f = state.step_index
    values = plan.advance(state.values, f)
    return FieldState(grid=state.grid, values=values, time=plan.dt * (f + 1), step_index=f + 1)
