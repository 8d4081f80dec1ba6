"""Sigma-weighted finite-difference time stepping on a bounded domain.

One step advances the interior nodes by the discretized fractional
operator while both Dirichlet values enter every interior node through
closed-form tail sums (values beyond the domain are held at the nearest
boundary value).  ``sigma`` blends the time levels: 1 is fully explicit,
0 fully implicit, anything between is a partially implicit scheme.
Boundary data is evaluated at half steps t = dt*(f + 1/2).

Every coefficient of a step is fixed for a run, so ``step_plan`` builds
them once, in O(N) memory, and below sigma = 1 factors the interior
Toeplitz system; a step is then one correlation that writes the new
state node by node, an axpy per nonzero boundary value and an O(N log N)
solve.  ``rf_apply_bounded`` and ``assemble_system`` are the dense
reference the tests and ``verify`` compare with: they build the operator
from ``WeightTable.application_matrix`` and share no stencil code with
the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid
from .grid import BoundarySpec, FieldState, boundary_at_half_step
from .kernel import FractionalParams, TailSums, WeightTable, weight
from .linalg import ToeplitzFactorization, TridiagonalFactorization, toeplitz_factor


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


def rf_apply_bounded(
    state: FieldState,
    g_left: float,
    g_right: float,
    table: WeightTable,
    tails: TailSums,
    sigma: float = 1.0,
) -> np.ndarray:
    """Sigma-weighted discrete fractional operator at the N-1 interior nodes.

    out[i-1] = h**-alpha * ( sigma * sum_{k=-i}^{N-i} C_{i+k} w_k
                             + g_left * s_L(i) + g_right * s_R(N-i) )

    The window sum covers every node of the bounded grid; the tail sums
    carry the boundary values held on the virtual nodes outside it.  It is
    the product with the dense ``WeightTable.application_matrix``, which
    raises WindowTooSmall for an undersized table.  The step does not call
    it: it is the reference that ``StepPlan`` is tested against, and
    shares none of its stencil code.
    """
    n = state.grid.n_cells
    s_left, s_right = tails.interior_arrays(n)
    window = sigma * (table.application_matrix(n) @ state.values)
    boundary = g_left * s_left + g_right * s_right[::-1]  # s_R(N-i) for i = 1..N-1
    return (window + boundary) / state.grid.h ** table.params.alpha


def _implicit_ratio(cfg: SchemeConfig, dt: float, h: float) -> float:
    """(sigma - 1) K dt / h**alpha, the factor of w_{j-i} in the system.

    The one check of dt for the step and its dense reference: raises
    ValueError unless dt is positive and finite.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return (cfg.sigma - 1.0) * cfg.k_alpha * dt / h**cfg.params.alpha


@dataclass(frozen=True)
class StepPlan:
    """Every coefficient of a sigma-weighted step on an N-cell grid.

    With r = K dt / h**alpha the step solves T C^{f+1} = P C^f + g_L left
    + g_R right on the interior nodes, T = I + (sigma - 1) r W and
    P = I + sigma r W.  ``stencil`` is P's row trimmed to its reach, with
    the ``np.correlate`` ``mode`` that gives one output per node (None and
    "" at sigma = 0, P = I); ``left``/``right`` are r s_L(i)/r s_R(N-i)
    minus T's Dirichlet columns (sigma - 1) r w_{-i}/w_{N-i};
    ``factorization`` is T's (None at sigma = 1, T = I).  ``advance``
    takes any number of steps in one call, the same arithmetic in the same
    order as that many one-step calls.
    """

    dt: float
    bc_left: BoundarySpec
    bc_right: BoundarySpec
    stencil: np.ndarray | None
    mode: str
    left: np.ndarray
    right: np.ndarray
    factorization: ToeplitzFactorization | TridiagonalFactorization | None

    def advance(self, values: np.ndarray, f: int, steps: int = 1) -> np.ndarray:
        """The N+1 nodal values C^{f+steps} from C^f, as a new array
        (steps >= 1).  The boundary values of all the half steps are
        evaluated at once; each step then takes the end nodes to its own."""
        half_steps = np.arange(f, f + steps)
        g_lefts = boundary_at_half_step(self.bc_left, self.dt, half_steps).tolist()
        g_rights = boundary_at_half_step(self.bc_right, self.dt, half_steps).tolist()
        for g_left, g_right in zip(g_lefts, g_rights):
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


def step_plan(
    cfg: SchemeConfig, dt: float, table: WeightTable, tails: TailSums, n_cells: int, h: float
) -> StepPlan:
    """Build the coefficients of a step of size dt once per run; O(N) memory.

    They are read from the weight table, which must cover [-(N-1), N-1].
    The stencil's correlation mode is picked once, by
    ``WeightTable._node_stencil``.  T is factored only below sigma = 1.
    dt must be positive and finite (ValueError otherwise); it is not
    compared with the explicit bound, so a plan may step past it.
    """
    n = int(n_cells)
    table._require_window(n)
    ratio = _implicit_ratio(cfg, dt, h)
    r = cfg.k_alpha * dt / h**cfg.params.alpha
    offsets = np.arange(n)
    below = ratio * table.weights[-table.k_min - offsets]  # ratio * w_0, w_-1, ..., w_-(N-1)
    above = ratio * table.weights[-table.k_min + offsets]  # ratio * w_0, w_1, ..., w_(N-1)
    s_left, s_right = tails.interior_arrays(n)
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
        stencil, mode = table._node_stencil(n)
        stencil = cfg.sigma * r * stencil
        stencil[len(stencil) // 2] += 1.0
        stencil.setflags(write=False)
    left.setflags(write=False)
    right.setflags(write=False)
    return StepPlan(dt, cfg.bc_left, cfg.bc_right, stencil, mode, left, right, factorization)


def assemble_system(
    state: FieldState,
    cfg: SchemeConfig,
    dt: float,
    table: WeightTable,
    tails: TailSums,
) -> tuple[np.ndarray, np.ndarray]:
    """The dense reference of ``StepPlan``: (A, b) of one step, A C^{f+1} = b.

    A[i, j] = delta_ij + (sigma - 1) r w_{j-i} on interior rows, with unit
    boundary rows; b = C^f + dt K rf_apply_bounded(C^f) on interior rows,
    with the boundary values on the end rows.
    """
    ratio = _implicit_ratio(cfg, dt, state.grid.h)
    f = state.step_index
    gl = boundary_at_half_step(cfg.bc_left, dt, f)
    gr = boundary_at_half_step(cfg.bc_right, dt, f)
    n = state.grid.n_cells
    matrix = np.eye(n + 1)
    matrix[1:-1] += ratio * table.application_matrix(n)
    op = rf_apply_bounded(state, gl, gr, table, tails, cfg.sigma)
    rhs = np.empty_like(state.values)
    rhs[1:-1] = state.values[1:-1] + dt * cfg.k_alpha * op
    rhs[0] = gl
    rhs[-1] = gr
    return matrix, rhs


def implicit_step(state: FieldState, plan: StepPlan) -> FieldState:
    """One sigma-weighted step of ``state`` by a ``step_plan``: solve
    A C^{f+1} = b.

    The plan holds dt, both boundary specs and every coefficient, and is
    built once for any number of steps.  At sigma = 1 A is the identity and
    nothing is solved.  The boundary nodes take the prescribed values.  The
    step does not compare dt with the explicit bound; ``run`` does that
    once, when it resolves dt.
    """
    f = state.step_index
    values = plan.advance(state.values, f)
    return FieldState(grid=state.grid, values=values, time=plan.dt * (f + 1), step_index=f + 1)
