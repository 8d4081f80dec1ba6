"""Sigma-weighted finite-difference time stepping on a bounded domain.

One step advances the interior nodes by the discretized fractional
operator while both Dirichlet values enter every interior node through
closed-form tail sums (values beyond the domain are held at the nearest
boundary value).  ``sigma`` blends the time levels: 1 is fully explicit,
0 fully implicit, anything between is a partially implicit scheme.  A
single step function, ``implicit_step``, serves every sigma; at sigma = 1
its system matrix is the identity and it does no solve.  Below sigma = 1
the interior system is Toeplitz and is factored once per run
(``interior_system``), in O(N) memory; each step then solves it in
O(N log N) work.  The dense system (``assemble_system``) is kept as the
reference the tests and ``verify`` compare with.  Boundary data is
evaluated at half steps t = dt*(f + 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import BoundarySpec, FieldState, boundary_at_half_step
from .kernel import FractionalParams, TailSums, WeightTable, weight
from .linalg import ToeplitzFactorization, TridiagonalFactorization, toeplitz_factor


@dataclass(frozen=True)
class SchemeConfig:
    """Diffusion coefficient, time step, sigma weight and boundary data.

    ``dt`` may be None when a simulation-level policy resolves it later;
    the step itself requires a concrete value.  A run at sigma = 1 refuses
    dt at or above the positivity bound unless ``allow_unstable_dt`` is
    set; the run checks this once, when it resolves dt.
    """

    params: FractionalParams
    k_alpha: float
    dt: float | None = None
    sigma: float = 1.0
    bc_left: BoundarySpec = BoundarySpec.constant(0.0)
    bc_right: BoundarySpec = BoundarySpec.constant(0.0)
    allow_unstable_dt: bool = False

    def __post_init__(self):
        if not (self.k_alpha > 0.0 and math.isfinite(self.k_alpha)):
            raise ValueError(
                f"diffusion coefficient must be positive and finite, got {self.k_alpha}"
            )
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")

    def _require_dt(self) -> float:
        if self.dt is None:
            raise ValueError("scheme has no concrete dt; set dt or use a dt policy")
        return self.dt


def max_stable_dt(params: FractionalParams, k_alpha: float, h: float) -> float:
    """Largest explicit time step keeping the k = 0 update coefficient positive.

    Equals -h**alpha / (k_alpha * w_0); w_0 < 0 for all valid parameters,
    so the bound is strictly positive.
    """
    if k_alpha <= 0.0 or h <= 0.0:
        raise ValueError("k_alpha and h must be positive")
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
    computed matrix-free by ``WeightTable.apply``, in O(N) memory and
    O(N * K) work for a stencil of reach K (three products per node at
    alpha = 2).  At sigma = 0 the window sum is skipped, not multiplied by
    zero.
    """
    n = state.grid.n_cells
    s_left, s_right = tails.interior_arrays(n)
    acc = g_left * s_left
    if sigma != 0.0:
        # raises WindowTooSmall if the table is undersized
        acc += sigma * table.apply(state.values)
    acc += g_right * s_right[::-1]  # s_R(N-i) for i = 1..N-1
    return acc / state.grid.h ** table.params.alpha


def _implicit_ratio(cfg: SchemeConfig, h: float) -> float:
    """(sigma - 1) K dt / h**alpha, the factor of w_{j-i} in the system."""
    return (cfg.sigma - 1.0) * cfg.k_alpha * cfg._require_dt() / h**cfg.params.alpha


@dataclass(frozen=True)
class InteriorSystem:
    """The system of one implicit step on the N-1 interior nodes.

    T[i, j] = delta_ij + ratio * w_{j-i} is Toeplitz; the Dirichlet columns
    ``left`` = ratio * w_{-i} and ``right`` = ratio * w_{N-i} (i = 1..N-1)
    move to the right-hand side.  Depends only on (params, k_alpha, dt,
    sigma, N), so ``run`` builds it once.
    """

    factorization: ToeplitzFactorization | TridiagonalFactorization
    left: np.ndarray
    right: np.ndarray

    def solve(self, rhs: np.ndarray, g_left: float, g_right: float) -> np.ndarray:
        """Interior values C^{f+1} for the interior right-hand side b."""
        return self.factorization.solve(rhs - g_left * self.left - g_right * self.right)


def interior_system(cfg: SchemeConfig, table: WeightTable, n_cells: int, h: float) -> InteriorSystem:
    """Factor the interior Toeplitz system once; O(N) memory.

    Its first column and row are read from the weight table, which must
    cover [-(N-1), N-1].
    """
    n = int(n_cells)
    table._require_window(n)
    ratio = _implicit_ratio(cfg, h)
    offsets = np.arange(n)
    below = ratio * table.weights[-table.k_min - offsets]  # ratio * w_0, w_-1, ..., w_-(N-1)
    above = ratio * table.weights[-table.k_min + offsets]  # ratio * w_0, w_1, ..., w_(N-1)
    first_col, first_row = below[:-1].copy(), above[:-1].copy()
    first_col[0] += 1.0
    first_row[0] += 1.0
    left, right = below[1:], above[:0:-1]
    left.setflags(write=False)
    right.setflags(write=False)
    return InteriorSystem(toeplitz_factor(first_col, first_row), left, right)


@dataclass(frozen=True)
class LinearSystem:
    """Dense system A C = b of one implicit step: the test reference."""

    matrix: np.ndarray
    rhs: np.ndarray


def _assemble_matrix(cfg: SchemeConfig, table: WeightTable, n_cells: int, h: float) -> np.ndarray:
    """A[i, j] = delta_ij + a_{j-i} on interior rows, unit boundary rows."""
    n = n_cells
    ratio = _implicit_ratio(cfg, h)
    a = np.zeros((n + 1, n + 1))
    a[1:-1, :] = ratio * table.application_matrix(n)
    np.fill_diagonal(a, a.diagonal() + 1.0)
    a[0, 0] = 1.0
    a[-1, -1] = 1.0
    return a


def _assemble_rhs(
    state: FieldState,
    cfg: SchemeConfig,
    table: WeightTable,
    tails: TailSums,
    gl: float,
    gr: float,
) -> np.ndarray:
    """b: C^f + dt K F on interior rows, with F = rf_apply_bounded at the
    scheme's sigma, and the boundary values on the end rows."""
    op = rf_apply_bounded(state, gl, gr, table, tails, cfg.sigma)
    rhs = np.empty_like(state.values)
    rhs[1:-1] = state.values[1:-1] + cfg._require_dt() * cfg.k_alpha * op
    rhs[0] = gl
    rhs[-1] = gr
    return rhs


def assemble_system(
    state: FieldState,
    cfg: SchemeConfig,
    table: WeightTable,
    tails: TailSums,
) -> LinearSystem:
    """Dense matrix and right-hand side for one sigma-weighted step: the
    reference the Toeplitz solve of ``implicit_step`` is tested against."""
    dt = cfg._require_dt()
    f = state.step_index
    gl = boundary_at_half_step(cfg.bc_left, dt, f)
    gr = boundary_at_half_step(cfg.bc_right, dt, f)
    matrix = _assemble_matrix(cfg, table, state.grid.n_cells, state.grid.h)
    rhs = _assemble_rhs(state, cfg, table, tails, gl, gr)
    return LinearSystem(matrix=matrix, rhs=rhs)


def implicit_step(
    state: FieldState,
    cfg: SchemeConfig,
    table: WeightTable,
    tails: TailSums,
    system: InteriorSystem | None = None,
) -> FieldState:
    """One sigma-weighted step: solve A C^{f+1} = b.

    At sigma = 1 the matrix A is the identity, so the step is the explicit
    update b itself and nothing is factored or solved.  Otherwise A depends
    only on (params, k_alpha, dt, sigma, N): pass the ``interior_system``
    in when stepping repeatedly so it is factored once.  The boundary
    nodes take the prescribed values, not solved ones.  The step does not
    compare dt with the explicit bound; ``run`` does that once, when it
    resolves dt.
    """
    dt = cfg._require_dt()
    f = state.step_index
    gl = boundary_at_half_step(cfg.bc_left, dt, f)
    gr = boundary_at_half_step(cfg.bc_right, dt, f)
    new = _assemble_rhs(state, cfg, table, tails, gl, gr)
    if cfg.sigma != 1.0:
        if system is None:
            system = interior_system(cfg, table, state.grid.n_cells, state.grid.h)
        new[1:-1] = system.solve(new[1:-1], gl, gr)
    return FieldState(grid=state.grid, values=new, time=dt * (f + 1), step_index=f + 1)
