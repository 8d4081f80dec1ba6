"""Sigma-weighted finite-difference time stepping on a bounded domain.

One step advances the interior nodes by the discretized fractional
operator while both Dirichlet values enter every interior node through
closed-form tail sums (values beyond the domain are held at the nearest
boundary value).  ``sigma`` blends the time levels: 1 is fully explicit,
0 fully implicit, anything between is a partially implicit scheme.
Boundary data is evaluated at half steps t = dt*(f + 1/2).

Every coefficient of a step is fixed for a run, so ``step_plan`` builds
them once from the grid, in O(N) memory, and below sigma = 1 factors the
interior Toeplitz system; a step is then one correlation that gives the
N - 1 interior values, an axpy per nonzero boundary value and an
O(N log N) solve.  An explicit plan with the symmetric three-point
stencil (alpha = 2 at N >= 10) takes up to ``_BLOCK_STEPS`` steps per
matrix product instead: the state extended oddly about both ends, read
in overlapping rows, times a Toeplitz panel of the composed stencil,
which repeated squaring of the three taps builds.  The product keeps
direct sums, so delta data stays exactly zero beyond its reach.
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

from .errors import ConfigInvalid, ValidationError
from .grid import BoundarySpec, FieldState, Grid1D, boundary_at_half_step
from .kernel import FractionalParams, TailSums, weight, weight_table
from .linalg import ToeplitzFactorization, TridiagonalFactorization, toeplitz_factor

_SEGMENT_STEPS = 4096  # half steps whose boundary values advance evaluates at once
_BLOCK_STEPS = 256  # most explicit steps of a short stencil that advance takes in one product
_BLOCKED_CALL_STEPS = 32  # fewest steps of a blocked advance call; a block costs 5-15 steps
_PANEL_WIDTH = 32  # nodes that one row of a block's matrix product gives


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


def stable_dt_limit(bound: float, sigma: float) -> float:
    """The dt at and above which a run of weight ``sigma`` is refused, from
    its explicit ``bound`` (``max_stable_dt``): bound / (2 sigma - 1) above
    sigma = 1/2, the bound itself at sigma = 1, and inf at sigma <= 1/2,
    which is stable at any dt.  The rule is sufficient, not sharp."""
    return bound / (2.0 * sigma - 1.0) if sigma > 0.5 else math.inf


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


@dataclass(frozen=True)
class StepPlan:
    """Every coefficient of a sigma-weighted step on one grid.

    With r = K dt / h**alpha the step solves T C^{f+1} = P C^f + g_L left
    + g_R right on the interior nodes, T = I + (sigma - 1) r W and
    P = I + sigma r W.  ``stencil`` is P's interior row: k = -1..1 at
    alpha = 2, where every other weight is zero, and k = -(N-1)..N-1 below
    it (None at sigma = 0, P = I), so a "valid" correlation of the N + 1
    values with it gives the N - 1 interior ones.  ``left``/``right`` are
    r s_L(i)/r s_R(N-i) minus T's Dirichlet columns (sigma - 1) r w_{-i}/w_{N-i};
    ``factorization`` is T's (None at sigma = 1, T = I).  ``advance``
    takes any number of steps in one call, the same arithmetic in the same
    order as that many one-step calls, except that an explicit plan with a
    symmetric three-tap stencil and no boundary column takes a call of
    ``_BLOCKED_CALL_STEPS`` or more steps in blocks, by the method of
    images, to rounding of one-step calls; a repeated call repeats its bits.
    Such a plan keeps the powers of two of its stencil and the Toeplitz
    panel of a full block, O(k L) floats for k = ``_block_steps`` and
    L = ``_PANEL_WIDTH``, built on its first blocked call; the table of
    every composed stencil up to P_k is built only by a blocked call with
    a nonzero end value, which the inflow product reads.
    """

    grid: Grid1D
    dt: float
    bc_left: BoundarySpec
    bc_right: BoundarySpec
    stencil: np.ndarray | None
    left: np.ndarray
    right: np.ndarray
    factorization: ToeplitzFactorization | TridiagonalFactorization | None

    def advance(self, values: np.ndarray, f: int, steps: int = 1) -> np.ndarray:
        """C^{f+steps}, a new float array, from the N+1 nodal values C^f (never written).

        ``values`` is read once as a 1-D float array, so an int state steps
        like its float copy.  f < 0 or steps < 1 raises ValueError, and any
        shape but (N+1,) ValidationError, before any work.  The boundary
        values are evaluated at most ``_SEGMENT_STEPS`` half steps at a time,
        so any step count takes O(N + _SEGMENT_STEPS) memory.  A blocked
        call takes segments of whole blocks, so only its last segment has a
        short block and builds a panel of its own.  A call of fewer than
        ``_BLOCKED_CALL_STEPS`` steps steps one at a time and builds no blocks.

        A call that steps one at a time allocates its work arrays once: two
        states that the steps alternate between, the right-hand side and
        the factorization's ``work_arrays``, which every solve overwrites.
        They belong to the call, not to the plan, so a plan stays immutable
        and may step any number of states at once, in any thread."""
        if f < 0 or steps < 1:
            raise ValueError(f"advance needs f >= 0 and steps >= 1, got f={f}, steps={steps}")
        values, n = np.asarray(values, dtype=float), self.grid.n_cells
        if values.shape != (n + 1,):
            raise ValidationError(f"a {n}-cell plan steps {n + 1} values, got {values.shape}")
        blocked = steps >= _BLOCKED_CALL_STEPS and self._squares is not None
        stride = _SEGMENT_STEPS - _SEGMENT_STEPS % self._block_steps if blocked else _SEGMENT_STEPS
        if not blocked:  # the work arrays of every step of the call
            states, rhs, term = (np.empty(n + 1), np.empty(n + 1)), np.empty(n - 1), np.empty(n - 1)
            solver = self.factorization
            work = None if solver is None else solver.work_arrays()
        for start in range(f, f + steps, stride):
            half_steps = np.arange(start, min(start + stride, f + steps))
            g_lefts = boundary_at_half_step(self.bc_left, self.dt, half_steps)
            g_rights = boundary_at_half_step(self.bc_right, self.dt, half_steps)
            if blocked:
                values = self._march_blocks(values, g_lefts, g_rights)
                continue
            for g_left, g_right in zip(g_lefts.tolist(), g_rights.tolist()):
                state = states[values is states[0]]  # the one that values is not
                interior = values[1:-1]
                if self.stencil is not None:  # one output per interior node
                    interior = np.correlate(values, self.stencil, "valid")
                if g_left != 0.0:
                    interior = np.add(interior, np.multiply(g_left, self.left, out=term), out=rhs)
                if g_right != 0.0:
                    interior = np.add(interior, np.multiply(g_right, self.right, out=term), out=rhs)
                if solver is None:
                    state[1:-1] = interior
                else:
                    solver.solve(interior, state[1:-1], work)
                state[0], state[-1] = g_left, g_right
                values = state
        return values

    @property
    def _block_steps(self) -> int:  # any k <= N - 1 is exact; N / 4 caps the inflow's cost
        return min(_BLOCK_STEPS, (self.grid.n_cells - 2) // 4)

    def _march_blocks(
        self, values: np.ndarray, g_lefts: np.ndarray, g_rights: np.ndarray
    ) -> np.ndarray:
        """Blocks of ``_block_steps`` = k steps at the boundary values
        ``g_lefts``/``g_rights``, the first taking the r <= k steps left over.

        Holding an end node at zero steps a symmetric stencil like the free
        step of the state extended oddly about that node.  So an r-step
        block takes P_r, the r-fold composed stencil, over (-C_r, ..., -C_1,
        0, C_1, ..., C_(N-1), 0, -C_(N-1), ..., -C_(N-r)), held in one
        zero-tailed buffer, as one batched matrix product: row q of a
        strided view reads the L + 2r values around nodes qL..qL+L-1, L =
        ``_PANEL_WIDTH``, in pieces of L, each piece times its L x L piece
        of P_r's Toeplitz panel, and the pieces are summed in order.  The
        sums stay direct, so delta data keeps its exact zeros, and no BLAS
        product sums more than L terms, so the bytes do not depend on the
        BLAS thread count.  An end value read j steps before a block ends
        adds s_-1 (P_j[m-1] - P_j[m+1]) to node m; the first k - r of a
        short block's slots are zero, so one product carries in the end
        values of all blocks, and a call whose end values are all zero
        skips it."""
        k, n, m, width = self._block_steps, self.grid.n_cells, len(g_lefts), _PANEL_WIDTH
        slots = np.zeros((m + -m % k, 2))  # k per block: the end values each step reads
        slots[-m % k :] = np.vstack((values[[0, -1]], np.column_stack((g_lefts, g_rights))[:-1]))
        carried = None  # what a block's end values add
        if slots.any():
            spread = slots.T.reshape(2, -1, k) @ self._inflow
            carried = self.stencil[0] * (spread[:, :, :k] - spread[:, :, 2:])
        rows, reach = -(-(n + 1) // width), None
        extended = np.zeros(2 * k + (rows + 1) * width)  # zeros on the end nodes and the tail
        row, size = width * extended.itemsize, extended.itemsize
        for b, first in enumerate(range(-(-m % k), m, k)):  # the short block first
            r, last = k + min(first, 0), first + k - 1
            if r != reach:
                reach, panel = r, self._panel if r == k else _toeplitz_panel(self._composed(r))
                windows = np.lib.stride_tricks.as_strided(  # piece c of row q: its c-th L values
                    extended[k - r :], (len(panel), rows, width), (row, row, size),
                    writeable=False,
                )
            np.negative(values[k:0:-1], out=extended[:k])
            extended[k + 1 : k + n] = values[1:-1]
            np.negative(values[-2 : -k - 2 : -1], out=extended[k + n + 1 : 2 * k + n + 1])
            with np.errstate(over="ignore", invalid="ignore"):  # run refuses inf and nan
                values = (windows @ panel).sum(axis=0).ravel()[: n + 1]
            if carried is not None:
                values[1 : k + 1] += carried[0, b]
                values[-2 : -k - 2 : -1] += carried[1, b]
            values[0], values[-1] = g_lefts[last], g_rights[last]
        return values

    @cached_property
    def _squares(self) -> tuple[np.ndarray, ...] | None:
        """P_1, P_2, P_4, ..., P_(2^i) for 2^i <= k = ``_block_steps``, each
        as its half on the offsets 0..2^i (P_j is symmetric), by
        repeated squaring of the stencil s.  None unless k >= 2 and the
        plan is explicit with a symmetric three-tap stencil s and no
        boundary column."""
        k, s = self._block_steps, self.stencil
        if (k < 2 or self.factorization is not None or len(s) != 3 or s[0] != s[2]
                or self.left.any() or self.right.any()):
            return None
        squares, mass = [s[1:].copy()], math.fsum(s)
        while 2 ** len(squares) <= k:
            squares.append(_compose(squares[-1], squares[-1], mass))
        return tuple(squares)

    def _composed(self, j: int) -> np.ndarray:
        """P_j's half on the offsets 0..j, from the squares of j's binary digits."""
        half, mass = None, math.fsum(self.stencil)
        for i, square in enumerate(self._squares):
            if j >> i & 1:
                half = square if half is None else _compose(half, square, mass)
        return half

    @cached_property
    def _panel(self) -> np.ndarray:
        """The Toeplitz panel of P_k, k = ``_block_steps``: every full block's."""
        return _toeplitz_panel(self._composed(self._block_steps))

    @cached_property
    def _inflow(self) -> np.ndarray:
        """Row k - 1 - j is P_j on the offsets 0..k+1, j = 0..k-1, k =
        ``_block_steps``: what an end value read j steps before a block
        ends spreads to.  Built by k correlations with the stencil s, by
        the first blocked call with a nonzero end value."""
        k, s = self._block_steps, self.stencil
        composed, powers = np.ones(1), np.zeros((k, k + 2))
        for j in range(k):  # s is symmetric, so correlating with it convolves
            powers[k - 1 - j, : j + 1] = composed[j:]
            composed = np.correlate(composed, s, "full")
        return powers


def _compose(a: np.ndarray, b: np.ndarray, mass: float) -> np.ndarray:
    """The half of P_(i+j) = P_i P_j from the halves of P_i and P_j (offsets
    0..i, 0..j) of a stencil whose taps sum to ``mass``.

    One direct convolution of the mirrored stencils; its half, mirrored
    again wherever it is read, keeps the product exactly symmetric.  The
    taps of P_(i+j) sum to mass**(i+j), and squaring would double an error
    in that sum at every level, so the half is scaled to it."""
    full = np.convolve(np.concatenate((a[:0:-1], a)), np.concatenate((b[:0:-1], b)))
    reach = len(a) + len(b) - 2  # i + j
    return full[reach:] * (mass**reach / np.sum(full))


def _toeplitz_panel(half: np.ndarray) -> np.ndarray:
    """The Toeplitz panel T[a, j] = P_r[a - j - r] of P_r's half on the
    offsets 0..r, a < L + 2r and j < L = ``_PANEL_WIDTH``, zero-padded to
    whole L x L pieces and stacked as (pieces, L, L): a row of L + 2r
    consecutive values, cut into pieces of L, times the pieces and summed
    gives the L outputs of P_r around its middle L values."""
    r, width = len(half) - 1, _PANEL_WIDTH
    pieces = -(-(width + 2 * r) // width)
    padded = np.zeros((pieces + 1) * width - 1)
    padded[width - 1 : width + r] = half[::-1]
    padded[width + r - 1 : width + 2 * r] = half
    panel = np.lib.stride_tricks.sliding_window_view(padded, width)[:, ::-1]
    return np.ascontiguousarray(panel).reshape(pieces, width, width)


def step_plan(cfg: SchemeConfig, dt: float, grid: Grid1D) -> StepPlan:
    """Build the coefficients of a step of size dt on ``grid`` once per run.

    Tabulates w_k over exactly the offsets the grid reads, [-(N-1), N-1],
    and the interior tail sums, in O(N) memory.  The fused stencil is P's
    interior row: w_-1..w_1 at alpha = 2, all 2N - 1 weights below it,
    where they decay like |k|**(-1-alpha).  T is factored only below sigma
    = 1.  dt must be positive and finite (ValueError otherwise); it is not
    compared with the explicit bound, so a plan may step past it.
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
    stencil = None
    if cfg.sigma != 0.0:
        stencil = weights[n - 2 : n + 1] if cfg.params.alpha == 2.0 else weights
        stencil = cfg.sigma * r * stencil
        stencil[len(stencil) // 2] += 1.0
        stencil.setflags(write=False)
    left.setflags(write=False)
    right.setflags(write=False)
    return StepPlan(grid, dt, cfg.bc_left, cfg.bc_right, stencil, left, right, factorization)


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
    another grid raises ValidationError.  At sigma = 1 A is the identity
    and nothing is solved.  The boundary nodes take the prescribed values.
    The step does not compare dt with the explicit bound; ``run`` does
    that once, when it resolves dt.
    """
    if state.grid != plan.grid:
        raise ValidationError(f"a plan for {plan.grid} cannot step a state on {state.grid}")
    f = state.step_index
    values = plan.advance(state.values, f)
    return FieldState(grid=state.grid, values=values, time=plan.dt * (f + 1), step_index=f + 1)
