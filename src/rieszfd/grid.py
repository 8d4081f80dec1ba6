"""Uniform spatial grid, nodal field state, initial and boundary data."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigInvalid, ValidationError


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with N cells (N+1 nodes) on [left, right]."""

    left: float
    right: float
    n_cells: int

    @property
    def h(self) -> float:
        return (self.right - self.left) / self.n_cells

    def nodes(self) -> np.ndarray:
        # endpoints are pinned so x_0 == left and x_N == right bit-exactly
        xs = self.left + np.arange(self.n_cells + 1) * self.h
        xs[0] = self.left
        xs[-1] = self.right
        return xs


def build_grid(left: float, right: float, n_cells: int) -> Grid1D:
    """Validated uniform grid; raises ValidationError on bad extents or a
    cell count that is not an integer of at least 2."""
    if not (math.isfinite(left) and math.isfinite(right)):
        raise ValidationError(f"domain ends must be finite, got [{left}, {right}]")
    if not right > left:
        raise ValidationError(f"need right > left, got [{left}, {right}]")
    try:
        n = operator.index(n_cells)
    except TypeError:
        raise ValidationError(f"cell count must be an integer, got {n_cells!r}") from None
    if n < 2:
        raise ValidationError(f"need at least 2 cells, got {n_cells}")
    return Grid1D(float(left), float(right), n)


def _finite(what: str, values) -> tuple[float, ...]:
    """The values as floats; raises ConfigInvalid if any is NaN or infinite."""
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v):
            raise ConfigInvalid(f"{what} must be finite, got {v}")
    return out


@dataclass(frozen=True)
class FieldState:
    """Nodal solution values at one time level.

    Value arrays are treated as immutable: steps produce new states
    rather than mutating old ones, so states can be retained as
    snapshots or shared across threads safely.
    """

    grid: Grid1D
    values: np.ndarray
    time: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells + 1,):
            raise ValueError(
                f"expected {self.grid.n_cells + 1} nodal values, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class InitialCondition:
    """Initial profile: a unit-mass spike, a box, or tabulated values.

    The spike puts 1/h on the center node (even N required) and 0
    elsewhere; the box is sampled by closed-interval node membership
    with no partial-cell weighting; tables are linearly interpolated
    and clamped outside their range.
    """

    kind: str
    box_value: float = 0.0
    box_from: float = 0.0
    box_to: float = 0.0
    table_x: tuple[float, ...] = ()
    table_v: tuple[float, ...] = ()

    @classmethod
    def delta(cls) -> "InitialCondition":
        return cls(kind="delta")

    @classmethod
    def box(cls, value: float, x_from: float, x_to: float) -> "InitialCondition":
        value, x_from, x_to = _finite("box value and bounds", (value, x_from, x_to))
        return cls(kind="box", box_value=value, box_from=x_from, box_to=x_to)

    @classmethod
    def tabulated(cls, xs: Sequence[float], values: Sequence[float]) -> "InitialCondition":
        xs = _finite("tabulated x values", xs)
        values = _finite("tabulated initial values", values)
        if len(xs) != len(values) or len(xs) < 2:
            raise ValueError("tabulated initial condition needs >= 2 (x, value) pairs")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("tabulated x values must be strictly increasing")
        return cls(kind="tabulated", table_x=xs, table_v=values)


def sample_initial(ic: InitialCondition, grid: Grid1D) -> FieldState:
    """Evaluate the initial condition on every node at t = 0."""
    n = grid.n_cells
    if ic.kind == "delta":
        if n % 2 != 0:
            raise ValidationError(
                f"spike initial condition needs an even cell count, got {n}"
            )
        vals = np.zeros(n + 1)
        vals[n // 2] = 1.0 / grid.h
    elif ic.kind == "box":
        if ic.box_from > ic.box_to:
            raise ValidationError(f"box bounds inverted: [{ic.box_from}, {ic.box_to}]")
        if ic.box_from < grid.left or ic.box_to > grid.right:
            raise ValidationError(
                f"box [{ic.box_from}, {ic.box_to}] not inside [{grid.left}, {grid.right}]"
            )
        xs = grid.nodes()
        tol = 1e-9 * grid.h  # absorb roundoff in node coordinates at the box edges
        vals = np.where((xs >= ic.box_from - tol) & (xs <= ic.box_to + tol), ic.box_value, 0.0)
    elif ic.kind == "tabulated":
        vals = np.interp(grid.nodes(), ic.table_x, ic.table_v)
    else:
        raise ValueError(f"unknown initial condition kind {ic.kind!r}")
    return FieldState(grid=grid, values=vals, time=0.0, step_index=0)


@dataclass(frozen=True)
class BoundarySpec:
    """Dirichlet boundary value, constant or tabulated over time.

    Time tables interpolate linearly and clamp to the end values
    outside the tabulated range.
    """

    kind: str
    value: float = 0.0
    table_t: tuple[float, ...] = ()
    table_v: tuple[float, ...] = ()

    @classmethod
    def constant(cls, value: float) -> "BoundarySpec":
        (value,) = _finite("boundary value", (value,))
        return cls(kind="constant", value=value)

    @classmethod
    def time_table(cls, points: Sequence[tuple[float, float]]) -> "BoundarySpec":
        pts = list(points)
        ts = _finite("time table times", (t for t, _ in pts))
        vs = _finite("time table values", (v for _, v in pts))
        if len(ts) < 2:
            raise ValueError("time table needs >= 2 points")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("time table must be strictly increasing in t")
        return cls(kind="time_table", table_t=ts, table_v=vs)

    def at(self, t):
        """Value at time t, or an array of the values at an array of times."""
        if self.kind == "constant":
            return self.value if np.ndim(t) == 0 else np.full(np.shape(t), self.value)
        values = np.interp(t, self.table_t, self.table_v)
        return float(values) if np.ndim(t) == 0 else values


def boundary_at_half_step(spec: BoundarySpec, dt: float, f):
    """Boundary value at the half step t = dt * (f + 1/2), or an array of
    the values when ``f`` is an integer array of steps.  A constant takes
    its value without the times."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    steps = np.asarray(f)
    if steps.min(initial=0) < 0:
        raise ValueError(f"step index must be >= 0, got {f}")
    if spec.kind == "constant":
        return spec.value if steps.ndim == 0 else np.full(steps.shape, spec.value)
    return spec.at(dt * (f + 0.5))


def mass(state: FieldState) -> float:
    """Trapezoid-rule integral of the field over the domain."""
    v = state.values
    return float(state.grid.h * (0.5 * v[0] + v[1:-1].sum() + 0.5 * v[-1]))
