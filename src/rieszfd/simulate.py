"""Time-integration driver: resolve the step size, advance, record snapshots."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ConfigInvalid, NoSuchSnapshot
from .grid import FieldState, Grid1D, InitialCondition, sample_initial
from .schemes import SchemeConfig, max_stable_dt, stable_dt_limit, step_plan

# snapshot times are aligned to integer step multiples when their ratios to
# t_end are rational with denominators up to this bound
_ALIGN_DENOMINATOR_LIMIT = 10**6
_ALIGN_STEP_CAP = 50_000_000
# runs of more steps are refused before anything is built: 10**8 steps
# take about ten minutes at a few microseconds a step, a day at a millisecond
_STEP_BUDGET = 10**8
# runs whose arrays would take more bytes than this are refused before any
# is allocated: the initial state, every recorded one and the working set
# of the step plan, which peaks at 65.2 arrays of N + 1 floats while
# step_plan factors T (tracemalloc, alpha 1.5, sigma 0.5, N = 2**14, 2**16)
_BYTE_BUDGET = 2**32
_PLAN_ARRAYS = 66


@dataclass(frozen=True)
class DtPolicy:
    """Step-size policy: a fixed dt, or a safety fraction of the explicit bound."""

    kind: str
    value: float

    @classmethod
    def fixed(cls, dt: float) -> "DtPolicy":
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ConfigInvalid(f"fixed dt must be positive and finite, got {dt}")
        return cls("fixed", float(dt))

    @classmethod
    def auto(cls, safety: float = 0.9) -> "DtPolicy":
        if not 0.0 < safety < 1.0:
            raise ConfigInvalid(f"auto dt safety must lie in (0, 1), got {safety}")
        return cls("auto", float(safety))


@dataclass(frozen=True)
class SimulationConfig:
    """A run's inputs; its dt comes from ``dt_policy``."""

    grid: Grid1D
    scheme: SchemeConfig
    initial: InitialCondition
    t_end: float
    snapshot_times: tuple[float, ...] = ()
    dt_policy: DtPolicy = DtPolicy.auto(0.9)

    def __post_init__(self):
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ConfigInvalid(f"t_end must be positive and finite, got {self.t_end}")
        times = tuple(sorted(float(t) for t in self.snapshot_times))
        if any(not 0.0 <= t <= self.t_end * (1.0 + 1e-12) for t in times):
            raise ConfigInvalid(f"snapshot times {times} not within [0, {self.t_end}]")
        object.__setattr__(self, "snapshot_times", times)


@dataclass(frozen=True)
class SnapshotSeries:
    """Recorded states (first entry is always the t = 0 initial state, the
    last the final one, after ``n_steps`` steps)."""

    config: SimulationConfig
    dt: float
    snapshots: tuple[FieldState, ...]

    @property
    def n_steps(self) -> int:
        return self.snapshots[-1].step_index

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(s.time for s in self.snapshots)

    def nearest(self, time: float) -> FieldState:
        """Recorded state closest to ``time``; must lie within one dt."""
        best = min(self.snapshots, key=lambda s: abs(s.time - time))
        if abs(best.time - time) > self.dt * (1.0 + 1e-9):
            raise NoSuchSnapshot(f"no snapshot within dt={self.dt} of t={time}")
        return best


def config_hash(config: SimulationConfig) -> str:
    """First 12 hex digits of the sha256 of ``repr(config)``: the dataclass
    repr gives every nested field, floats exactly and tuples in full."""
    return hashlib.sha256(repr(config).encode()).hexdigest()[:12]


def resolve_dt(config: SimulationConfig) -> tuple[float, int]:
    """Concrete (dt, n_steps) for a run.

    An auto policy starts from safety * (explicit stability bound).  The
    step count is then raised so that t_end is an exact step multiple and,
    when the requested snapshot times are rational fractions of t_end, so
    are they; irrational requests fall back to nearest-step recording.
    A fixed policy uses the given dt unchanged and steps until t >= t_end.
    A step count past ``_STEP_BUDGET`` (10**8) raises ConfigInvalid, and
    so does a run whose arrays, estimated at 8 (N + 1) (snapshot count + 2
    + ``_PLAN_ARRAYS``) bytes, exceed ``_BYTE_BUDGET`` (4 GiB).

    This is the run's one stability check: above sigma = 1/2 a dt at or
    above ``stable_dt_limit``, bound / (2 sigma - 1) with bound the
    explicit one, raises ConfigInvalid; at sigma = 1 that is the
    explicit bound itself, and sigma <= 1/2 is stable at any dt.  The rule
    is sufficient, not sharp; ``rieszfd stability --sigma`` prints it.
    There is no override; a ``step_plan`` stepped by hand is never checked.
    """
    n_cells, n_times = config.grid.n_cells, len(config.snapshot_times)
    estimate = 8 * (n_cells + 1) * (n_times + 2 + _PLAN_ARRAYS)
    if estimate > _BYTE_BUDGET:
        raise ConfigInvalid(
            f"{n_cells} cells and {n_times} snapshot times take about "
            f"{estimate / 2**30:.3g} GiB, over the budget of {_BYTE_BUDGET / 2**30:.0f} GiB a run"
        )
    policy = config.dt_policy
    scheme = config.scheme
    bound = max_stable_dt(scheme.params, scheme.k_alpha, config.grid.h)
    dt = policy.value if policy.kind == "fixed" else policy.value * bound
    steps = config.t_end / dt * (1.0 - 1e-12)
    if not steps <= _STEP_BUDGET:
        raise ConfigInvalid(
            f"t_end={config.t_end} at dt={dt} takes {steps:.3g} steps, "
            f"over the budget of {_STEP_BUDGET:.0e} steps a run"
        )
    n = max(1, math.ceil(steps))
    if policy.kind == "auto":
        denominators = []
        for t in config.snapshot_times:
            if t <= 0.0 or t >= config.t_end:
                continue
            frac = Fraction(t / config.t_end).limit_denominator(_ALIGN_DENOMINATOR_LIMIT)
            if abs(float(frac) - t / config.t_end) < 1e-12:
                denominators.append(frac.denominator)
        if denominators:
            lcm = math.lcm(*denominators)
            aligned = lcm * math.ceil(n / lcm)
            if aligned <= _ALIGN_STEP_CAP:
                n = aligned
        dt = config.t_end / n
    limit = stable_dt_limit(bound, scheme.sigma)
    if dt >= limit:
        raise ConfigInvalid(
            f"dt={dt} is at or above the stability bound {limit} of sigma={scheme.sigma}, "
            f"the explicit bound {bound} / (2 sigma - 1); reduce dt"
        )
    return dt, n


def run(config: SimulationConfig) -> SnapshotSeries:
    """Advance the field from t = 0 past t_end, recording snapshots.

    Deterministic: identical configs produce bit-identical series.  They
    equal stepping ``implicit_step`` by hand with a plan of the same dt,
    bit for bit, or to rounding where ``StepPlan.advance`` blocks (explicit
    alpha = 2 at N >= 10, between recorded steps 32 or more steps apart),
    taking up to 256 steps per matrix product with a Toeplitz panel.
    An unstable dt for the run's sigma or a step count past the budget is
    refused before anything is built.  One ``step_plan`` of the run's grid
    is built once; one ``StepPlan.advance`` call per recorded step then
    carries bare arrays there, and only the recorded ones become
    ``FieldState``s.  A recorded state with a non-finite value raises
    FloatingPointError, so no run returns one.
    """
    dt, n_steps = resolve_dt(config)
    grid = config.grid

    state = sample_initial(config.initial, grid)
    recorded = [state]
    # map target times to the step index whose post-step time is nearest
    wanted: dict[int, None] = {}
    for t in config.snapshot_times:
        if t <= 0.0:
            continue
        wanted[min(n_steps, max(1, round(t / dt)))] = None
    wanted[n_steps] = None

    plan = step_plan(config.scheme, dt, grid)
    values, done = state.values, 0
    for f in sorted(wanted):
        values, done = plan.advance(values, done, f - done), f
        if not np.isfinite(values).all():
            raise FloatingPointError(f"the state after step {f} of {n_steps} is not finite")
        recorded.append(FieldState(grid=grid, values=values, time=dt * f, step_index=f))
    return SnapshotSeries(config=config, dt=dt, snapshots=tuple(recorded))


def _window_mask(x_window: tuple[float, float], xs: np.ndarray) -> np.ndarray:
    """The nodes ``xs`` inside x_window = (lo, hi).  Raises ConfigInvalid
    unless lo < hi are finite and at least one node lies inside."""
    lo, hi = x_window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigInvalid(f"x_window must be finite with lo < hi, got {x_window}")
    mask = (xs >= lo) & (xs <= hi)
    if not np.any(mask):
        raise ConfigInvalid(f"x_window {x_window} holds no node of the grid")
    return mask


def snapshot_error(
    series: SnapshotSeries,
    oracle: Callable[[np.ndarray, float], np.ndarray],
    time: float,
    norm: str = "l2rel",
    x_window: tuple[float, float] | None = None,
) -> float:
    """Discrete norm of (numeric - oracle) at the snapshot nearest ``time``.

    ``oracle(x, t)`` evaluates the reference solution on node coordinates.
    ``l2rel`` divides by the oracle norm; ``linf`` is the max abs error.
    ``x_window`` restricts the comparison to nodes inside [lo, hi]; a
    window that holds no node, or with ``l2rel`` one where the oracle is
    zero on every node, raises ConfigInvalid.
    """
    state = series.nearest(time)
    xs = state.grid.nodes()
    numeric = state.values
    if x_window is not None:
        mask = _window_mask(x_window, xs)
        xs, numeric = xs[mask], numeric[mask]
    reference = np.asarray(oracle(xs, state.time), dtype=float)
    diff = numeric - reference
    if norm == "l2rel":
        ref_norm = float(np.sqrt(np.sum(reference**2)))
        if ref_norm == 0.0:
            where = "the grid" if x_window is None else f"x_window {x_window}"
            raise ConfigInvalid(
                f"the oracle is zero on every node of {where} at t = {state.time}; "
                "l2rel has no scale there (use norm='linf' or another window)"
            )
        return float(np.sqrt(np.sum(diff**2))) / ref_norm
    if norm == "linf":
        return float(np.max(np.abs(diff)))
    raise ValueError(f"unknown norm {norm!r}; expected 'l2rel' or 'linf'")
