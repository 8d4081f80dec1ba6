"""Independent cross-checks: analytic kernels, reconstruction oracles, studies.

The weight oracle rebuilds stencil weights from the defining
cell-integral decomposition term by term, away from ``kernel._law``; it
checks that law's term table, and ``verify`` runs it at 1e-12 ("closed-form
weights match reconstruction oracle").  The tail oracle reads the term
table from ``kernel._law`` and checks what is built on it: the closed-form
telescoped sums of ``kernel._tail_core`` and ``kernel._cumulative``,
against a direct sum of the law plus a midpoint-rule integral for the
truncation.  The stability bound is re-derived through its per-branch
expression.  ``p_coefficient`` scales the closed-form weights into the
explicit update coefficients whose sum the identity checks test.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, NonpositiveTime
from .kernel import FractionalParams, _law, rf_coefficients, weight
from .schemes import SchemeConfig
from .simulate import SimulationConfig, run, snapshot_error

GAUSS = "gauss_alpha2"
CAUCHY = "cauchy_alpha1"


@dataclass(frozen=True)
class AnalyticKernel:
    """Fundamental solution for the two classical limits.

    gauss_alpha2:  (4 pi K t)**-1/2 * exp(-x**2 / (4 K t))
    cauchy_alpha1: (1/pi) * K t / ((K t)**2 + x**2)

    Both integrate to one over the real line for every t > 0.
    """

    kind: str
    k_alpha: float = 1.0

    def __call__(self, x, t: float):
        """Evaluate the kernel at positions x (scalar or array) and time t > 0."""
        if not t > 0.0:
            raise NonpositiveTime(f"kernel defined for t > 0, got t={t}")
        x = np.asarray(x, dtype=float)
        kt = self.k_alpha * t
        if self.kind == GAUSS:
            out = np.exp(-(x**2) / (4.0 * kt)) / math.sqrt(4.0 * math.pi * kt)
        elif self.kind == CAUCHY:
            out = kt / (math.pi * (kt**2 + x**2))
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if np.ndim(out) == 0:
            return float(out)
        return out


def weight_oracle(k: int, params: FractionalParams) -> float:
    """Stencil weight rebuilt from the derivation rather than the case table.

    For each cell index m >= 0 the kernel integral v_m (unit spacing) is
    distributed over the blended difference stencils of the left- and
    right-sided sums; the contributions landing on offset k are
    accumulated.  Only finitely many m reach a given k, so looping to
    |k| + 3 collects the coefficient exactly.
    """
    k = int(k)
    c = rf_coefficients(params)
    lam = c.lam
    a = params.alpha
    acc = 0.0

    def cell_integral(m, b, g):
        # empty cells integrate to zero, so the m = 0 lower power drops out
        # even when the exponent is zero (alpha = 2)
        low = 0.0 if m == 0 else float(m) ** b
        return ((m + 1.0) ** b - low) / g

    if params.sub_one:
        g = math.gamma(2.0 - a)
        b = 1.0 - a
        for m in range(abs(k) + 4):
            v = cell_integral(m, b, g)
            # left-sided sum: first-derivative stencil at nodes i-m+1, i-m, i-m-1
            for offset, coeff in ((1 - m, lam), (-m, 2.0 * (1.0 - lam)), (-m - 1, lam - 2.0)):
                if offset == k:
                    acc -= 0.5 * c.c_left * coeff * v
            # right-sided sum enters with the opposite sign (odd derivative order)
            for offset, coeff in ((m + 1, 2.0 - lam), (m, 2.0 * (lam - 1.0)), (m - 1, -lam)):
                if offset == k:
                    acc += 0.5 * c.c_right * coeff * v
    else:
        g = math.gamma(3.0 - a)
        b = 2.0 - a
        for m in range(abs(k) + 4):
            v = cell_integral(m, b, g)
            # second-derivative stencils; both sums carry the same sign
            for offset, coeff in (
                (1 - m, 2.0 - lam),
                (-m, 3.0 * lam - 4.0),
                (-m - 1, 2.0 - 3.0 * lam),
                (-m - 2, lam),
            ):
                if offset == k:
                    acc -= 0.5 * c.c_left * coeff * v
            for offset, coeff in (
                (m + 2, lam),
                (m + 1, 2.0 - 3.0 * lam),
                (m, 3.0 * lam - 4.0),
                (m - 1, 2.0 - lam),
            ):
                if offset == k:
                    acc -= 0.5 * c.c_right * coeff * v
    return acc


def _outer_weights(ks: np.ndarray, params: FractionalParams, side: float) -> np.ndarray:
    # sum_i c_i (k+d_i)**b == k**b * sum_i c_i * expm1(b*log1p(d_i/k)): the
    # rearrangement avoids cancellation of O(k**b) powers at large k
    _, b, pref, _, terms = _law(params)
    k = np.asarray(ks, dtype=float)
    if b == 0.0:
        # alpha = 2: the stencil is compact, every outer weight vanishes
        return np.zeros_like(k)
    acc = np.zeros_like(k)
    with np.errstate(divide="ignore"):
        for d, coeff in terms:
            acc += coeff * np.expm1(b * np.log1p(d / k))
    return pref * side * k**b * acc


def _remainder_integral(edge: float, params: FractionalParams, side: float) -> float:
    # midpoint rule: sum_{k > cutoff} w_k ~= integral of the weight law from
    # cutoff + 1/2 to infinity, which the power antiderivative gives in closed
    # form; the error is two orders beyond the leading tail term
    _, b, pref, _, terms = _law(params)
    if b == 0.0:
        return 0.0
    bb = b + 1.0
    acc = 0.0
    for d, coeff in terms:
        acc += coeff * math.expm1(bb * math.log1p(d / edge))
    return -pref * side * edge**bb * acc / bb


def tail_oracle(
    j: int, params: FractionalParams, cutoff: int = 10**6, side: str = "right"
) -> float:
    """Partial-summation estimate of the tail sum beyond index j.

    Sums the weight law for j+1 <= k <= cutoff and adds a midpoint-rule
    integral for the truncated remainder.  Accurate to well below 1e-8
    for cutoff >= 1e5 across the valid parameter range.
    """
    if j < 1:
        raise ValueError(f"tail sums are defined for j >= 1, got j={j}")
    if cutoff < j + 2:
        raise ValueError(f"cutoff {cutoff} must be >= j+2 = {j + 2}")
    c = rf_coefficients(params)
    side_coeff = {"right": c.c_right, "left": c.c_left}[side]
    total = 0.0
    chunk = 2_500_000
    for lo in range(j + 1, cutoff + 1, chunk):
        hi = min(lo + chunk - 1, cutoff)
        total += float(_outer_weights(np.arange(lo, hi + 1), params, side_coeff).sum())
    return total + _remainder_integral(cutoff + 0.5, params, side_coeff)


def stability_bound_split(params: FractionalParams, k_alpha: float, h: float) -> float:
    """Explicit step bound through the per-branch expression.

    Algebraically identical to -h**alpha / (k_alpha * w_0) but computed
    from the branch formula, so it cross-checks the w_0 code path.
    """
    c = rf_coefficients(params)
    a = params.alpha
    lead = 2.0 * h**a / (k_alpha * (c.c_left + c.c_right))
    lam = c.lam
    if params.sub_one:
        return lead * math.gamma(2.0 - a) / (2.0 ** (1.0 - a) * lam - 3.0 * lam + 2.0)
    return lead * math.gamma(3.0 - a) / (2.0 ** (2.0 - a) * (2.0 - lam) + 4.0 * lam - 6.0)


def p_coefficient(k: int, cfg: SchemeConfig, dt: float, h: float) -> float:
    """Explicit update coefficient: 1 + r*w_0 at k = 0, r*w_k otherwise,
    with r = k_alpha * dt / h**alpha."""
    r = cfg.k_alpha * dt / h**cfg.params.alpha
    w = weight(int(k), cfg.params)
    return 1.0 + r * w if k == 0 else r * w


def reference_kernel_for(params: FractionalParams, k_alpha: float) -> AnalyticKernel:
    """Analytic kernel applicable to a parameter choice, if any."""
    if params.alpha == 2.0:
        return AnalyticKernel(GAUSS, k_alpha)
    if abs(params.alpha - 1.0) <= 0.05 and params.theta == 0.0:
        return AnalyticKernel(CAUCHY, k_alpha)
    raise ConfigInvalid(
        f"no closed-form reference for alpha={params.alpha}, theta={params.theta}; "
        f"only alpha=2 and alpha near 1 (theta=0) are covered"
    )


def convergence_study(
    base_config: SimulationConfig,
    refinements: int,
    x_window: tuple[float, float] | None = None,
) -> list[tuple[float, float, float]]:
    """Grid-refinement error table [(h, dt, l2rel error), ...].

    Each refinement halves h (doubles the cell count) and re-resolves dt
    from the config's policy; errors are measured at t_end against the
    applicable analytic kernel.  Rates are reported, not asserted.  Raises
    ConfigInvalid, before any run, for a negative refinement count or a
    window that is not finite with lo < hi or holds no node of the base
    grid (every finer level holds every base node).
    """
    if refinements < 0:
        raise ConfigInvalid(f"refinements must be >= 0, got {refinements}")
    if x_window is not None:
        lo, hi = x_window
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigInvalid(f"x_window must be finite with lo < hi, got {x_window}")
        xs = base_config.grid.nodes()
        if not np.any((xs >= lo) & (xs <= hi)):
            raise ConfigInvalid(f"x_window {x_window} holds no node of the grid")
    scheme = base_config.scheme
    kernel = reference_kernel_for(scheme.params, scheme.k_alpha)
    rows = []
    for level in range(refinements + 1):
        grid = dataclasses.replace(base_config.grid, n_cells=base_config.grid.n_cells * 2**level)
        config = dataclasses.replace(base_config, grid=grid)
        series = run(config)
        err = snapshot_error(series, kernel, config.t_end, "l2rel", x_window)
        rows.append((grid.h, series.dt, err))
    return rows
