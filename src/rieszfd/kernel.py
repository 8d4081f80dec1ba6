"""Closed-form discretization data for the Riesz-Feller operator.

The skewed space-fractional derivative of order ``alpha`` (0 < alpha <= 2,
alpha != 1) and skewness ``theta`` is discretized on a uniform grid as

    D u(x_i)  ~=  h**(-alpha) * sum_k  u(x_{i+k}) * w_k(alpha, theta)

with dimensionless stencil weights ``w_k`` that decay like ``|k|**(-1-alpha)``.
This module provides the parameter validation, the left/right trigonometric
splitting coefficients, the weights themselves, and closed-form sums of all
weights beyond a cutoff index (used to fold Dirichlet boundary values into
interior nodes on a bounded domain).

Two formula branches exist: ``alpha < 1`` blends one-sided and central
first-derivative stencils with weight ``lambda1 = alpha - |theta|``, and
``alpha > 1`` blends central and four-point one-sided second-derivative
stencils with ``lambda2 = 2 - (alpha + |theta|)``.  Both produce finite
weights as ``alpha -> 1``, which is the point of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphaNearOne,
    OutOfRangeAlpha,
    SkewnessTooLarge,
    WindowTooSmall,
)

DEFAULT_ALPHA_ONE_GUARD = 1e-6


@dataclass(frozen=True)
class FractionalParams:
    """Validated operator order and skewness.

    Requires 0 < alpha <= 2, |alpha - 1| >= alpha_one_guard and
    |theta| <= min(alpha, 2 - alpha).  Construction fails loudly on
    violation; nothing is clamped.
    """

    alpha: float
    theta: float
    alpha_one_guard: float = DEFAULT_ALPHA_ONE_GUARD

    def __post_init__(self):
        a, t = float(self.alpha), float(self.theta)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "theta", t)
        if not math.isfinite(a) or a <= 0.0 or a > 2.0:
            raise OutOfRangeAlpha(f"alpha must lie in (0, 2], got {a}")
        if abs(a - 1.0) < self.alpha_one_guard:
            raise AlphaNearOne(
                f"alpha={a} is within {self.alpha_one_guard} of the excluded "
                f"value 1; pass e.g. alpha=1-1e-3 explicitly for near-1 behaviour"
            )
        limit = min(a, 2.0 - a)
        # the bound is a closed interval: extreme pairs like (1.6, -0.4) must
        # pass even though 2 - 1.6 rounds below 0.4
        if not math.isfinite(t) or abs(t) > limit + 1e-12:
            raise SkewnessTooLarge(
                f"|theta|={abs(t)} exceeds min(alpha, 2-alpha)={limit}"
            )

    @property
    def sub_one(self) -> bool:
        """True on the alpha < 1 branch."""
        return self.alpha < 1.0


def validate_params(
    alpha: float, theta: float, alpha_one_guard: float = DEFAULT_ALPHA_ONE_GUARD
) -> FractionalParams:
    """Validate (alpha, theta) and return the parameter object.

    Raises OutOfRangeAlpha, AlphaNearOne or SkewnessTooLarge.
    """
    return FractionalParams(alpha, theta, alpha_one_guard)


@dataclass(frozen=True)
class RfCoefficients:
    """Left/right splitting coefficients and the branch blend weight.

    ``lambda1`` is set on the alpha < 1 branch, ``lambda2`` on alpha > 1;
    the unused one is None.
    """

    c_left: float
    c_right: float
    lambda1: float | None
    lambda2: float | None


def rf_coefficients(params: FractionalParams) -> RfCoefficients:
    """Splitting coefficients c_L, c_R and the stencil blend weight.

    c_L = sin((alpha-theta)*pi/2) / sin(alpha*pi) and symmetrically for
    c_R.  At alpha = 2 the quotient is 0/0; the analytic limit
    c_L = c_R = -1/2 is returned instead of evaluating the formula.
    """
    a, t = params.alpha, params.theta
    if a == 2.0:
        c_left = c_right = -0.5
    else:
        denom = math.sin(a * math.pi)
        c_left = math.sin((a - t) * math.pi / 2.0) / denom
        c_right = math.sin((a + t) * math.pi / 2.0) / denom
    # the blend weight lies in [0, 1] for every valid pair; rounding at the
    # extreme-skew boundary can spill out by ~1 ulp, so clamp it back
    if params.sub_one:
        lam = min(1.0, max(0.0, a - abs(t)))
        return RfCoefficients(c_left, c_right, lam, None)
    lam = min(1.0, max(0.0, 2.0 - (a + abs(t))))
    return RfCoefficients(c_left, c_right, None, lam)


def _pow0(base: float, expo: float) -> float:
    """base**expo with the convention 0**p = 0 for every p >= 0.

    The defining cell integrals vanish on empty cells, so index-zero terms
    drop out even when the exponent itself is zero (alpha = 2).
    """
    return 0.0 if base == 0.0 else base**expo


def _sub_one_weight(k: int, a: float, lam: float, cl: float, cr: float) -> float:
    # five-case table for 0 < alpha < 1; b = 1 - alpha
    b = 1.0 - a
    pref = -1.0 / (2.0 * math.gamma(2.0 - a))
    if k <= -2:
        q = float(abs(k))
        expr = (
            (q + 2.0) ** b * lam
            + (q + 1.0) ** b * (2.0 - 3.0 * lam)
            + q**b * (3.0 * lam - 4.0)
            + (q - 1.0) ** b * (2.0 - lam)
        ) * cl
    elif k == -1:
        expr = (3.0**b * lam + 2.0**b * (2.0 - 3.0 * lam) + 3.0 * lam - 4.0) * cl + lam * cr
    elif k == 0:
        expr = (2.0**b * lam - 3.0 * lam + 2.0) * (cl + cr)
    elif k == 1:
        expr = (3.0**b * lam + 2.0**b * (2.0 - 3.0 * lam) + 3.0 * lam - 4.0) * cr + lam * cl
    else:
        q = float(k)
        expr = (
            (q + 2.0) ** b * lam
            + (q + 1.0) ** b * (2.0 - 3.0 * lam)
            + q**b * (3.0 * lam - 4.0)
            + (q - 1.0) ** b * (2.0 - lam)
        ) * cr
    return pref * expr


def _super_one_weight(k: int, a: float, lam: float, cl: float, cr: float) -> float:
    # five-case table for 1 < alpha <= 2; b = 2 - alpha
    b = 2.0 - a
    pref = -1.0 / (2.0 * math.gamma(3.0 - a))
    if k <= -2:
        q = float(abs(k))
        expr = (
            (q + 2.0) ** b * (2.0 - lam)
            + (q + 1.0) ** b * (4.0 * lam - 6.0)
            + q**b * (6.0 - 6.0 * lam)
            + (q - 1.0) ** b * (4.0 * lam - 2.0)
            + _pow0(q - 2.0, b) * (-lam)
        ) * cl
    elif k == -1:
        expr = (
            3.0**b * (2.0 - lam) + 2.0**b * (4.0 * lam - 6.0) - 6.0 * lam + 6.0
        ) * cl + (2.0 - lam) * cr
    elif k == 0:
        expr = (2.0**b * (2.0 - lam) + 4.0 * lam - 6.0) * (cl + cr)
    elif k == 1:
        expr = (
            3.0**b * (2.0 - lam) + 2.0**b * (4.0 * lam - 6.0) - 6.0 * lam + 6.0
        ) * cr + (2.0 - lam) * cl
    else:
        q = float(k)
        expr = (
            (q + 2.0) ** b * (2.0 - lam)
            + (q + 1.0) ** b * (4.0 * lam - 6.0)
            + q**b * (6.0 - 6.0 * lam)
            + (q - 1.0) ** b * (4.0 * lam - 2.0)
            + _pow0(q - 2.0, b) * (-lam)
        ) * cr
    return pref * expr


def weight(k: int, params: FractionalParams) -> float:
    """Dimensionless stencil weight w_k (scale by h**-alpha on application)."""
    c = rf_coefficients(params)
    if params.sub_one:
        return _sub_one_weight(int(k), params.alpha, c.lambda1, c.c_left, c.c_right)
    return _super_one_weight(int(k), params.alpha, c.lambda2, c.c_left, c.c_right)


@dataclass(frozen=True)
class WeightTable:
    """Dense stencil weights over the index window [k_min, k_max].

    ``weights[j]`` holds w_{k_min + j}.  Instances are immutable; the
    derived application matrix for a given grid size is memoized because
    it is reused on every time step.
    """

    params: FractionalParams
    k_min: int
    k_max: int
    weights: np.ndarray
    _matrix_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def weight(self, k: int) -> float:
        if not self.k_min <= k <= self.k_max:
            raise WindowTooSmall(f"k={k} outside table window [{self.k_min}, {self.k_max}]")
        return float(self.weights[k - self.k_min])

    def application_matrix(self, n_cells: int) -> np.ndarray:
        """(N-1, N+1) matrix W with W[i-1, j] = w_{j-i} for interior rows i.

        Row i of the product W @ u is the windowed stencil sum
        sum_{k=-i}^{N-i} u_{i+k} w_k.  Requires the window to cover
        [-(N-1), N-1].
        """
        n = int(n_cells)
        cached = self._matrix_cache.get(n)
        if cached is not None:
            return cached
        if self.k_min > -(n - 1) or self.k_max < n - 1:
            raise WindowTooSmall(
                f"table window [{self.k_min}, {self.k_max}] does not cover "
                f"[{-(n - 1)}, {n - 1}] needed for n_cells={n}"
            )
        offsets = np.arange(n + 1)[None, :] - np.arange(1, n)[:, None] - self.k_min
        matrix = self.weights[offsets]
        matrix.setflags(write=False)
        self._matrix_cache[n] = matrix
        return matrix


def weight_table(params: FractionalParams, k_min: int, k_max: int) -> WeightTable:
    """Tabulate w_k for k_min <= k <= k_max (k_min <= 0 <= k_max)."""
    if k_min > 0 or k_max < 0:
        raise ValueError(f"window [{k_min}, {k_max}] must contain 0")
    values = np.array([weight(k, params) for k in range(k_min, k_max + 1)])
    values.setflags(write=False)
    return WeightTable(params, int(k_min), int(k_max), values)


def _tail_core(j: np.ndarray, params: FractionalParams) -> np.ndarray:
    """Shared radial factor of the one-sided tail sums (side coefficient excluded)."""
    a = params.alpha
    coeffs = rf_coefficients(params)
    if params.sub_one:
        lam = coeffs.lambda1
        b = 1.0 - a
        num = (
            (j + 2.0) ** b * lam
            + (j + 1.0) ** b * (2.0 - 2.0 * lam)
            + j**b * (lam - 2.0)
        )
        return num / (2.0 * math.gamma(2.0 - a))
    lam = coeffs.lambda2
    b = 2.0 - a
    jm1 = j - 1.0
    num = (
        (j + 2.0) ** b * (2.0 - lam)
        + (j + 1.0) ** b * (3.0 * lam - 4.0)
        + j**b * (2.0 - 3.0 * lam)
        + np.where(jm1 > 0.0, jm1, 1.0) ** b * np.where(jm1 > 0.0, lam, 0.0)
    )
    return num / (2.0 * math.gamma(3.0 - a))


@dataclass(frozen=True)
class TailSums:
    """Closed-form sums of all weights beyond a window edge.

    ``left(j)`` equals sum of w_k for k <= -j-1 and ``right(j)`` the sum
    for k >= j+1, both for j >= 1.  Nonnegative, nonincreasing in j, and
    identically zero at alpha = 2 where the stencil is compact.
    """

    params: FractionalParams
    _array_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def left(self, j):
        return self._eval(j, left_side=True)

    def right(self, j):
        return self._eval(j, left_side=False)

    def _eval(self, j, left_side: bool):
        jarr = np.asarray(j, dtype=float)
        if np.any(jarr < 1):
            raise ValueError("tail sums are defined for j >= 1 only")
        c = rf_coefficients(self.params)
        side = c.c_left if left_side else c.c_right
        out = side * _tail_core(jarr, self.params)
        if np.ndim(j) == 0:
            return float(out)
        return out

    def interior_arrays(self, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached (left(1..N-1), right(1..N-1)) vectors for an N-cell grid."""
        n = int(n_cells)
        cached = self._array_cache.get(n)
        if cached is None:
            js = np.arange(1, n)
            cached = (self.left(js), self.right(js))
            for arr in cached:
                arr.setflags(write=False)
            self._array_cache[n] = cached
        return cached

