"""Closed-form discretization data for the Riesz-Feller operator.

The skewed space-fractional derivative of order ``alpha`` (0 < alpha <= 2,
alpha != 1) and skewness ``theta`` is discretized on a uniform grid as

    D u(x_i)  ~=  h**(-alpha) * sum_k  u(x_{i+k}) * w_k(alpha, theta)

with dimensionless stencil weights ``w_k`` that decay like ``|k|**(-1-alpha)``.
This module provides the parameter validation, the left/right trigonometric
splitting coefficients c_L and c_R, the weights themselves with their
dense application matrix (the reference the step is tested against), and
closed-form sums of all weights beyond a cutoff index (used to fold
Dirichlet boundary values into interior nodes on a bounded domain).

Every weight follows one law per branch.  With L(q) = sum_d coeff_d *
(q + d)**b, powers of nonpositive bases taken as 0, and
pref = -1 / (2 Gamma(1 + b)):

    w_0 = pref * (c_L + c_R) * L(0)
    w_q = pref * (c_R * L(q) + [q = 1] * cross * c_L),  and w_{-q} mirrored

On ``alpha < 1`` (b = 1 - alpha) the terms blend one-sided and central
first-derivative stencils with the blend weight ``lam = alpha - |theta|``,
cross = lam; on ``alpha > 1`` (b = 2 - alpha) central and four-point
one-sided second-derivative stencils with ``lam = 2 - (alpha + |theta|)``,
cross = 2 - lam.  Both give finite weights as ``alpha -> 1``, which is
the point of the construction.  Each law's coefficients sum to zero, so a
tail sum over q >= j+1 telescopes to a few powers of j + d whose
coefficients are cumulative sums of the same terms.  ``_law`` is the one
statement of this term table; ``oracles.tail_oracle`` reads it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# the half-width of the band around the excluded order alpha = 1
ALPHA_ONE_GUARD = 1e-6


@dataclass(frozen=True)
class FractionalParams:
    """Validated operator order and skewness.

    Requires 0 < alpha <= 2, |alpha - 1| >= ``ALPHA_ONE_GUARD`` (1e-6)
    and |theta| <= min(alpha, 2 - alpha).  Construction raises
    ValidationError on violation; nothing is clamped.
    """

    alpha: float
    theta: float

    def __post_init__(self):
        a, t = float(self.alpha), float(self.theta)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "theta", t)
        if not math.isfinite(a) or a <= 0.0 or a > 2.0:
            raise ValidationError(f"alpha must lie in (0, 2], got {a}")
        if abs(a - 1.0) < ALPHA_ONE_GUARD:
            raise ValidationError(
                f"alpha={a} is within {ALPHA_ONE_GUARD} of the excluded "
                f"value 1; pass e.g. alpha=1-1e-3 explicitly for near-1 behaviour"
            )
        limit = min(a, 2.0 - a)
        # the bound is a closed interval: extreme pairs like (1.6, -0.4) must
        # pass even though 2 - 1.6 rounds below 0.4
        if not math.isfinite(t) or abs(t) > limit + 1e-12:
            raise ValidationError(
                f"|theta|={abs(t)} exceeds min(alpha, 2-alpha)={limit}"
            )

    @property
    def sub_one(self) -> bool:
        """True on the alpha < 1 branch."""
        return self.alpha < 1.0


def validate_params(alpha: float, theta: float) -> FractionalParams:
    """Validate (alpha, theta) and return the parameter object.

    Raises ValidationError naming the value that fails.
    """
    return FractionalParams(alpha, theta)


@dataclass(frozen=True)
class RfCoefficients:
    """Left/right splitting coefficients and the branch blend weight.

    ``lam`` is alpha - |theta| on the alpha < 1 branch and
    2 - (alpha + |theta|) on alpha > 1, clamped to [0, 1].
    """

    c_left: float
    c_right: float
    lam: float


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
    lam = a - abs(t) if params.sub_one else 2.0 - (a + abs(t))
    return RfCoefficients(c_left, c_right, min(1.0, max(0.0, lam)))


def _law(params: FractionalParams):
    """(coefficients, b, pref, cross, (shift, coeff) terms) of the branch's
    weight law; see the module docstring."""
    a = params.alpha
    c = rf_coefficients(params)
    lam = c.lam
    if params.sub_one:
        top, cross = 1.0, lam
        terms = ((2, lam), (1, 2.0 - 3.0 * lam), (0, 3.0 * lam - 4.0), (-1, 2.0 - lam))
    else:
        top, cross = 2.0, 2.0 - lam
        terms = ((2, 2.0 - lam), (1, 4.0 * lam - 6.0), (0, 6.0 - 6.0 * lam),
                 (-1, 4.0 * lam - 2.0), (-2, -lam))
    pref = -1.0 / (2.0 * math.gamma(top + 1.0 - a))
    return c, top - a, pref, cross, terms


def _cumulative(terms) -> list[tuple[int, float]]:
    """(e, C_e) for every shift e of the law but the smallest, C_e the sum
    of the coefficients of shift >= e.  The shifts are consecutive, and
    the smallest one's C_e, the sum of all coefficients, is zero in exact
    arithmetic."""
    out, cum = [], 0.0
    for shift, coeff in terms[:-1]:
        cum += coeff
        out.append((shift, cum))
    return out


def _powers(bases: np.ndarray, b: float) -> np.ndarray:
    """bases**b, and 0 where a base is nonpositive (also at b = 0, alpha = 2).

    The defining cell integrals vanish on empty cells.  ``float_power``
    calls the C library's pow like ``float ** float`` does, where
    ``power`` may take a SIMD path that differs in the last bit.
    """
    return np.float_power(bases, b, out=np.zeros_like(bases), where=bases > 0.0)


def _weights(ks: np.ndarray, params: FractionalParams) -> np.ndarray:
    """w_k for every integer offset in ``ks``, from the one law."""
    c, b, pref, cross, terms = _law(params)
    qi = np.abs(ks)
    # P(i) = i**b for i = min|k|-3..max|k|+2; diffs[j+e] = P(q+e) - P(q+e-1), j = q-min|k|+2
    powers = _powers(np.arange(qi.min() - 3.0, qi.max() + 3.0), b)
    diffs, j = powers[1:] - powers[:-1], qi - qi.min() + 2
    # L(q) = sum_e C_e (P(q+e) - P(q+e-1)): zero-sum whatever the rounding
    # of the coefficients, and each difference of two adjacent powers is
    # exact (Sterbenz), so no error grows like q**b
    law = sum(cum * diffs[j + shift] for shift, cum in _cumulative(terms))
    side = np.where(ks < 0, c.c_left, np.where(ks > 0, c.c_right, c.c_left + c.c_right))
    other = np.where(ks < 0, c.c_right, c.c_left)
    expr = law * side
    # the cross term goes only where it applies: adding 0.0 would turn -0.0 into 0.0
    return pref * np.where(qi == 1, expr + cross * other, expr)


def weight(k: int, params: FractionalParams) -> float:
    """Dimensionless stencil weight w_k (scale by h**-alpha), in O(1) at any offset k."""
    return float(_weights(np.array([int(k)]), params)[0])


@dataclass(frozen=True)
class WeightTable:
    """Stencil weights over the index window [k_min, k_max].

    ``weights[j]`` holds w_{k_min + j}, so the window ends at ``k_max`` =
    k_min + len(weights) - 1.  ``application_matrix`` builds the operator
    as a fresh dense matrix on each call, straight from the weights: the
    dense reference of ``schemes.rf_apply_bounded`` and
    ``schemes.assemble_system``.  The step reads no table:
    ``schemes.step_plan`` tabulates its own weights.  An offset outside
    the window raises ValidationError.
    """

    k_min: int
    weights: np.ndarray

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.weights) - 1

    def weight(self, k: int) -> float:
        if not self.k_min <= k <= self.k_max:
            raise ValidationError(f"k={k} outside table window [{self.k_min}, {self.k_max}]")
        return float(self.weights[k - self.k_min])

    def application_matrix(self, n_cells: int) -> np.ndarray:
        """(N-1, N+1) matrix W with W[i-1, j] = w_{j-i} for interior rows i.

        Row i of the product W @ u is the windowed stencil sum
        sum_{k=-i}^{N-i} u_{i+k} w_k.  Raises ValidationError unless the
        window covers [-(N-1), N-1].
        """
        n = int(n_cells)
        if self.k_min > -(n - 1) or self.k_max < n - 1:
            raise ValidationError(
                f"table window [{self.k_min}, {self.k_max}] does not cover "
                f"[{-(n - 1)}, {n - 1}] needed for n_cells={n}"
            )
        offsets = np.arange(n + 1)[None, :] - np.arange(1, n)[:, None] - self.k_min
        return self.weights[offsets]


def weight_table(params: FractionalParams, k_min: int, k_max: int) -> WeightTable:
    """Tabulate w_k for k_min <= k <= k_max (k_min <= 0 <= k_max)."""
    if k_min > 0 or k_max < 0:
        raise ValueError(f"window [{k_min}, {k_max}] must contain 0")
    values = _weights(np.arange(k_min, k_max + 1), params)
    values.setflags(write=False)
    return WeightTable(int(k_min), values)


def _tail_core(j: np.ndarray, params: FractionalParams) -> np.ndarray:
    """Shared radial factor of the one-sided tail sums (side coefficient excluded).

    The sum of L(q) over q >= j+1 is -sum_e C_e * (j+e)**b, C_e as in
    ``_cumulative``.
    """
    _, b, pref, _, terms = _law(params)
    acc = np.zeros_like(j)
    for shift, cum in _cumulative(terms):
        acc += cum * _powers(j + shift, b)
    return -pref * acc


@dataclass(frozen=True)
class TailSums:
    """Closed-form sums of all weights beyond a window edge.

    ``left(j)`` equals sum of w_k for k <= -j-1 and ``right(j)`` the sum
    for k >= j+1, both for j >= 1.  Nonnegative, nonincreasing in j, and
    identically zero at alpha = 2 where the stencil is compact.
    """

    params: FractionalParams

    def left(self, j):
        return self._sides(j)[0]

    def right(self, j):
        return self._sides(j)[1]

    def _sides(self, j):
        """(left(j), right(j)), one evaluation of the radial factor for both."""
        jarr = np.asarray(j, dtype=float)
        if np.any(jarr < 1):
            raise ValueError("tail sums are defined for j >= 1 only")
        c = rf_coefficients(self.params)
        core = _tail_core(jarr, self.params)
        if np.ndim(j) == 0:
            core = float(core)
        return c.c_left * core, c.c_right * core

    def interior_arrays(self, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
        """(left(1..N-1), right(1..N-1)) vectors for an N-cell grid."""
        return self._sides(np.arange(1, int(n_cells)))

