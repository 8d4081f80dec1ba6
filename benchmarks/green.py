"""Green's function of Riesz-Feller diffusion on the whole line.

The fundamental solution of dC/dt = K D_theta^alpha C with unit mass at
x = 0 is (Mainardi, Luchko & Pagnini 2001)

    g(x, t) = (1/pi) int_0^inf exp(-K t k^alpha cos(theta pi/2))
                               cos(k x + K t k^alpha sin(theta pi/2)) dk

evaluated here with adaptive quadrature.  At alpha = 2 it is the heat
kernel and at alpha = 1, theta = 0 the Cauchy density; both closed forms
are provided for the checks that need them.  This module imports nothing
from the solver, so it can judge the solver's output.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

# the integrand is dropped beyond the wavenumber where its envelope falls
# below exp(-_ENVELOPE_CUTOFF), far under double precision of the peak
_ENVELOPE_CUTOFF = 45.0


def green(x, t: float, alpha: float, theta: float, k_alpha: float = 1.0) -> np.ndarray:
    """g(x, t) at each position in ``x`` by adaptive quadrature."""
    if not t > 0.0:
        raise ValueError(f"the Green's function is defined for t > 0, got t={t}")
    kt = k_alpha * t
    damp = kt * math.cos(theta * math.pi / 2.0)
    drift = kt * math.sin(theta * math.pi / 2.0)
    if not damp > 0.0:
        raise ValueError(f"no decaying envelope for alpha={alpha}, theta={theta}")
    k_max = (_ENVELOPE_CUTOFF / damp) ** (1.0 / alpha)

    def integrand(k: float, xi: float) -> float:
        ka = k**alpha
        return math.exp(-damp * ka) * math.cos(k * xi + drift * ka)

    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    # quad flags roundoff on the strongly oscillating tails of far-out
    # nodes; the benchmark tests pin the result against both closed forms
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for i, xi in enumerate(xs):
            value, _ = quad(integrand, 0.0, k_max, args=(float(xi),), limit=1000, epsabs=1e-15, epsrel=1e-13)
            out[i] = value / math.pi
    return out


def heat_kernel(x, t: float, k_alpha: float = 1.0) -> np.ndarray:
    """g at alpha = 2: exp(-x^2 / (4 K t)) / sqrt(4 pi K t)."""
    kt = k_alpha * t
    x = np.asarray(x, dtype=float)
    return np.exp(-(x**2) / (4.0 * kt)) / math.sqrt(4.0 * math.pi * kt)


def cauchy_density(x, t: float, k_alpha: float = 1.0) -> np.ndarray:
    """g at alpha = 1, theta = 0: K t / (pi ((K t)^2 + x^2))."""
    kt = k_alpha * t
    x = np.asarray(x, dtype=float)
    return kt / (math.pi * (kt**2 + x**2))


def rel_l2(numeric, reference) -> float:
    """||numeric - reference||_2 / ||reference||_2 over matching nodes."""
    numeric = np.asarray(numeric, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.linalg.norm(numeric - reference) / np.linalg.norm(reference))
