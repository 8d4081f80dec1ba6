"""Solvers for the implicit step.

The interior system of an implicit step is Toeplitz.  ``toeplitz_factor``
factors it once per run and returns an immutable factorization whose
``solve`` is called every step:

- a tridiagonal matrix (every entry past the first off-diagonals is zero,
  as at alpha = 2) is factored by LAPACK ``gttrf`` and solved by ``gttrs``
  in O(N) work;
- any other Toeplitz matrix is inverted in Gohberg-Semencul form.  Its
  two generators, the first and last columns of the inverse, come from
  one GMRES solve of the pair, preconditioned by Strang's circulant (G.
  Strang, Stud. Appl. Math. 74, 1986) at a fast FFT length p >= n: an
  iteration is one FFT product with T and one circulant solve for both,
  O(N log N) work in O(N) memory, and the implicit systems need a few.
  A solve is then four FFT calls, also O(N log N).

Both factorizations are frozen and hold only their factors, so one may
serve any number of threads at once.  ``solve`` puts its intermediates
into the arrays of ``work_arrays`` and its result into ``out``; a caller
that solves many times, as ``StepPlan.advance`` does, allocates them once
per call and passes them to every solve, which then allocates nothing.
Without them a solve allocates its own, so the arrays are never shared
between callers.

The dense LU (``lu_factor``/``lu_solve``, partial row pivoting, LAPACK
``getrf``/``getrs``) solves the dense reference system of
``schemes.assemble_system`` in the tests and ``verify``; the solver itself
does not call it, and the package does not export it at the top level.
A factorization holds only its factors: ``lu_solve`` reads the size
from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft
# the transforms that scipy.fft.rfft and irfft run, called without their
# dispatch and argument checks (about a third of a solve at N = 1000) and
# with an output array; the solve tests pin them to scipy.fft bit for bit
from scipy.fft._pocketfft.pypocketfft import c2r as _c2r, r2c as _r2c
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import SingularMatrix, ValidationError

PIVOT_FLOOR = 1e-300
# normwise backward error ||T g - e|| / (||T|| ||g|| + 1), infinity norms,
# allowed for the two Gohberg-Semencul generators g; the GMRES generators
# of the implicit systems (alpha = 1.5, theta = 0.3 on [-10, 10]) measured
# at most 9.6e-17 at N = 1000, 2.3e-16 at N = 4096 and 2.7e-16 at
# N = 16384, Levinson's recursion 2.7e-15, 4.8e-15 and 5.6e-15
GENERATOR_BACKWARD_ERROR = 1e-10
# GMRES stops once the true residual of the stacked pair, in the 2-norm,
# is at most max(rtol sqrt(2), atol), as scipy checks it: rtol is
# GMRES_TOLERANCE scaled by ||(e_1; e_n)||_2 = sqrt(2), and atol is
# GMRES_TOLERANCE (||T||_inf max|C^-1 (e_1; e_n)| + 1), C the Strang
# circulant, with both of its norms infinity norms.  atol follows the
# floor that rounding leaves, which scales with ||T|| (6e-14 for a lower
# triangular T with ||T||_inf = 1130).  It restarts every GMRES_RESTART
# iterations, each keeping a vector of 2 (N - 1) floats, and gives up after
# the cycles that fit in GMRES_MAX_ITERATIONS; the pair took 3 to 6 at alpha
# 0.7 to 1.9 on [-10, 10] up to N = 2**17, at most 13 at 10**4 x the bound
GMRES_TOLERANCE = 1e-14
GMRES_RESTART = 16
GMRES_MAX_ITERATIONS = 150
# Strang's circulant is taken at next_fast_len(n + n // _STRANG_MARGIN): at
# p = n the pair took up to 9 iterations, against 5 (N = 16384, alpha = 1.9)
_STRANG_MARGIN = 16
# scipy's gttrf wrapper rejects systems of fewer than three rows
_GTTRF_MIN_ROWS = 3
# the normalizations that scipy.fft.rfft and irfft pass to pocketfft's
# r2c and c2r: none forward, 1/m inverse
_FORWARD, _INVERSE = 0, 2


@dataclass(frozen=True)
class LUFactorization:
    """PA = LU factors in LAPACK's packed layout; immutable and reusable."""

    lu: np.ndarray
    piv: np.ndarray


def lu_factor(matrix: np.ndarray) -> LUFactorization:
    """Factor a square matrix with partial pivoting.

    Raises SingularMatrix when any pivot magnitude falls below 1e-300.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    getrf, = get_lapack_funcs(("getrf",), (a,))
    lu, piv, info = getrf(a)
    if info < 0:
        raise ValueError(f"illegal argument {-info} in LU factorization")
    if info > 0 or np.min(np.abs(np.diag(lu))) < PIVOT_FLOOR:
        raise SingularMatrix("pivot below 1e-300; matrix is singular to working precision")
    _frozen(lu, piv)
    return LUFactorization(lu=lu, piv=piv)


def lu_solve(fact: LUFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs using a previous factorization of A."""
    b = _rhs(rhs, len(fact.lu))
    getrs, = get_lapack_funcs(("getrs",), (fact.lu,))
    x, info = getrs(fact.lu, fact.piv, b)
    if info != 0:
        raise ValueError(f"LAPACK getrs failed with info={info}")
    return x


def _rhs(rhs, n: int) -> np.ndarray:
    b = np.asarray(rhs, dtype=float)
    if b.shape != (n,):
        raise ValidationError(f"rhs has shape {b.shape}, expected ({n},)")
    return b


def _written(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return x
    out[...] = x
    return out


def _frozen(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class TridiagonalFactorization:
    """LAPACK gttrf factors (partial pivoting) of a tridiagonal matrix.

    Systems of fewer than three rows are padded with a decoupled identity
    block to the three rows LAPACK's wrapper needs.
    """

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray
    n: int

    def work_arrays(self) -> tuple[np.ndarray]:
        """The right-hand side that gttrs overwrites, zero in its padding rows."""
        return (np.zeros(len(self.d)),)

    def solve(
        self, rhs: np.ndarray, out: np.ndarray | None = None, work: tuple | None = None
    ) -> np.ndarray:
        """x with T x = rhs, written into ``out`` when given."""
        b = _rhs(rhs, self.n)
        (padded,) = self.work_arrays() if work is None else work
        padded[: self.n] = b  # the padding rows solve to zero and stay zero
        gttrs, = get_lapack_funcs(("gttrs",), (self.d,))
        x, info = gttrs(self.dl, self.d, self.du, self.du2, self.ipiv, padded, overwrite_b=True)
        if info != 0:
            raise ValueError(f"LAPACK gttrs failed with info={info}")
        return _written(x[: self.n], out)


@dataclass(frozen=True)
class ToeplitzFactorization:
    """Gohberg-Semencul form of the inverse of an n x n Toeplitz matrix T.

    With the generators x = T^-1 e_1 and y = T^-1 e_n,

        x_0 T^-1 b = L(x) U(Jy) b - L(Zy) U(ZJx) b,

    L(v) lower and U(v) upper triangular Toeplitz with first column
    (first row) v, J the reversal and Z the down shift.  Each triangular
    product is a slice of a linear convolution, taken by FFT at length
    ``size`` >= 2n - 1: L(v) b is entries 0..n-1 of v * b and U(v) b
    entries n-1..2n-2 of Jv * b.  ``upper`` holds the spectra of J(Jy) = y
    and J(ZJx), ``lower`` those of x / x_0 and -Zy / x_0, so a solve is
    one forward and one inverse transform of two rows each, and one of
    each of a single row.  ``iterations`` is the GMRES iteration count of
    the one solve that gave x and y together.

    Every transform reads an input already zero-padded to ``size`` and
    writes into an array of ``work_arrays``, and so do the spectral
    products: a solve handed those arrays allocates nothing.
    """

    lower: np.ndarray
    upper: np.ndarray
    size: int
    n: int
    iterations: int

    def work_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The zero-padded transform inputs, the inverse transforms' outputs
        and two pairs of spectra rows."""
        m, k = self.size, self.size // 2 + 1
        return np.zeros((2, m)), np.empty((2, m)), np.empty((2, k), complex), np.empty((2, k), complex)

    def solve(
        self, rhs: np.ndarray, out: np.ndarray | None = None, work: tuple | None = None
    ) -> np.ndarray:
        """x with T x = rhs, written into ``out`` when given."""
        b = _rhs(rhs, self.n)
        n, m = self.n, self.size
        padded, inverse, spectra, products = self.work_arrays() if work is None else work
        padded[0, :n] = b
        _r2c(padded[0], (0,), True, _FORWARD, products[0], 1)
        np.multiply(self.upper, products[0], out=spectra)
        _c2r(spectra, (1,), m, False, _INVERSE, inverse, 1)
        padded[:, :n] = inverse[:, n - 1 : 2 * n - 1]
        _r2c(padded, (1,), True, _FORWARD, products, 1)
        np.multiply(self.lower[0], products[0], out=products[0])
        np.multiply(self.lower[1], products[1], out=products[1])
        np.add(products[0], products[1], out=products[0])
        _c2r(products[0], (0,), m, False, _INVERSE, inverse[0], 1)
        return _written(inverse[0, :n], out)


def toeplitz_factor(
    first_col: np.ndarray, first_row: np.ndarray
) -> TridiagonalFactorization | ToeplitzFactorization:
    """Factor the Toeplitz matrix T[i, j] = first_col[i - j] (i >= j),
    first_row[j - i] (j >= i), once for many solves.

    A tridiagonal T, read from its zero entries, gets the O(N) LAPACK
    factorization: it keeps the elimination of the dense LU, where the
    FFT products would put rounding noise on every node.  Any other T is
    inverted in Gohberg-Semencul form, with generators from
    Strang-preconditioned GMRES; that needs T and its Strang circulant
    nonsingular, not every leading principal submatrix.

    Raises ValueError for non-finite entries and ValidationError for
    inputs of unequal or zero length or with different corner entries.
    Raises SingularMatrix when a pivot falls below 1e-300, when a Strang
    eigenvalue has modulus at most 1e-300, when GMRES does not converge in
    the restart cycles that fit in GMRES_MAX_ITERATIONS, when |x_0| is
    below 1e-300, or when the generators' normwise backward error, checked
    once with the FFT product, exceeds GENERATOR_BACKWARD_ERROR (1e-10).
    """
    c = np.asarray(first_col, dtype=float)
    r = np.asarray(first_row, dtype=float)
    if c.ndim != 1 or c.shape != r.shape or c.size == 0:
        raise ValidationError(
            f"first column and row must be nonempty vectors of one length, "
            f"got shapes {c.shape} and {r.shape}"
        )
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(r))):
        raise ValueError("Toeplitz matrix contains non-finite entries")
    if c[0] != r[0]:
        raise ValidationError(f"first column starts with {c[0]}, first row with {r[0]}")
    if not (np.any(c[2:]) or np.any(r[2:])):
        return _tridiagonal_factor(c, r)
    return _gohberg_semencul(c, r)


def _tridiagonal_factor(c: np.ndarray, r: np.ndarray) -> TridiagonalFactorization:
    n = len(c)
    pad = max(0, _GTTRF_MIN_ROWS - n)
    sub, sup = (c[1], r[1]) if n > 1 else (0.0, 0.0)
    d = np.concatenate((np.full(n, c[0]), np.ones(pad)))
    dl = np.concatenate((np.full(n - 1, sub), np.zeros(pad)))
    du = np.concatenate((np.full(n - 1, sup), np.zeros(pad)))
    gttrf, = get_lapack_funcs(("gttrf",), (d,))
    dl, d, du, du2, ipiv, info = gttrf(dl, d, du)
    if info < 0:
        raise ValueError(f"illegal argument {-info} in tridiagonal factorization")
    if info > 0 or np.min(np.abs(d)) < PIVOT_FLOOR:
        raise SingularMatrix("pivot below 1e-300; matrix is singular to working precision")
    _frozen(dl, d, du, du2, ipiv)
    return TridiagonalFactorization(dl=dl, d=d, du=du, du2=du2, ipiv=ipiv, n=n)


def _strang_eigenvalues(c: np.ndarray, r: np.ndarray, p: int) -> np.ndarray:
    """Eigenvalues lambda_0..lambda_{p//2} of the p x p Strang circulant of
    the n x n Toeplitz matrix with first column c and first row r,
    n <= p <= 2n - 1: the circulant whose first column is c_0..c_{p//2},
    then r_{p-p//2-1}..r_1.  The rest are their conjugates."""
    return fft.rfft(np.concatenate((c[: p // 2 + 1], r[1 : p - p // 2][::-1])))


def _generators(c: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """x = T^-1 e_1 and y = T^-1 e_n by one GMRES solve of the stacked pair
    (both blocks are T, so one Krylov polynomial serves both), and its
    iteration count; checked for their backward error.  The preconditioner
    is the p x p Strang circulant C_p, p >= n, applied as (C_p^-1 [v; 0])[:n]."""
    n = len(c)
    m = fft.next_fast_len(2 * n - 1, real=True)
    # T g = entries n-1..2n-2 of (r_{n-1}..r_1, c_0..c_{n-1}) * g, per half g
    kernel = fft.rfft(np.concatenate((r[:0:-1], c)), m)

    def product(g: np.ndarray) -> np.ndarray:
        return fft.irfft(kernel * fft.rfft(g.reshape(2, n), m), m)[:, n - 1 : 2 * n - 1].ravel()

    p = fft.next_fast_len(n + n // _STRANG_MARGIN, real=True)
    eigenvalues = _strang_eigenvalues(c, r, p)
    if np.min(np.abs(eigenvalues)) <= PIVOT_FLOOR:
        raise SingularMatrix("Strang circulant is singular to working precision")

    def precondition(v: np.ndarray) -> np.ndarray:
        return fft.irfft(fft.rfft(v.reshape(2, n), p) / eigenvalues, p)[:, :n].ravel()

    operator = LinearOperator((2 * n, 2 * n), matvec=product, dtype=float)
    preconditioner = LinearOperator((2 * n, 2 * n), matvec=precondition, dtype=float)
    norm = np.sum(np.abs(c)) + np.sum(np.abs(r[1:]))
    units = np.zeros(2 * n)  # (e_1; e_n)
    units[0] = units[-1] = 1.0
    residuals: list[float] = []
    cycles = GMRES_MAX_ITERATIONS // GMRES_RESTART
    solved, info = gmres(
        operator,
        units,
        rtol=GMRES_TOLERANCE,
        atol=GMRES_TOLERANCE * (norm * np.max(np.abs(precondition(units))) + 1.0),
        restart=GMRES_RESTART,
        maxiter=cycles,
        M=preconditioner,
        callback=residuals.append,
        callback_type="pr_norm",
    )
    if info != 0:
        raise SingularMatrix(f"GMRES did not converge in {cycles * GMRES_RESTART} iterations")
    error = np.max(np.abs(product(solved) - units)) / (norm * np.max(np.abs(solved)) + 1.0)
    if not error <= GENERATOR_BACKWARD_ERROR:
        raise SingularMatrix(
            f"Toeplitz generators have backward error {error:.1e} above "
            f"{GENERATOR_BACKWARD_ERROR:.0e}; the matrix is near singular"
        )
    x, y = solved.reshape(2, n)
    return x, y, len(residuals)


def _gohberg_semencul(c: np.ndarray, r: np.ndarray) -> ToeplitzFactorization:
    x, y, iterations = _generators(c, r)
    if abs(x[0]) < PIVOT_FLOOR:
        raise SingularMatrix("|x_0| below 1e-300; matrix is singular to working precision")
    n = len(c)
    m = fft.next_fast_len(2 * n - 1, real=True)
    shifted_y = np.concatenate(([0.0], y[:-1]))  # Zy
    lower = fft.rfft(np.stack((x, -shifted_y)) / x[0], m)
    # reversed first rows of U(Jy) and U(ZJx): y and (x_1, ..., x_{n-1}, 0)
    upper = fft.rfft(np.stack((y, np.concatenate((x[1:], [0.0])))), m)
    _frozen(lower, upper)
    return ToeplitzFactorization(lower=lower, upper=upper, size=m, n=n, iterations=iterations)
