import numpy as np
import pytest
from scipy import fft
from scipy.linalg import matmul_toeplitz, solve_toeplitz, toeplitz

from rieszfd import (
    SingularMatrix,
    ValidationError,
    build_grid,
    validate_params,
    weight_table,
)
from rieszfd.linalg import (
    LUFactorization,
    ToeplitzFactorization,
    TridiagonalFactorization,
    _generators,
    lu_factor,
    lu_solve,
    toeplitz_factor,
)


def test_identity():
    fact = lu_factor(np.eye(5))
    b = np.arange(5.0)
    assert np.array_equal(lu_solve(fact, b), b)


def test_pivoting_handles_zero_leading_entry():
    fact = lu_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = lu_solve(fact, np.array([2.0, 3.0]))
    assert x.tolist() == [3.0, 2.0]


def test_rank_deficient_rejected():
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_hand_solved_system():
    fact = lu_factor(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = lu_solve(fact, np.array([3.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_random_diagonally_dominant_systems(rng):
    # construct-then-solve: recover a known solution across many sizes
    for trial in range(100):
        n = int(rng.integers(2, 201))
        a = rng.uniform(-1.0, 1.0, (n, n))
        a[np.arange(n), np.arange(n)] = np.sum(np.abs(a), axis=1) + 1.0
        x_true = rng.uniform(-1.0, 1.0, n)
        b = a @ x_true
        x = lu_solve(lu_factor(a), b)
        assert np.max(np.abs(x - x_true)) <= 1e-10
        residual = np.max(np.abs(a @ x - b))
        assert residual <= 1e-10 * (1.0 + np.max(np.abs(b)))


def test_deterministic():
    rng = np.random.default_rng(99)
    a = rng.uniform(-1, 1, (40, 40)) + 40 * np.eye(40)
    b = rng.uniform(-1, 1, 40)
    x1 = lu_solve(lu_factor(a.copy()), b.copy())
    x2 = lu_solve(lu_factor(a.copy()), b.copy())
    assert np.array_equal(x1, x2)


def test_input_validation():
    with pytest.raises(ValidationError, match=r"expected a square matrix, got shape \(2, 3\)"):
        lu_factor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        lu_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    fact = lu_factor(np.eye(3))
    with pytest.raises(ValidationError, match=r"rhs has shape \(4,\), expected \(3,\)"):
        lu_solve(fact, np.zeros(4))


def test_lu_solve_reads_the_size_from_the_factors():
    fact = lu_factor(np.array([[2.0, 1.0], [1.0, 3.0]]))
    rebuilt = LUFactorization(fact.lu, fact.piv)
    assert np.allclose(lu_solve(rebuilt, np.array([3.0, 4.0])), [1.0, 1.0], atol=1e-14)
    with pytest.raises(ValidationError, match=r"rhs has shape \(3,\), expected \(2,\)"):
        lu_solve(rebuilt, np.zeros(3))


def test_factorization_does_not_mutate_input():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    kept = a.copy()
    lu_factor(a)
    assert np.array_equal(a, kept)


def _dominant_toeplitz(rng, n, reach):
    # first column and row with entries up to `reach` off the diagonal
    c, r = np.zeros(n), np.zeros(n)
    c[1 : reach + 1] = rng.uniform(-1.0, 1.0, min(reach, n - 1))
    r[1 : reach + 1] = rng.uniform(-1.0, 1.0, min(reach, n - 1))
    c[0] = r[0] = np.sum(np.abs(c)) + np.sum(np.abs(r)) + 0.5
    return c, r


@pytest.mark.parametrize("reach, kind", [(1, TridiagonalFactorization), (50, ToeplitzFactorization)])
def test_toeplitz_solves_match_the_dense_solve(rng, reach, kind):
    for n in list(range(1, 8)) + [30, 100]:
        c, r = _dominant_toeplitz(rng, n, reach)
        fact = toeplitz_factor(c, r)
        assert isinstance(fact, kind if n > 2 else TridiagonalFactorization)
        b = rng.uniform(-1.0, 1.0, n)
        dense = toeplitz(c, r)
        x = fact.solve(b)
        assert np.max(np.abs(x - np.linalg.solve(dense, b))) <= 1e-13
        assert np.array_equal(fact.solve(b), x)


def test_toeplitz_input_validation():
    with pytest.raises(ValueError):
        toeplitz_factor(np.array([1.0, np.nan, 0.5]), np.array([1.0, 0.2, 0.1]))
    with pytest.raises(ValueError):
        toeplitz_factor(np.array([1.0, 0.1]), np.array([1.0, np.inf]))
    with pytest.raises(ValidationError, match=r"one length, got shapes \(3,\) and \(2,\)"):
        toeplitz_factor(np.array([2.0, 0.1, 0.1]), np.array([2.0, 0.1]))
    with pytest.raises(ValidationError, match="first column starts with 2.0, first row with 3.0"):
        toeplitz_factor(np.array([2.0, 0.1, 0.1]), np.array([3.0, 0.1, 0.1]))
    with pytest.raises(ValidationError, match=r"nonempty vectors .* shapes \(0,\) and \(0,\)"):
        toeplitz_factor(np.zeros(0), np.zeros(0))
    for c in (np.array([4.0, 1.0]), np.array([4.0, 1.0, 0.5])):
        n = len(c)
        with pytest.raises(ValidationError, match=rf"rhs has shape \({n + 1},\), expected \({n},\)"):
            toeplitz_factor(c, c).solve(np.zeros(n + 1))


@pytest.mark.parametrize("first_col, first_row", [
    ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]),
    ([1e-20, 1.0, 1.0], [1e-20, 1.0, 2.0]),
], ids=["zero-leading-minor", "tiny-leading-minor"])
def test_toeplitz_without_regular_leading_minors_is_solved(first_col, first_row):
    # both matrices have condition number 2.9; only a recursion over the
    # leading principal submatrices, such as Levinson's, breaks down on them
    c, r = np.array(first_col), np.array(first_row)
    b = np.array([0.3, -1.0, 2.0])
    x = toeplitz_factor(c, r).solve(b)
    assert np.max(np.abs(x - np.linalg.solve(toeplitz(c, r), b))) <= 1e-14


@pytest.mark.parametrize("first_col, first_row", [
    ([1.0, 1.0], [1.0, 1.0]),  # rank one, tridiagonal
    ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),  # rank one: the Strang circulant is singular too
])
def test_singular_toeplitz_rejected(first_col, first_row):
    with pytest.raises(SingularMatrix):
        toeplitz_factor(np.array(first_col), np.array(first_row))


def _implicit_system(n_cells, alpha=1.5, theta=0.3, sigma=0.5, dt=2.5e-4):
    # first column and row of T = I + (sigma - 1) K dt / h**alpha W on [-10, 10]
    h = build_grid(-10.0, 10.0, n_cells).h
    w = weight_table(validate_params(alpha, theta), -(n_cells - 1), n_cells - 1).weights
    ratio = (sigma - 1.0) * dt / h**alpha
    ks = np.arange(n_cells - 1)
    c, r = ratio * w[n_cells - 1 - ks], ratio * w[n_cells - 1 + ks]
    c[0] += 1.0
    r[0] += 1.0
    return c, r


def _check_generators(c, r):
    x, y, iterations = _generators(c, r)
    units = np.zeros((len(c), 2))
    units[0, 0] = units[-1, 1] = 1.0
    reference = solve_toeplitz((c, r), units).T
    assert np.max(np.abs(np.stack((x, y)) - reference)) <= 5e-14
    norm = np.sum(np.abs(c)) + np.sum(np.abs(r[1:]))
    for g, e in zip((x, y), units.T):
        error = np.max(np.abs(matmul_toeplitz((c, r), g) - e)) / (norm * np.max(np.abs(g)) + 1.0)
        assert error <= 1e-14
    return iterations


def test_generators_match_levinson_at_scale():
    _check_generators(*_implicit_system(4096))


@pytest.mark.parametrize("n_cells", [4096, 4094], ids=["n=4095", "prime-n=4093"])
def test_generators_at_awkward_interior_sizes(n_cells):
    # the interior size n = N - 1 is no fast FFT length here; the
    # preconditioner runs at one, past n
    assert 1 <= _check_generators(*_implicit_system(n_cells)) <= 12


def test_generator_iterations_stay_few_at_scale():
    # the Strang preconditioner clusters the spectrum: the iteration count
    # of the pair grows slowly with N (5 measured at N = 16384, 4 at N = 1000)
    fact = toeplitz_factor(*_implicit_system(16384))
    assert isinstance(fact, ToeplitzFactorization)
    assert 1 <= fact.iterations <= 12
    assert fact.iterations == toeplitz_factor(*_implicit_system(16384)).iterations


def _four_transforms(fact, b):
    # x_0 T^-1 b = L(x) U(Jy) b - L(Zy) U(ZJx) b by its four FFT calls,
    # each input zero-padded by the transform itself
    n, m = fact.n, fact.size
    inner = fft.irfft(fact.upper * fft.rfft(b, m), m)[:, n - 1 : 2 * n - 1]
    spectra = fft.rfft(inner, m)
    return fft.irfft(fact.lower[0] * spectra[0] + fact.lower[1] * spectra[1], m)[:n]


@pytest.mark.parametrize("n", [3, 64, 999, 1000, 4095])
def test_toeplitz_solve_is_the_four_transform_formula_bit_for_bit(rng, n):
    fact = toeplitz_factor(*_implicit_system(n + 1))
    assert isinstance(fact, ToeplitzFactorization)
    work, out = fact.work_arrays(), np.empty(n)
    for b in (rng.uniform(-1.0, 1.0, n), np.cos(0.37 * np.arange(n)), np.zeros(n)):
        before = b.tobytes()
        expected = _four_transforms(fact, b).tobytes()
        assert fact.solve(b).tobytes() == expected
        # work arrays reused from the solve before give the same bytes
        assert fact.solve(b, out, work) is out and out.tobytes() == expected
        assert b.tobytes() == before


@pytest.mark.parametrize("n", [1, 2, 3, 50])
def test_tridiagonal_solve_into_reused_arrays_is_the_fresh_solve(rng, n):
    c, r = _dominant_toeplitz(rng, n, 1)
    fact = toeplitz_factor(c, r)
    assert isinstance(fact, TridiagonalFactorization)
    work, out = fact.work_arrays(), np.empty(n)
    for _ in range(3):
        b = rng.uniform(-1.0, 1.0, n)
        before = b.tobytes()
        expected = fact.solve(b)
        assert np.max(np.abs(toeplitz(c, r) @ expected - b)) <= 1e-14
        assert fact.solve(b, out, work) is out and out.tobytes() == expected.tobytes()
        assert b.tobytes() == before and not np.any(work[0][n:])
