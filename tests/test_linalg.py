import numpy as np
import pytest
from scipy.linalg import toeplitz

from rieszfd import DimensionMismatch, SingularMatrix, lu_factor, lu_solve
from rieszfd.linalg import ToeplitzFactorization, TridiagonalFactorization, toeplitz_factor


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
    with pytest.raises(DimensionMismatch):
        lu_factor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        lu_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    fact = lu_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        lu_solve(fact, np.zeros(4))


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
    with pytest.raises(DimensionMismatch):
        toeplitz_factor(np.array([2.0, 0.1, 0.1]), np.array([2.0, 0.1]))
    with pytest.raises(DimensionMismatch):
        toeplitz_factor(np.array([2.0, 0.1, 0.1]), np.array([3.0, 0.1, 0.1]))
    with pytest.raises(DimensionMismatch):
        toeplitz_factor(np.zeros(0), np.zeros(0))
    for c in (np.array([4.0, 1.0]), np.array([4.0, 1.0, 0.5])):
        with pytest.raises(DimensionMismatch):
            toeplitz_factor(c, c).solve(np.zeros(len(c) + 1))


@pytest.mark.parametrize("first_col, first_row", [
    ([1.0, 1.0], [1.0, 1.0]),  # rank one, tridiagonal
    ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),  # rank one: Levinson breaks down
    ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]),  # zero leading principal submatrix
    ([1e-20, 1.0, 1.0], [1e-20, 1.0, 2.0]),  # near-singular one: backward error 0.33
])
def test_singular_toeplitz_rejected(first_col, first_row):
    with pytest.raises(SingularMatrix):
        toeplitz_factor(np.array(first_col), np.array(first_row))
