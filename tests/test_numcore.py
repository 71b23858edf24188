"""Matrix type and rank-revealing least squares."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketval.errors import DegenerateModelError, InvalidInputError
from marketval.numcore import (
    DEFAULT_RANK_TOL,
    Matrix,
    as_matrix,
    least_squares_solve,
    qr_pivoted,
    solve_from_factors,
    unscaled_covariance,
)
from oracles import gram_schmidt_qr


def random_full_rank(rng, n, p):
    a = rng.normal(size=(n, p))
    # Random Gaussian matrices are full rank with probability 1.
    return a


class TestMatrix:
    def test_basic_shape_and_access(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert m.rows == 3
        assert m.cols == 2
        assert m.column(1).tolist() == [2.0, 4.0, 6.0]
        assert m.entries.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_rejects_one_dimensional(self):
        with pytest.raises(InvalidInputError):
            Matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            Matrix(np.empty((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidInputError):
            Matrix([[1.0, float("nan")]])
        with pytest.raises(InvalidInputError):
            Matrix([[1.0, float("inf")]])

    def test_entries_read_only(self):
        m = Matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.array()[0, 0] = 9.0

    def test_take_columns(self):
        m = Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        sub = m.take_columns([0, 2])
        assert sub.array().tolist() == [[1.0, 3.0], [4.0, 6.0]]

    def test_as_matrix_passthrough(self):
        m = Matrix([[1.0]])
        assert as_matrix(m) is m
        assert isinstance(as_matrix([[1.0]]), Matrix)


class TestQrPivoted:
    def test_reconstructs_input(self):
        rng = np.random.default_rng(7)
        a = random_full_rank(rng, 10, 4)
        f = qr_pivoted(a)
        assert f.rank == 4
        reconstructed = f.q @ f.r
        assert np.allclose(reconstructed, a[:, list(f.permutation)], atol=1e-10)

    def test_q_orthonormal(self):
        rng = np.random.default_rng(8)
        a = random_full_rank(rng, 12, 5)
        f = qr_pivoted(a)
        assert np.allclose(f.q.T @ f.q, np.eye(5), atol=1e-12)

    def test_diagonal_magnitudes_match_gram_schmidt(self):
        # Independent route: Gram-Schmidt on the permuted columns gives an R
        # whose diagonal magnitudes must agree with the pivoted factorization.
        rng = np.random.default_rng(9)
        a = random_full_rank(rng, 15, 6)
        f = qr_pivoted(a)
        _, r_gs = gram_schmidt_qr(a[:, list(f.permutation)])
        assert np.allclose(np.abs(np.diag(f.r)), np.abs(np.diag(r_gs)), rtol=1e-9)

    def test_pivot_magnitudes_non_increasing(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.normal(size=(9, 5)) * rng.uniform(0.01, 100.0)
            diag = np.abs(np.diag(qr_pivoted(a).r))
            assert np.all(diag[:-1] >= diag[1:] - 1e-12)

    def test_duplicate_column_dropped(self):
        rng = np.random.default_rng(11)
        base = random_full_rank(rng, 10, 3)
        a = np.column_stack([base, base[:, 1]])  # column 3 duplicates column 1
        f = qr_pivoted(a)
        assert f.rank == 3
        assert len(f.dropped_columns) == 1
        assert f.dropped_columns[0] in (1, 3)

    def test_zero_matrix_rank_zero(self):
        f = qr_pivoted(np.zeros((4, 2)))
        assert f.rank == 0
        assert f.dropped_columns == (0, 1)

    def test_retained_columns_sorted_original_indices(self):
        rng = np.random.default_rng(12)
        a = random_full_rank(rng, 8, 4)
        f = qr_pivoted(a)
        assert f.retained_columns == (0, 1, 2, 3)


class TestLeastSquares:
    def test_hand_example(self):
        # X = [[1,0],[1,1],[1,2]], y = [0,1,1]: beta = [1/6, 1/2], rss = 1/6.
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([0.0, 1.0, 1.0])
        sol = least_squares_solve(x, y)
        assert sol.coefficients == pytest.approx([1.0 / 6.0, 0.5], abs=1e-12)
        assert sol.rss == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_matches_numpy_lstsq(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            p = int(rng.integers(1, min(n, 8) + 1))
            a = random_full_rank(rng, n, p)
            y = rng.normal(size=n)
            sol = least_squares_solve(a, y)
            expected, *_ = np.linalg.lstsq(a, y, rcond=None)
            assert np.allclose(sol.coefficients, expected, atol=1e-8)

    def test_rss_is_a_minimum(self):
        rng = np.random.default_rng(14)
        a = random_full_rank(rng, 20, 4)
        y = rng.normal(size=20)
        sol = least_squares_solve(a, y)
        base = sol.rss
        for j in range(4):
            for delta in (-1e-3, 1e-3):
                b = sol.coefficients.copy()
                b[j] += delta
                r = y - a @ b
                assert float(r @ r) >= base - 1e-12

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(15)
        a = random_full_rank(rng, 30, 5)
        y = rng.normal(size=30)
        sol = least_squares_solve(a, y)
        resid = y - a @ sol.coefficients
        assert np.allclose(a.T @ resid, 0.0, atol=1e-9)

    def test_fitted_is_the_product_rss_was_measured_from(self):
        rng = np.random.default_rng(118)
        a = np.column_stack([random_full_rank(rng, 30, 4), np.zeros(30)])
        y = rng.normal(size=30)
        sol = least_squares_solve(a, y)
        fitted = a @ sol.coefficients
        assert np.array_equal(sol.fitted, fitted)
        resid = y - fitted
        assert sol.rss == float(resid @ resid)

    def test_duplicate_column_same_rss_and_zero_coefficient(self):
        rng = np.random.default_rng(16)
        base = random_full_rank(rng, 12, 3)
        y = rng.normal(size=12)
        clean = least_squares_solve(base, y)
        dup = np.column_stack([base, base[:, 0]])
        sol = least_squares_solve(dup, y)
        assert sol.rank == 3
        assert sol.rss == pytest.approx(clean.rss, rel=1e-10)
        assert sol.coefficients[list(sol.dropped_columns)[0]] == 0.0

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(17)
        a = random_full_rank(rng, 15, 4)
        y = rng.normal(size=15)
        perm = [2, 0, 3, 1]
        sol = least_squares_solve(a, y)
        sol_p = least_squares_solve(a[:, perm], y)
        restored = np.empty(4)
        for pos, orig in enumerate(perm):
            restored[orig] = sol_p.coefficients[pos]
        assert np.allclose(restored, sol.coefficients, atol=1e-9)
        assert np.allclose(a @ restored, a @ sol.coefficients, atol=1e-9)

    def test_response_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            least_squares_solve(np.eye(3), np.ones(2))

    def test_non_finite_response_rejected(self):
        with pytest.raises(InvalidInputError):
            least_squares_solve(np.eye(2), np.array([1.0, float("nan")]))

    def test_solve_from_factors_consistent(self):
        rng = np.random.default_rng(18)
        a = random_full_rank(rng, 10, 3)
        y = rng.normal(size=10)
        m = Matrix(a)
        f = qr_pivoted(m)
        sol = solve_from_factors(f, m, y)
        direct = least_squares_solve(a, y)
        assert np.allclose(sol.coefficients, direct.coefficients, atol=1e-12)


class TestUnscaledCovariance:
    def test_ones_column(self):
        # For a single column of n ones, (X'X)^{-1} is [[1/n]].
        n = 7
        f = qr_pivoted(np.ones((n, 1)))
        cov = unscaled_covariance(f)
        assert cov.array()[0, 0] == pytest.approx(1.0 / n, abs=1e-14)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(19)
        a = random_full_rank(rng, 25, 5)
        f = qr_pivoted(a)
        cov = unscaled_covariance(f).array()
        expected = np.linalg.inv(a.T @ a)
        assert np.allclose(cov, expected, rtol=1e-8, atol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(20)
        a = random_full_rank(rng, 10, 4)
        cov = unscaled_covariance(qr_pivoted(a)).array()
        assert np.array_equal(cov, cov.T)

    def test_rank_zero_raises(self):
        f = qr_pivoted(np.zeros((3, 2)))
        with pytest.raises(DegenerateModelError):
            unscaled_covariance(f)

    def test_rank_deficient_covers_retained_only(self):
        rng = np.random.default_rng(21)
        base = random_full_rank(rng, 10, 2)
        a = np.column_stack([base, base @ [1.0, 1.0]])
        f = qr_pivoted(a)
        assert f.rank == 2
        cov = unscaled_covariance(f).array()
        retained = list(f.retained_columns)
        expected = np.linalg.inv(a[:, retained].T @ a[:, retained])
        assert np.allclose(cov, expected, rtol=1e-8)


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_rss_never_exceeds_response_norm(n, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(max(n, p), p))
    y = rng.normal(size=max(n, p))
    sol = least_squares_solve(a, y)
    assert sol.rss <= float(y @ y) + 1e-9 * max(1.0, float(y @ y))
