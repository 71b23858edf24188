"""Matrix type and rank-revealing least squares."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketval import numcore
from marketval.errors import InvalidInputError
from marketval.numcore import (
    DEFAULT_RANK_TOL,
    Matrix,
    as_matrix,
    least_squares_solve,
    qr_pivoted,
    solve_from_factors,
    unscaled_covariance,
)
from oracles import gram_schmidt_qr, inverse_gram_diagonal_by_product


def random_full_rank(rng, n, p):
    a = rng.normal(size=(n, p))
    # Random Gaussian matrices are full rank with probability 1.
    return a


class TestMatrix:
    def test_basic_shape_and_access(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert m.rows == 3
        assert m.cols == 2
        assert m.array()[:, 1].tolist() == [2.0, 4.0, 6.0]

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

    def test_copies_a_writable_array(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = Matrix(a)
        a[0, 0] = 9.0
        assert m.array().tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not np.shares_memory(m.array(), a)
        assert a.flags.writeable

    def test_takes_a_read_only_array_as_is(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        a.setflags(write=False)
        assert np.shares_memory(Matrix(a).array(), a)
        # A read-only array of another dtype or order is still converted.
        for b in (np.asfortranarray(a), a.astype(int)):
            b.setflags(write=False)
            m = Matrix(b)
            assert not np.shares_memory(m.array(), b)
            assert m.array().dtype == np.float64 and m.array().flags.c_contiguous

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

    def test_full_rank_diagonal_is_each_residual_on_earlier_columns(self):
        # Columns stay in design order: |R[i, i]| is column i's residual on
        # columns 0..i-1.
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.normal(size=(9, 5)) * rng.uniform(0.01, 100.0)
            f = qr_pivoted(a)
            assert f.permutation == (0, 1, 2, 3, 4)
            for i in range(5):
                coef, *_ = np.linalg.lstsq(a[:, :i], a[:, i], rcond=None)
                residual = np.linalg.norm(a[:, i] - a[:, :i] @ coef)
                assert abs(f.r[i, i]) == pytest.approx(residual, rel=1e-10)

    def test_duplicate_column_dropped(self):
        rng = np.random.default_rng(11)
        base = random_full_rank(rng, 10, 3)
        a = np.column_stack([base, base[:, 1]])  # column 3 duplicates column 1
        f = qr_pivoted(a)
        assert f.rank == 3
        assert f.dropped_columns == (3,)

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
        f = qr_pivoted(dup)
        assert f.rank == 3
        assert sol.rss == pytest.approx(clean.rss, rel=1e-10)
        assert sol.coefficients[list(f.dropped_columns)[0]] == 0.0

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
        diag = unscaled_covariance(qr_pivoted(np.ones((n, 1))))
        assert diag.shape == (1,)
        assert diag[0] == pytest.approx(1.0 / n, abs=1e-14)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(19)
        a = random_full_rank(rng, 25, 5)
        diag = unscaled_covariance(qr_pivoted(a))
        expected = np.diag(np.linalg.inv(a.T @ a))
        assert np.allclose(diag, expected, rtol=1e-8, atol=1e-12)

    def test_rank_zero_all_inf(self):
        diag = unscaled_covariance(qr_pivoted(np.zeros((3, 2))))
        assert diag.tolist() == [math.inf, math.inf]

    def test_rank_deficient_covers_retained_only(self):
        rng = np.random.default_rng(21)
        base = random_full_rank(rng, 10, 2)
        a = np.column_stack([base, base @ [1.0, 1.0]])
        f = qr_pivoted(a)
        assert f.rank == 2
        diag = unscaled_covariance(f)
        retained = list(f.retained_columns)
        expected = np.diag(np.linalg.inv(a[:, retained].T @ a[:, retained]))
        assert np.allclose(diag[retained], expected, rtol=1e-8)
        assert diag[list(f.dropped_columns)].tolist() == [math.inf]


_NEAR_TWIN_SCALES = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


@st.composite
def awkward_designs(draw):
    """Designs whose columns are fresh, exact twins, zero or near twins of an earlier one."""
    n = draw(st.integers(min_value=1, max_value=30))
    p = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-3, 3, size=p)
    if draw(st.booleans()):
        for j in range(1, p):
            kind = draw(st.sampled_from(("fresh", "twin", "zero", "near")))
            src = a[:, draw(st.integers(min_value=0, max_value=j - 1))]
            if kind == "twin":
                a[:, j] = src
            elif kind == "zero":
                a[:, j] = 0.0
            elif kind == "near":
                rms = math.sqrt(float(np.mean(src**2)))
                a[:, j] = src + draw(st.sampled_from(_NEAR_TWIN_SCALES)) * rms * rng.normal(size=n)
    elif draw(st.integers(min_value=0, max_value=4)) == 0:
        a[:] = 0.0
    return a


@settings(max_examples=200)
@given(awkward_designs())
def test_property_diagonal_matches_full_product(a):
    # Row norms of R11^{-1} and the diagonal of R11^{-1} R11^{-T} sum the same
    # rank non-negative terms in two orders: each is within rank ulps of the
    # exact sum, so they agree within 2 * rank * 2^-53 relative.
    f = qr_pivoted(a)
    diag = unscaled_covariance(f)
    expected = inverse_gram_diagonal_by_product(f)
    assert diag.shape == (a.shape[1],)
    retained = list(f.retained_columns)
    rel = np.abs(diag[retained] - expected[retained]) / expected[retained]
    assert np.all(rel <= 2 * f.rank * 2.0**-53)
    # At rank 0 every column is dropped, so the whole diagonal is inf.
    assert np.all(np.isinf(diag[list(f.dropped_columns)]))


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


# Both routes of the triangular solve: numpy's bundled OpenBLAS through
# ctypes, and scipy.


def bundled_lapack():
    try:
        return numcore._load_bundled_lapack()
    except (OSError, AttributeError):
        pytest.skip("numpy bundles no OpenBLAS exporting dtrtrs here")


def factor_and_solve(lapack, a):
    """Every triangular solve `numcore` makes for `a`, on the route `lapack`.

    Besides the fit's own R11 solves and their transposes, it solves with the
    leading half of R11 (a non-contiguous slice) and with a Fortran-order
    copy of R.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numcore, "_lapack", lambda: lapack)
        f = qr_pivoted(a)
        out = {}
        variants = (f, dataclasses.replace(f, rank=f.rank // 2),
                    dataclasses.replace(f, r=np.asfortranarray(f.r)))
        for i, g in enumerate(variants):
            k = g.rank
            out[f"{i}: vector"] = g.solve_r11(np.linspace(-1.0, 2.0, k))
            out[f"{i}: transposed"] = g.solve_r11(np.linspace(-1.0, 2.0, k), transpose=True)
            out[f"{i}: identity"] = g.solve_r11(np.eye(k))
            out[f"{i}: r12"] = g.solve_r11(g.r[:k, k:])
            out[f"{i}: diagonal"] = unscaled_covariance(g)
    return out


def assert_same_bits(a):
    bundled = factor_and_solve(bundled_lapack(), a)
    reference = factor_and_solve(numcore._ScipyLapack(), a)
    assert bundled.keys() == reference.keys()
    for key, x in bundled.items():
        y = reference[key]
        # Storage order too: it decides which BLAS kernel later products use.
        assert (x.shape, x.dtype, x.flags.f_contiguous, x.flags.c_contiguous) == \
            (y.shape, y.dtype, y.flags.f_contiguous, y.flags.c_contiguous), key
        assert x.tobytes() == y.tobytes(), key


@settings(max_examples=200)
@given(awkward_designs())
def test_property_bundled_lapack_matches_scipy_bit_for_bit(a):
    assert_same_bits(a)


@pytest.mark.parametrize("n, p", [(105, 90), (2000, 96), (500, 128), (30, 40), (100, 1),
                                  (400, 256)])
def test_bundled_lapack_matches_scipy_on_dummy_designs(n, p):
    # 0/1 designs with a bias column and an exact twin, as encoding makes them.
    # Both routes factor with numpy; only the solves differ, and numpy's and
    # scipy's OpenBLAS builds agree on them past LAPACK's 128-column
    # crossover too.
    rng = np.random.default_rng(n + p)
    a = (rng.random((n, p)) < 0.3).astype(float)
    a[:, 0] = 1.0
    if p > 2:
        a[:, 2] = a[:, 1]
    assert_same_bits(a)


def test_bundled_rank_zero_solve_makes_no_lapack_call():
    # LAPACK requires LDA >= 1, so an empty R11 never reaches dtrtrs.
    lapack = numcore._BundledLapack(None)
    assert lapack.solve_upper(np.empty((0, 0)), np.empty(0)).shape == (0,)
    assert lapack.solve_upper(np.empty((0, 0)), np.empty((0, 3))).shape == (0, 3)
    f = qr_pivoted(np.zeros((4, 3)))
    assert f.rank == 0
    assert f.solve_r11(np.eye(0)).shape == (0, 0)


def test_bundled_solve_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="triangular system"):
        bundled_lapack().solve_upper(np.eye(3), np.ones(2))


def test_bundled_lapack_error_is_raised_not_asserted():
    # A zero on the diagonal makes dtrtrs report INFO > 0.
    with pytest.raises(np.linalg.LinAlgError, match="dtrtrs returned info = 2"):
        bundled_lapack().solve_upper(np.diag([1.0, 0.0, 1.0]), np.ones(3))
