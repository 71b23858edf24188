"""Dense matrix plumbing and rank-revealing least squares.

A validated immutable matrix type, a column-pivoted QR factorization with
an explicit numerical-rank cut, a least-squares solver that zeroes the
coefficients of collinear columns instead of failing, and the inverse-Gram
diagonal that standard errors and VIFs are read from.  Every factorization
and triangular solve the package makes is made here, by LAPACK via scipy;
the rank decision and the dropped-column bookkeeping live here too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInputError

# A column is kept while |R[i, i]| >= DEFAULT_RANK_TOL * |R[0, 0]|.
DEFAULT_RANK_TOL = 1e-10


class Matrix:
    """Immutable dense real matrix with float64 entries.

    Construction validates shape and rejects NaN and infinite entries, so
    downstream code can assume every `Matrix` it receives is finite.
    """

    __slots__ = ("_a",)

    def __init__(self, values) -> None:
        a = np.array(values, dtype=float, order="C")
        if a.ndim != 2:
            raise InvalidInputError("matrix values must be two-dimensional")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise InvalidInputError("matrix must have at least one row and one column")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("matrix entries must be finite")
        a.setflags(write=False)
        self._a = a

    @property
    def rows(self) -> int:
        return int(self._a.shape[0])

    @property
    def cols(self) -> int:
        return int(self._a.shape[1])

    def array(self) -> np.ndarray:
        """The underlying 2-d array (read-only view)."""
        return self._a

    def column(self, j: int) -> np.ndarray:
        return self._a[:, j]

    def take_columns(self, indices) -> "Matrix":
        return Matrix(np.take(self._a, indices, axis=1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Matrix({self.rows}x{self.cols})"


def as_matrix(values) -> Matrix:
    """Coerce an array-like to `Matrix`, passing instances through unchanged."""
    if isinstance(values, Matrix):
        return values
    return Matrix(values)


@dataclass(frozen=True)
class QrFactors:
    """Column-pivoted QR factorization with a numerical-rank decision.

    `q` has orthonormal columns and `r` is upper triangular so that
    ``q @ r`` reconstructs the input with its columns permuted into
    `permutation` order.  Pivoting makes ``|r[i, i]|`` non-increasing; the
    trailing columns whose pivot fell below the rank tolerance are listed
    in `dropped_columns` (original indices, ascending).
    """

    q: np.ndarray
    r: np.ndarray
    permutation: tuple[int, ...]
    rank: int
    dropped_columns: tuple[int, ...]

    @property
    def retained_columns(self) -> tuple[int, ...]:
        """Original indices of the columns that survived the rank cut, ascending."""
        return tuple(sorted(self.permutation[: self.rank]))

    def solve_r11(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``R11 z = rhs`` for the retained block ``R11 = r[:rank, :rank]``."""
        return scipy.linalg.solve_triangular(self.r[: self.rank, : self.rank], rhs)


@dataclass(frozen=True)
class LeastSquaresSolution:
    """Least squares solution with collinear columns zeroed.

    `coefficients` has one entry per input column; entries at the
    factorization's `dropped_columns` are exactly 0.0.  `fitted` is
    ``x @ coefficients``, the vector `rss` was measured from.  The rank and
    dropped columns live on the `QrFactors` it was solved from.
    """

    coefficients: np.ndarray
    rss: float
    fitted: np.ndarray


def qr_pivoted(x) -> QrFactors:
    """Factor `x` by QR with column pivoting and cut the rank at `DEFAULT_RANK_TOL`.

    Column ``i`` (in pivot order) is dropped when
    ``|r[i, i]| < DEFAULT_RANK_TOL * |r[0, 0]|``.  The tolerance is fixed
    because Breusch-Pagan's intercept cut and VIF's collinearity rule are
    measured against the same one.

    Parameters
    ----------
    x : Matrix or array-like
        Matrix to factor, at least one row and one column.

    Returns
    -------
    QrFactors
    """
    a = as_matrix(x).array()
    q, r, piv = scipy.linalg.qr(a, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        below = np.nonzero(diag < DEFAULT_RANK_TOL * diag[0])[0]
        rank = int(below[0]) if below.size else int(diag.size)
    permutation = tuple(int(j) for j in piv)
    dropped = tuple(sorted(permutation[rank:]))
    return QrFactors(q=q, r=r, permutation=permutation, rank=rank, dropped_columns=dropped)


def solve_from_factors(factors: QrFactors, x: Matrix, y: np.ndarray) -> LeastSquaresSolution:
    """Least squares coefficients for `y` given a factorization of `x`.

    Only the columns retained by the rank cut receive coefficients; dropped
    columns get exactly 0.0.  Because a dropped column lies (numerically) in
    the span of the retained ones, the residual sum of squares matches the
    full problem's.
    """
    a = x.array()
    rank = factors.rank
    p = a.shape[1]
    beta = np.zeros(p)
    if rank > 0:
        qty = factors.q.T @ y
        z = factors.solve_r11(qty[:rank])
        beta[list(factors.permutation[:rank])] = z
    fitted = a @ beta
    resid = y - fitted
    return LeastSquaresSolution(coefficients=beta, rss=float(resid @ resid), fitted=fitted)


def least_squares_solve(x, y) -> LeastSquaresSolution:
    """Solve ``min ||y - x b||^2`` with automatic dropping of collinear columns."""
    m = as_matrix(x)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if yv.shape[0] != m.rows:
        raise InvalidInputError("response length must match the matrix row count")
    if not np.all(np.isfinite(yv)):
        raise InvalidInputError("response entries must be finite")
    factors = qr_pivoted(m)
    return solve_from_factors(factors, m, yv)


def unscaled_covariance(factors: QrFactors) -> np.ndarray:
    """Diagonal of the inverse Gram matrix ``(X'X)^{-1}`` of the retained columns.

    Entry j, indexed by original column, is the squared norm of the row of
    ``R11^{-1}`` that column j pivoted to; columns the rank cut dropped get
    inf.  Multiply by an error-variance estimate to get coefficient
    variances.
    """
    rinv = factors.solve_r11(np.eye(factors.rank))
    diag = np.full(len(factors.permutation), np.inf)
    diag[list(factors.permutation[: factors.rank])] = np.einsum("ij,ij->i", rinv, rinv)
    return diag
