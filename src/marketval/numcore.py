"""Dense matrix plumbing and rank-revealing least squares.

The dataset's validated, read-only design type, a column-pivoted QR
factorization with an explicit numerical-rank cut, a least-squares solver
that zeroes the coefficients of collinear columns instead of failing, and
the inverse-Gram diagonal that standard errors and VIFs are read from.
Every factorization and triangular solve the package makes is made here;
the rank decision and the dropped-column bookkeeping live here too.  Other
modules read a factorization only through `QrFactors` methods and its
`rank`, `retained_columns` and `dropped_columns`: none of them reads Q, R,
the pivot order or the rank tolerance, so the rank rule and how a
factorization stores Q and R are this module's business alone.

The LAPACK routines (dgeqp3, dorgqr, dtrtrs) are called through `ctypes` in
the OpenBLAS that numpy's pip wheel bundles, so no command imports scipy.
That library's file name (`numpy.libs/libscipy_openblas64_*.so`) and its
symbol names (`scipy_dgeqp3_64_`, ...) are private to the wheel.  Where they
are missing, as on conda or MKL builds of numpy, the same routines run
through `scipy.linalg`, imported at first use.  Both routes make the calls
scipy makes, with the same workspace sizes and the same storage order.  With
the OpenBLAS builds of numpy 2.4.6 (0.3.31) and scipy 1.17.1 (0.3.30) they
give the same bits while the smaller side of the matrix is at most 128;
above that LAPACK blocks the QR onto matrix products, whose kernels differ
between the two builds, so installs that take different routes can differ
in the last digits and in which of two exact twins is dropped.
"""
from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

# A column is kept while |R[i, i]| >= DEFAULT_RANK_TOL * |R[0, 0]|.
DEFAULT_RANK_TOL = 1e-10


def read_only(values) -> np.ndarray:
    """`values` as a read-only C-ordered float64 array, copied unless it is one already.

    An array that is already read-only, float64 and C-ordered is returned
    as is, so its holders share it; anything else is copied, so that no
    later write to `values` reaches the result.
    """
    shared = isinstance(values, np.ndarray) and not values.flags.writeable
    a = (np.asarray if shared else np.array)(values, dtype=float, order="C")
    a.setflags(write=False)
    return a


class Matrix:
    """Immutable dense real matrix with float64 entries: a dataset's design.

    Construction validates shape and rejects NaN and infinite entries, so
    downstream code can assume every `Matrix` it receives is finite.  Its
    array is `read_only(values)`: a read-only array is taken as is, and
    anything else is copied.
    """

    __slots__ = ("_a",)

    def __init__(self, values) -> None:
        a = read_only(values)
        if a.ndim != 2:
            raise InvalidInputError("matrix values must be two-dimensional")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise InvalidInputError("matrix must have at least one row and one column")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("matrix entries must be finite")
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

    @property
    def dropped_columns(self) -> tuple[int, ...]:
        """Original indices of the columns the rank cut dropped, ascending."""
        return tuple(sorted(self.permutation[self.rank :]))

    @property
    def retained_columns(self) -> tuple[int, ...]:
        """Original indices of the columns that survived the rank cut, ascending."""
        return tuple(sorted(self.permutation[: self.rank]))

    def residual(self, v: np.ndarray) -> np.ndarray:
        """``v - Q1 (Q1' v)``: the part of `v` orthogonal to the retained columns.

        Q1 is Q's first `rank` columns, the basis of the retained columns' span.
        """
        q1 = self.q[:, : self.rank]
        return v - q1 @ (q1.T @ v)

    def new_direction(self, v: np.ndarray) -> np.ndarray | None:
        """Unit vector that `v` adds to the retained columns' span, or None.

        None when the residual of `v` on the retained columns is shorter than
        ``DEFAULT_RANK_TOL * max(|R[0, 0]|, ||v||)``: the rank cut of a
        pivoted QR of [X_retained, v] that pivots `v` last.  (Where columns
        shorter than ||v|| carry the near-dependency, such a QR pivots `v`
        first and cuts one of them instead, further from exact dependency,
        so near the cut this can return None where that QR keeps one more
        column.)
        """
        u = self.residual(v)
        norm = float(np.linalg.norm(u))
        if norm < DEFAULT_RANK_TOL * max(abs(float(self.r[0, 0])), float(np.linalg.norm(v))):
            return None
        return u / norm

    def compress(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """R with its columns in input order, ``Q'y`` and ``rho^2 = ||y - QQ'y||^2``.

        For any column subset S, the least-squares fit of `y` on the input's
        columns S equals the fit of ``Q'y`` on the columns S of the returned
        R, and its rss is that fit's rss plus rho^2.
        """
        r = np.empty_like(self.r)
        r[:, list(self.permutation)] = self.r
        qty = self.q.T @ y
        resid = y - self.q @ qty
        return r, qty, float(resid @ resid)

    def well_conditioned(self, limit: float) -> bool:
        """Full rank, and ``|R[0, 0]| <= limit * |R[k-1, k-1]|`` over all k columns."""
        pivots = np.abs(np.diag(self.r))
        return self.rank == len(self.permutation) and pivots[0] <= limit * pivots[-1]

    def collinear_columns(self, inv_gram: np.ndarray) -> np.ndarray:
        """Mask, by input column, of the columns in a dependency the rank cut took as exact.

        `inv_gram` is `unscaled_covariance(self)`.  Column j is flagged when it

        (b) was dropped by the rank cut; or
        (c) was retained and, for some dropped column d,
            |(R11^{-1} R12)_jd| * ||e_j|| >= DEFAULT_RANK_TOL * |R[0, 0]|,
            where ||e_j|| = 1/sqrt(inv_gram[j]) is the residual norm of
            column j on the other retained columns.  Without column j,
            column d would no longer fall inside the rank cut.
        """
        mask = np.zeros(len(self.permutation), dtype=bool)
        mask[list(self.dropped_columns)] = True
        if 0 < self.rank < len(self.permutation):
            pivoted = list(self.permutation[: self.rank])
            # Row i: coefficients of retained column pivoted[i] in each dropped column.
            coef = self.solve_r11(self.r[: self.rank, self.rank :])
            weight = np.abs(coef).max(axis=1) / np.sqrt(inv_gram[pivoted])
            mask[pivoted] |= weight >= DEFAULT_RANK_TOL * abs(self.r[0, 0])
        return mask

    def solve_r11(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``R11 z = rhs`` for the retained block ``R11 = r[:rank, :rank]``.

        `rhs` is a vector or a matrix with `rank` rows; the result has its shape.
        """
        return _lapack().solve_upper(self.r[: self.rank, : self.rank], rhs)


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
    because `QrFactors.new_direction` (Breusch-Pagan's intercept cut) and
    `QrFactors.collinear_columns` (VIF's collinearity rule) are measured
    against the same one.

    Parameters
    ----------
    x : Matrix or array-like
        Matrix to factor, at least one row and one column.

    Returns
    -------
    QrFactors
    """
    a = as_matrix(x).array()
    q, r, piv = _lapack().qr(a)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        below = np.nonzero(diag < DEFAULT_RANK_TOL * diag[0])[0]
        rank = int(below[0]) if below.size else int(diag.size)
    return QrFactors(q=q, r=r, permutation=tuple(int(j) for j in piv), rank=rank)


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


# numpy's bundled OpenBLAS and the symbol names it gives LAPACK routines.
_BUNDLED_OPENBLAS = "numpy.libs/libscipy_openblas64_*.so"
_SYMBOL = "scipy_{}_64_"
_INT = ctypes.POINTER(ctypes.c_int64)
_DOUBLES = ctypes.POINTER(ctypes.c_double)
# Every argument is passed by reference; each character argument has a
# trailing hidden length.
_SIGNATURES = {
    "dgeqp3": (_INT, _INT, _DOUBLES, _INT, _INT, _DOUBLES, _DOUBLES, _INT, _INT),
    "dorgqr": (_INT, _INT, _INT, _DOUBLES, _INT, _DOUBLES, _DOUBLES, _INT, _INT),
    "dtrtrs": (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _DOUBLES, _INT,
               _DOUBLES, _INT, _INT, ctypes.c_size_t, ctypes.c_size_t, ctypes.c_size_t),
}


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _doubles(a: np.ndarray):
    return a.ctypes.data_as(_DOUBLES)


class _BundledLapack:
    """dgeqp3, dorgqr and dtrtrs of numpy's bundled OpenBLAS, called as scipy calls them."""

    def __init__(self, routines: dict) -> None:
        self._routines = routines

    def _call(self, name: str, *args) -> None:
        """Call routine `name` with `args`, then INFO, then a length of 1 per character argument."""
        info = ctypes.c_int64()
        lengths = (1,) * _SIGNATURES[name].count(ctypes.c_char_p)
        self._routines[name](*args, ctypes.byref(info), *lengths)
        if info.value != 0:
            raise np.linalg.LinAlgError(f"LAPACK {name} returned info = {info.value}")

    def _call_with_workspace(self, name: str, *args) -> None:
        # The block size, and with it the bits, follows LWORK, so ask for
        # the optimal size first, as scipy does.
        work = np.empty(1)
        self._call(name, *args, _doubles(work), _int(-1))
        work = np.empty(int(work[0]))
        self._call(name, *args, _doubles(work), _int(work.size))

    def qr(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Economic pivoted QR of `x`: Q (m x k), R (k x n) and 0-based pivots."""
        m, n = x.shape
        k = min(m, n)
        a = np.array(x, dtype=float, order="F")
        jpvt = np.zeros(n, dtype=np.int64)  # zero: every column is free to pivot
        tau = np.empty(k)
        self._call_with_workspace("dgeqp3", _int(m), _int(n), _doubles(a), _int(m),
                                  jpvt.ctypes.data_as(_INT), _doubles(tau))
        r = np.triu(a[:k])
        # Q overwrites the reflectors in place: no second m x n buffer.
        self._call_with_workspace("dorgqr", _int(m), _int(k), _int(k), _doubles(a), _int(m),
                                  _doubles(tau))
        return a[:, :k], r, jpvt - 1

    def solve_upper(self, r11: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``r11 z = rhs`` for upper-triangular `r11`."""
        k = r11.shape[0]
        b = np.array(rhs, dtype=float, order="F")
        if (r11.dtype != np.float64 or r11.shape != (k, k)
                or b.ndim not in (1, 2) or b.shape[0] != k):
            raise ValueError(
                f"{r11.dtype} {r11.shape} and {b.shape} do not form a triangular system")
        if b.size == 0:
            return b
        if r11.flags.f_contiguous:
            a, uplo, trans = r11, b"U", b"N"
        else:
            # Read in Fortran order, a C-order copy of R11 is R11' (lower
            # triangular); scipy solves that transposed system here.
            a, uplo, trans = np.ascontiguousarray(r11), b"L", b"T"
        nrhs = 1 if b.ndim == 1 else b.shape[1]
        self._call("dtrtrs", uplo, trans, b"N", _int(k), _int(nrhs), _doubles(a), _int(k),
                   _doubles(b), _int(k))
        return b


class _ScipyLapack:
    """The same factorization and solve through `scipy.linalg`."""

    @staticmethod
    def qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        import scipy.linalg

        return scipy.linalg.qr(x, mode="economic", pivoting=True)

    @staticmethod
    def solve_upper(r11: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        import scipy.linalg

        return scipy.linalg.solve_triangular(r11, rhs)


def _load_bundled_lapack() -> _BundledLapack:
    """Bind the routines in numpy's bundled OpenBLAS.

    Raises OSError when there is no single such library next to numpy and
    AttributeError when it lacks one of the symbols.
    """
    site = Path(np.__file__).resolve().parents[1]
    paths = sorted(site.glob(_BUNDLED_OPENBLAS))
    if len(paths) != 1:
        raise OSError(f"no single bundled OpenBLAS at {site / _BUNDLED_OPENBLAS}")
    library = ctypes.CDLL(str(paths[0]))
    routines = {}
    for name, argtypes in _SIGNATURES.items():
        routine = getattr(library, _SYMBOL.format(name))
        routine.argtypes, routine.restype = argtypes, None
        routines[name] = routine
    return _BundledLapack(routines)


@functools.cache
def _lapack() -> _BundledLapack | _ScipyLapack:
    """The LAPACK route, chosen once per process: numpy's bundled OpenBLAS, else scipy."""
    try:
        return _load_bundled_lapack()
    except (OSError, AttributeError):
        return _ScipyLapack()
