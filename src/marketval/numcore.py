"""Dense matrix plumbing and rank-revealing least squares.

The dataset's validated, read-only design type; the blocked reduction of a
tall [X | y] to its (p+1)-row triangle; a QR factorization with an explicit
numerical-rank cut taken in design order; a least-squares solver that zeroes
the coefficients of collinear columns instead of failing; and the
inverse-Gram diagonal that standard errors and VIFs are read from.  Every
factorization and triangular solve the package makes is made here; the rank
decision and the dropped-column bookkeeping live here too.  Other modules
read a factorization only through `QrFactors` methods and its `rank`,
`retained_columns` and `dropped_columns`: none of them reads Q, R, the
column order or the rank tolerance, so the rank rule and how a
factorization stores Q and R are this module's business alone.

A tall matrix is never factored whole.  `triangle` reduces [X | y] to its
upper triangle, one `BLOCK_ROWS`-row block at a time (TSQR), forming
neither Q nor a copy of X, and `qr_pivoted` factors that triangle's
columns.

The QRs are numpy's (`np.linalg.qr`, LAPACK dgeqrf).  The triangular solve,
LAPACK dtrtrs, is called through `ctypes` in the OpenBLAS that numpy's pip
wheel bundles, so no command imports scipy.  That library's file name
(`numpy.libs/libscipy_openblas64_*.so`) and its symbol name
(`scipy_dtrtrs_64_`) are private to the wheel.  Where they are missing, as
on conda or MKL builds of numpy, the solve runs through `scipy.linalg`,
imported at first use, with the same call and storage order.  With the
OpenBLAS builds of numpy 2.4.6 (0.3.31) and scipy 1.17.1 (0.3.30) the two
routes give the same bits while R has at most 128 columns; above that the
solve is blocked onto matrix products, whose kernels differ between the two
builds, so installs that take different routes can differ in the last
digits.
"""
from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

# A column is kept while its residual on the earlier kept columns is at least
# DEFAULT_RANK_TOL times the largest column norm.
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
    """QR factorization of a matrix A with its columns reordered, and its numerical rank.

    `q` has orthonormal columns and `r` is upper triangular so that
    ``q @ r`` reconstructs A with its columns permuted into `permutation`
    order: the `rank` columns the rank cut kept, ascending, then the ones it
    set aside (`dropped_columns`).  The R of A is also the R of any matrix
    X with ``X'X = A'A``, such as the tall design whose `triangle` A was
    taken from, so the methods that read X take it as an argument.
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

    @property
    def _cut(self) -> float:
        """The rank cut: `DEFAULT_RANK_TOL` times the largest column norm."""
        return DEFAULT_RANK_TOL * float(np.linalg.norm(self.r, axis=0).max(initial=0.0))

    def residual(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """`v` minus its least-squares fit on the retained columns of `x`.

        `x` has this R (class docstring).  The fit solves the semi-normal
        equations ``R11' R11 b = X_K' v`` and corrects b once by solving them
        again for its residual (corrected semi-normal equations: Björck,
        Numerical Methods for Least Squares Problems, 1996, section 6.6), so
        no Q of `x` is formed.
        """
        kept = list(self.permutation[: self.rank])
        b = np.zeros(x.shape[1])
        u = v
        for _ in range(2):
            b[kept] = self.solve_r11(self.solve_r11((x.T @ u)[kept], transpose=True))
            u = u - x @ b
        return u

    def new_direction(self, x: np.ndarray, v: np.ndarray) -> np.ndarray | None:
        """Unit vector that `v` adds to the span of `x`'s retained columns, or None.

        None when the residual of `v` on those columns is shorter than
        ``DEFAULT_RANK_TOL * max(largest column norm, ||v||)``: the rank cut
        of [X_retained, v] in design order, `v` last.
        """
        u = self.residual(x, v)
        norm = float(np.linalg.norm(u))
        if norm < max(self._cut, DEFAULT_RANK_TOL * float(np.linalg.norm(v))):
            return None
        return u / norm

    def well_conditioned(self, limit: float) -> bool:
        """Full rank, and the largest |R[i, i]| at most `limit` times the smallest."""
        pivots = np.abs(np.diag(self.r))
        return self.rank == len(self.permutation) and pivots.max() <= limit * pivots.min()

    def collinear_columns(self, inv_gram: np.ndarray) -> np.ndarray:
        """Mask, by input column, of the columns in a dependency the rank cut took as exact.

        `inv_gram` is `unscaled_covariance(self)`.  Column j is flagged when it

        (b) was dropped by the rank cut; or
        (c) was retained and, for some dropped column d,
            |(R11^{-1} R12)_jd| * ||e_j|| >= DEFAULT_RANK_TOL * (largest column norm),
            where ||e_j|| = 1/sqrt(inv_gram[j]) is the residual norm of
            column j on the other retained columns.  Without column j,
            column d would no longer fall inside the rank cut.
        """
        mask = np.zeros(len(self.permutation), dtype=bool)
        mask[list(self.dropped_columns)] = True
        if 0 < self.rank < len(self.permutation):
            kept = list(self.permutation[: self.rank])
            # Row i: coefficients of retained column kept[i] in each dropped column.
            coef = self.solve_r11(self.r[: self.rank, self.rank :])
            weight = np.abs(coef).max(axis=1) / np.sqrt(inv_gram[kept])
            mask[kept] |= weight >= self._cut
        return mask

    def solve_r11(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve ``R11 z = rhs``, or ``R11' z = rhs`` when `transpose` is set.

        ``R11 = r[:rank, :rank]`` is the retained block.  `rhs` is a vector
        or a matrix with `rank` rows; the result has its shape.
        """
        return _lapack().solve_upper(self.r[: self.rank, : self.rank], rhs, transpose)


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


# Rows of [X | y] that `triangle` takes at a time.  numpy's QR copies its
# input twice, so a step holds three copies of a block and the triangle
# stacked on it: 512 rows keep that below the one n x p copy a QR of the whole
# design makes at n = 2 000, and cost no more time than 1 024 at n = 20 000.
BLOCK_ROWS = 512


def triangle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The upper triangle R_a of [x | y], with ``R_a' R_a = [x | y]' [x | y]``.

    R_a has min(n, p + 1) rows and p + 1 columns.  For any subset S of x's
    columns, the least-squares fit of y on x's columns S has the same
    coefficients and rss as the fit of R_a's last column on R_a's columns S
    (Golub & Van Loan, Matrix Computations, section 5.3).  The rows are
    taken `BLOCK_ROWS` at a time: each block is written under the triangle
    of the rows before it, in one buffer, and that stack is reduced to the
    triangle of all the rows so far (a TSQR on a flat tree: Demmel,
    Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, 2012).  Neither Q
    nor a copy of x is formed.
    """
    n, p = x.shape
    stack = np.empty((min(n, BLOCK_ROWS) + p + 1, p + 1))
    done = 0
    for i in range(0, n, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, n - i)
        stack[done : done + rows, :p] = x[i : i + rows]
        stack[done : done + rows, p] = y[i : i + rows]
        r_a = np.linalg.qr(stack[: done + rows], mode="r")
        done = len(r_a)
        stack[:done] = r_a
    return r_a


def qr_pivoted(x) -> QrFactors:
    """Factor `x` by QR, cutting its rank in design order.

    The columns are taken left to right.  Column j is set aside when its
    residual on the earlier kept columns is shorter than `DEFAULT_RANK_TOL`
    times the largest column norm: of an exact dependency, the column that
    closes it goes, whatever the row order or the BLAS build (the rule of
    LINPACK's dqrdc2, which R's `lm` uses; Chambers & Hastie, Statistical
    Models in S, 1992, ch. 4).  As in dqrdc2, a set-aside column moves to
    the end and the columns after it are triangularized again, so the
    factors are those of the kept columns followed by the set-aside ones,
    and no later column is measured against a set-aside one.  The
    tolerance is fixed because `QrFactors.new_direction` (Breusch-Pagan's
    intercept cut) and `QrFactors.collinear_columns` (VIF's collinearity
    rule) are measured against the same one.

    Parameters
    ----------
    x : Matrix or array-like
        Matrix to factor, at least one row and one column: in the commands,
        a `triangle`'s columns, at most p + 1 rows.

    Returns
    -------
    QrFactors
    """
    a = as_matrix(x).array()
    q, r = np.linalg.qr(a)
    cut = DEFAULT_RANK_TOL * float(np.linalg.norm(r, axis=0).max())
    order = list(range(a.shape[1]))
    rank, scanned = 0, len(order) if cut > 0.0 else 0
    while rank < min(len(r), scanned):
        if abs(r[rank, rank]) >= cut:
            rank += 1
            continue
        moved = [*range(rank), *range(rank + 1, len(order)), rank]
        r, order, scanned = r[:, moved], [order[j] for j in moved], scanned - 1
        q2, r[rank:, rank:] = np.linalg.qr(r[rank:, rank:])
        q[:, rank:] = q[:, rank:] @ q2
    return QrFactors(q=q, r=r, permutation=tuple(order), rank=rank)


def solve_from_factors(factors: QrFactors, x, y: np.ndarray) -> LeastSquaresSolution:
    """Least squares coefficients for `y` given a factorization of `x`.

    Only the columns retained by the rank cut receive coefficients; dropped
    columns get exactly 0.0.  Because a dropped column lies (numerically) in
    the span of the retained ones, the residual sum of squares matches the
    full problem's.
    """
    a = as_matrix(x).array()
    rank = factors.rank
    beta = np.zeros(a.shape[1])
    if rank > 0:
        qty = factors.q.T @ y
        z = factors.solve_r11(qty[:rank])
        beta[list(factors.permutation[:rank])] = z
    fitted = a @ beta
    resid = y - fitted
    return LeastSquaresSolution(coefficients=beta, rss=float(resid @ resid), fitted=fitted)


def least_squares_solve(x, y) -> LeastSquaresSolution:
    """Solve ``min ||y - x b||^2`` with automatic dropping of collinear columns.

    The coefficients come from the QR of `triangle(x, y)`'s columns; the rss
    is measured from ``x @ coefficients``.
    """
    m = as_matrix(x)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if yv.shape[0] != m.rows:
        raise InvalidInputError("response length must match the matrix row count")
    if not np.all(np.isfinite(yv)):
        raise InvalidInputError("response entries must be finite")
    r_a = triangle(m.array(), yv)
    beta = solve_from_factors(qr_pivoted(r_a[:, :-1]), r_a[:, :-1], r_a[:, -1]).coefficients
    fitted = m.array() @ beta
    resid = yv - fitted
    return LeastSquaresSolution(coefficients=beta, rss=float(resid @ resid), fitted=fitted)


def unscaled_covariance(factors: QrFactors) -> np.ndarray:
    """Diagonal of the inverse Gram matrix ``(X'X)^{-1}`` of the retained columns.

    Entry j, indexed by original column, is the squared norm of the row of
    ``R11^{-1}`` that column j was ordered to; columns the rank cut dropped
    get inf.  Multiply by an error-variance estimate to get coefficient
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
# dtrtrs: every argument is passed by reference, then INFO, then a hidden
# length for each of the three character arguments.
_DTRTRS = (ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _DOUBLES, _INT,
           _DOUBLES, _INT, _INT, ctypes.c_size_t, ctypes.c_size_t, ctypes.c_size_t)


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _doubles(a: np.ndarray):
    return a.ctypes.data_as(_DOUBLES)


class _BundledLapack:
    """dtrtrs of numpy's bundled OpenBLAS, called as scipy calls it."""

    def __init__(self, dtrtrs) -> None:
        self._dtrtrs = dtrtrs

    def solve_upper(self, r11: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve ``r11 z = rhs``, or ``r11' z = rhs``, for upper-triangular `r11`."""
        k = r11.shape[0]
        b = np.array(rhs, dtype=float, order="F")
        if (r11.dtype != np.float64 or r11.shape != (k, k)
                or b.ndim not in (1, 2) or b.shape[0] != k):
            raise ValueError(
                f"{r11.dtype} {r11.shape} and {b.shape} do not form a triangular system")
        if b.size == 0:
            return b
        if r11.flags.f_contiguous:
            a, uplo, trans = r11, b"U", transpose
        else:
            # Read in Fortran order, a C-order copy of R11 is R11' (lower
            # triangular); scipy solves the transposed system there.
            a, uplo, trans = np.ascontiguousarray(r11), b"L", not transpose
        nrhs = 1 if b.ndim == 1 else b.shape[1]
        info = ctypes.c_int64()
        self._dtrtrs(uplo, b"T" if trans else b"N", b"N", _int(k), _int(nrhs), _doubles(a),
                     _int(k), _doubles(b), _int(k), ctypes.byref(info), 1, 1, 1)
        if info.value != 0:
            raise np.linalg.LinAlgError(f"LAPACK dtrtrs returned info = {info.value}")
        return b


class _ScipyLapack:
    """The same solve through `scipy.linalg`."""

    @staticmethod
    def solve_upper(r11: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        import scipy.linalg

        return scipy.linalg.solve_triangular(r11, rhs, trans="T" if transpose else "N")


def _load_bundled_lapack() -> _BundledLapack:
    """Bind dtrtrs in numpy's bundled OpenBLAS.

    Raises OSError when there is no single such library next to numpy and
    AttributeError when it lacks the symbol.
    """
    site = Path(np.__file__).resolve().parents[1]
    paths = sorted(site.glob(_BUNDLED_OPENBLAS))
    if len(paths) != 1:
        raise OSError(f"no single bundled OpenBLAS at {site / _BUNDLED_OPENBLAS}")
    dtrtrs = getattr(ctypes.CDLL(str(paths[0])), _SYMBOL.format("dtrtrs"))
    dtrtrs.argtypes, dtrtrs.restype = _DTRTRS, None
    return _BundledLapack(dtrtrs)


@functools.cache
def _lapack() -> _BundledLapack | _ScipyLapack:
    """The LAPACK route, chosen once per process: numpy's bundled OpenBLAS, else scipy."""
    try:
        return _load_bundled_lapack()
    except (OSError, AttributeError):
        return _ScipyLapack()
