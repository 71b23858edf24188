"""Tail probabilities for t, F and chi-square statistics.

The three distribution functions reduce to two regularized incomplete
special functions, which are implemented here directly rather than pulled
from a statistics library: the incomplete beta by its continued fraction
and the incomplete gamma by a series / continued-fraction split at
``x = s + 1``.  All p-values the package reports flow through this module.

Probabilities are returned as plain floats clamped to ``[0.0, 1.0]``.
"""
from __future__ import annotations

import math

from .errors import DomainError

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Convergence knobs for the series / continued-fraction evaluations.  The
# cap holds chi-square tails up to df ~5000 and t and F tails up to df 2e4.
_EPS = 1e-16
_FPMIN = 1e-300
_MAX_ITER = 500


def _stirling_rest(x: float) -> float:
    """ln Gamma(x) - ((x - 1/2) ln x - x + ln(2 pi)/2) for x >= 10, within 2e-14."""
    u = 1.0 / (x * x)
    return (1 / 12 - u * (1 / 360 - u * (1 / 1260 - u * (1 / 1680 - u / 1188)))) / x


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b); from max(a, b) >= 10 on, the Stirling parts of its log-gammas
    cancel in closed form instead of in floating point (DiDonato & Morris,
    ACM TOMS 708, 1992, ``betaln``)."""
    if a < b:
        a, b = b, a
    if a < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    rest = _stirling_rest(a) - _stirling_rest(a + b)
    if b < 10.0:
        return math.lgamma(b) - (a - 0.5) * math.log1p(b / a) - b * math.log(a + b) + b + rest
    return (_HALF_LOG_TWO_PI - 0.5 * math.log(b) - (a - 0.5) * math.log1p(b / a)
            + b * math.log(b / (a + b)) + _stirling_rest(b) + rest)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise DomainError(f"incomplete beta fraction did not converge in {_MAX_ITER} iterations")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    a, b : float
        Shape parameters, both > 0.
    x : float
        Integration limit in [0, 1].

    Returns
    -------
    float
        I_x(a, b) in [0, 1].
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError("reg_inc_beta requires a > 0 and b > 0")
    if not 0.0 <= x <= 1.0:
        raise DomainError("reg_inc_beta requires 0 <= x <= 1")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        value = front * _beta_cf(a, b, x) / a
    else:
        value = 1.0 - front * _beta_cf(b, a, 1.0 - x) / b
    return min(1.0, max(0.0, value))


def _gamma_series(s: float, x: float) -> float:
    """Series for the regularized lower incomplete gamma, x < s + 1."""
    ap = s
    total = 1.0 / s
    delta = total
    for _ in range(_MAX_ITER):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _EPS:
            break
    else:
        raise DomainError(f"incomplete gamma series did not converge in {_MAX_ITER} iterations")
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _gamma_cf(s: float, x: float) -> float:
    """Continued fraction for the regularized upper incomplete gamma, x >= s + 1."""
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise DomainError(f"incomplete gamma fraction did not converge in {_MAX_ITER} iterations")
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _reg_inc_gamma(s: float, x: float) -> tuple[float, float]:
    """Regularized lower and upper incomplete gamma ``(P(s, x), Q(s, x))``.

    Below the split at ``x = s + 1`` the series gives P, above it the
    continued fraction gives Q, and the other is its complement, so the
    smaller tail keeps full relative precision instead of cancelling
    against 1.
    """
    if x == 0.0:
        return 0.0, 1.0
    if x < s + 1.0:
        lower = _gamma_series(s, x)
        upper = 1.0 - lower
    else:
        upper = _gamma_cf(s, x)
        lower = 1.0 - upper
    return min(1.0, max(0.0, lower)), min(1.0, max(0.0, upper))


def reg_inc_gamma_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(s, x).

    Parameters
    ----------
    s : float
        Shape parameter, > 0.
    x : float
        Integration limit, >= 0.

    Returns
    -------
    float
        P(s, x) in [0, 1], non-decreasing in x.
    """
    if not s > 0.0:
        raise DomainError("reg_inc_gamma_lower requires s > 0")
    if not x >= 0.0:
        raise DomainError("reg_inc_gamma_lower requires x >= 0")
    return _reg_inc_gamma(s, x)[0]


def _check_df(df: int, name: str) -> int:
    if isinstance(df, bool) or not isinstance(df, (int,)):
        raise DomainError(f"{name} must be an integer >= 1")
    if df < 1:
        raise DomainError(f"{name} must be >= 1")
    return df


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of the Student t distribution.

    ``P(|T| >= |t|)`` for T with `df` degrees of freedom; equals
    ``I_x(df/2, 1/2)`` with ``x = df / (df + t^2)``.
    """
    _check_df(df, "df")
    if not math.isfinite(t):
        raise DomainError("t statistic must be finite")
    x = df / (df + t * t)
    return reg_inc_beta(df / 2.0, 0.5, x)


def f_sf(f: float, df1: int, df2: int) -> float:
    """Survival function of the F distribution, ``P(F_{df1, df2} >= f)``."""
    _check_df(df1, "df1")
    _check_df(df2, "df2")
    if not f >= 0.0:
        raise DomainError("f statistic must be >= 0")
    x = df2 / (df2 + df1 * f)
    return reg_inc_beta(df2 / 2.0, df1 / 2.0, x)


def chi2_sf(x: float, df: int) -> float:
    """Survival function of the chi-square distribution, ``P(X >= x)``.

    Equal to ``1 - reg_inc_gamma_lower(df/2, x/2)``; evaluated through the
    upper-tail continued fraction so small tails are not lost to
    cancellation (agreement with the complement is within one ulp).
    """
    _check_df(df, "df")
    if not x >= 0.0:
        raise DomainError("chi-square statistic must be >= 0")
    return _reg_inc_gamma(df / 2.0, x / 2.0)[1]


def t_critical_value(tail: float, df: int) -> float:
    """The t >= 0 whose two-sided tail ``P(|T| >= t)`` is `tail`.

    Taking the tail mass instead of a probability level keeps levels near 1
    exact: the 1 - 1e-16 interval's tail is 1.1e-16, while its quantile
    level (1 + c)/2 rounds to 1.0.  Bisection on `t_two_sided_p`; the
    bracket is narrowed until t is resolved to ~1e-12 relative, well inside
    the 1e-10 target.  A tail of 1 gives 0.0.
    """
    _check_df(df, "df")
    if not 0.0 < tail <= 1.0:
        raise DomainError("two-sided tail mass must be in (0, 1]")
    if tail == 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while t_two_sided_p(hi, df) > tail:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise DomainError("tail mass too small to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if t_two_sided_p(mid, df) > tail:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def student_t_quantile(q: float, df: int) -> float:
    """Quantile of the Student t distribution: `t_critical_value` of the tail 2(1 - q)."""
    _check_df(df, "df")
    if not 0.0 < q < 1.0:
        raise DomainError("quantile level must be in (0, 1)")
    if q < 0.5:
        return -student_t_quantile(1.0 - q, df)
    return t_critical_value(2.0 * (1.0 - q), df)
