"""OLS fitting with the full inferential summary.

Coefficients come from the rank-revealing solver in `numcore`, so exactly
collinear columns are silently dropped (coefficient 0, no inference) rather
than crashing the fit.  The summary statistics follow the classical
Gaussian-ML conventions: R-squared against a centered total sum of squares
when a bias column is present and an uncentered one otherwise, adjusted
R-squared penalized by residual degrees of freedom, the overall F test,
and log-likelihood-based AIC/BIC with the parameter count including every
retained column (bias included).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions, numcore
from .errors import (
    DegenerateModelError,
    DegenerateResponseError,
    InferenceUnavailableError,
    InvalidInputError,
)
from .features import EncodedDataset

COVARIANCE_TYPE = "nonrobust"

# rss below this fraction of TSS is treated as an exact fit.
_PERFECT_FIT_RATIO = 1e-28


@dataclass(frozen=True)
class FitResult:
    """Everything a regression summary block and coefficient table needs.

    Vectors are indexed like the design columns.  Entries for dropped
    (collinear) columns are 0.0 in `coefficients` and NaN in the inference
    vectors.  `log_likelihood`, `aic` and `bic` are NaN when
    `likelihood_available` is False (perfect fit); the inference vectors
    are NaN throughout when `inference_available` is False (no residual
    degrees of freedom).  `factors` is the pivoted QR of the design the
    model was fitted on and the only record of which columns it kept:
    `dropped_columns` and `retained_columns` read their names from it.
    Breusch-Pagan, VIF and backward elimination read it instead of
    factoring the design again.
    """

    n_obs: int
    k_params: int
    df_model: int
    df_resid: int
    has_bias: bool
    column_names: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    confidence_level: float
    r_squared: float
    adj_r_squared: float
    f_statistic: float
    f_p_value: float
    log_likelihood: float
    aic: float
    bic: float
    rss: float
    residuals: np.ndarray
    fitted: np.ndarray
    inference_available: bool
    likelihood_available: bool
    factors: numcore.QrFactors = field(compare=False, repr=False)
    covariance_type: str = COVARIANCE_TYPE

    @property
    def dropped_columns(self) -> tuple[str, ...]:
        return tuple(self.column_names[j] for j in self.factors.dropped_columns)

    @property
    def retained_columns(self) -> tuple[str, ...]:
        return tuple(self.column_names[j] for j in self.factors.retained_columns)


def total_sum_of_squares(y: np.ndarray, has_bias: bool) -> float:
    """Sum of squares R^2 is measured against: centered with a bias column, raw without."""
    if has_bias:
        return float(np.sum((y - y.mean()) ** 2))
    return float(y @ y)


def r_squared(rss: float, tss: float) -> float:
    """1 - rss/tss, clamped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - rss / tss))


def adjusted_r_squared(r_squared: float, n_obs: int, df_resid: int, has_bias: bool) -> float:
    """1 - (1 - R^2) * (n - c) / df_resid, with c = 1 when a bias column is present."""
    if df_resid < 1:
        return math.nan
    c = 1 if has_bias else 0
    return 1.0 - (1.0 - r_squared) * (n_obs - c) / df_resid


def f_statistic(r_squared: float, df_model: int, df_resid: int) -> float:
    """Overall F statistic, (R^2/df_model) / ((1-R^2)/df_resid)."""
    if df_model < 1 or df_resid < 1:
        return math.nan
    if r_squared >= 1.0:
        return math.inf
    return (r_squared / df_model) / ((1.0 - r_squared) / df_resid)


def log_likelihood(rss: float, n: int) -> float:
    """Gaussian maximum log-likelihood of a fit with the given rss.

    Uses the ML variance estimate rss/n, so
    logL = -(n/2) * (ln 2*pi + 1 + ln(rss/n)).  An rss of exactly 0 has no
    finite maximum; NaN is returned as the explicit marker.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if rss < 0:
        raise InvalidInputError("rss must be >= 0")
    if rss == 0.0:
        return math.nan
    return -0.5 * n * (math.log(2.0 * math.pi) + 1.0 + math.log(rss / n))


@dataclass(frozen=True)
class InformationCriteria:
    aic: float
    bic: float


def information_criteria(log_l: float, k_params: int, n: int) -> InformationCriteria:
    """AIC and BIC from a log-likelihood and a parameter count.

    aic = -2 logL + 2 k;  bic = -2 logL + k ln n.  `k_params` counts every
    estimated parameter, the bias included.
    """
    if k_params < 1:
        raise InvalidInputError("k_params must be >= 1")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    return InformationCriteria(
        aic=-2.0 * log_l + 2.0 * k_params,
        bic=-2.0 * log_l + k_params * math.log(n),
    )


def fit_ols(data: EncodedDataset, confidence_level: float = 0.95) -> FitResult:
    """Fit OLS on an encoded dataset and compute the complete summary.

    Parameters
    ----------
    data : EncodedDataset
        Design matrix, column metadata and response.
    confidence_level : float
        Level for the stored coefficient confidence intervals.

    Returns
    -------
    FitResult

    Raises
    ------
    DegenerateResponseError
        If the total sum of squares is zero (constant response against a
        bias column, or an all-zero response without one), or if it or the
        residual sum of squares overflows float64.
    """
    if not 0.0 < confidence_level < 1.0:
        raise InvalidInputError("confidence_level must be in (0, 1)")
    x = data.design
    y = np.asarray(data.response, dtype=float)
    n = x.rows
    p = x.cols

    factors = numcore.qr_pivoted(x)
    if factors.rank == 0:
        raise DegenerateModelError("design matrix has numerical rank zero")
    has_bias = data.has_bias
    with np.errstate(over="ignore", invalid="ignore"):  # reported as an error below
        solution = numcore.solve_from_factors(factors, x, y)
        tss = total_sum_of_squares(y, has_bias)
    rss = solution.rss
    if not (math.isfinite(tss) and math.isfinite(rss)):
        raise DegenerateResponseError(f"response sums of squares overflow (tss {tss}, rss {rss})")
    if tss <= 0.0:
        raise DegenerateResponseError("response has zero total sum of squares")
    beta = solution.coefficients
    fitted = solution.fitted
    residuals = y - fitted
    rank = factors.rank

    k_params = rank
    df_resid = n - rank
    df_model = rank - (1 if has_bias else 0)
    r2 = r_squared(rss, tss)
    perfect = rss == 0.0 or rss <= tss * _PERFECT_FIT_RATIO

    inference_available = df_resid >= 1
    likelihood_available = not perfect

    std_errors = np.full(p, math.nan)
    t_values = np.full(p, math.nan)
    p_values = np.full(p, math.nan)
    ci_low = np.full(p, math.nan)
    ci_high = np.full(p, math.nan)

    if inference_available:
        sigma2 = rss / df_resid
        inv_gram = numcore.unscaled_covariance(factors)
        tq = distributions.student_t_quantile((1.0 + confidence_level) / 2.0, df_resid)
        for j in factors.retained_columns:
            se = math.sqrt(sigma2 * inv_gram[j])
            std_errors[j] = se
            if se > 0.0:
                t = beta[j] / se
                t_values[j] = t
                p_values[j] = distributions.t_two_sided_p(t, df_resid)
            else:
                # zero residual variance: the coefficient is exact
                t_values[j] = 0.0 if beta[j] == 0.0 else math.inf * np.sign(beta[j])
                p_values[j] = 1.0 if beta[j] == 0.0 else 0.0
            ci_low[j] = beta[j] - tq * se
            ci_high[j] = beta[j] + tq * se

    f_stat = f_statistic(r2, df_model, df_resid)
    if math.isnan(f_stat):
        f_p = math.nan
    elif math.isinf(f_stat):
        f_p = 0.0
    else:
        f_p = distributions.f_sf(f_stat, df_model, df_resid)

    if likelihood_available:
        log_l = log_likelihood(rss, n)
        ic = information_criteria(log_l, k_params, n)
        aic, bic = ic.aic, ic.bic
    else:
        log_l = aic = bic = math.nan

    return FitResult(
        n_obs=n,
        k_params=k_params,
        df_model=df_model,
        df_resid=df_resid,
        has_bias=has_bias,
        column_names=data.column_names,
        coefficients=beta,
        std_errors=std_errors,
        t_values=t_values,
        p_values=p_values,
        ci_low=ci_low,
        ci_high=ci_high,
        confidence_level=confidence_level,
        r_squared=r2,
        adj_r_squared=adjusted_r_squared(r2, n, df_resid, has_bias),
        f_statistic=f_stat,
        f_p_value=f_p,
        log_likelihood=log_l,
        aic=aic,
        bic=bic,
        rss=rss,
        residuals=residuals,
        fitted=fitted,
        inference_available=inference_available,
        likelihood_available=likelihood_available,
        factors=factors,
    )


@dataclass(frozen=True)
class CoefficientRow:
    name: str
    coef: float
    std_err: float
    t: float
    p: float
    ci_low: float
    ci_high: float


def coefficient_table(fit: FitResult) -> list[CoefficientRow]:
    """Per-coefficient inference rows for the retained columns.

    Confidence bounds are the fit's own `ci_low`/`ci_high`, at the level
    `fit_ols` stored.  Dropped columns carry no inference and are omitted.
    """
    if not fit.inference_available:
        raise InferenceUnavailableError("fit has no residual degrees of freedom")
    return [
        CoefficientRow(
            name=fit.column_names[j],
            coef=float(fit.coefficients[j]),
            std_err=float(fit.std_errors[j]),
            t=float(fit.t_values[j]),
            p=float(fit.p_values[j]),
            ci_low=float(fit.ci_low[j]),
            ci_high=float(fit.ci_high[j]),
        )
        for j in fit.factors.retained_columns
    ]
