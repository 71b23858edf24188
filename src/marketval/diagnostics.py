"""Model diagnostics: Breusch-Pagan test, VIF report, MAPE, plot series."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import numcore
from .distributions import chi2_sf
from .errors import InvalidInputError
from .features import KIND_BIAS, EncodedDataset
from .ols import FitResult, r_squared, total_sum_of_squares

BP_KOENKER = "koenker"
BP_ORIGINAL = "original"

VIF_UNCORRELATED = "uncorrelated"
VIF_MODERATE = "moderate"
VIF_HIGH = "high"

# A VIF this large (aux R^2 >= 1 - 1e-12) is treated as exact collinearity.
_COLLINEAR_VIF = 1e12
# Slack for the banding thresholds so exact boundary cases land on the
# documented side (vif computed from R^2 = 0.8 must band as moderate).
_BAND_SLACK = 1e-9


@dataclass(frozen=True)
class BreuschPaganResult:
    lm_statistic: float
    df: int
    p_value: float
    variant: str


@dataclass(frozen=True)
class VifEntry:
    column: str
    r_squared_aux: float
    vif: float  # math.inf when `infinite` is set
    band: str
    infinite: bool


@dataclass(frozen=True)
class VifReport:
    entries: tuple[VifEntry, ...]


def breusch_pagan(fit: FitResult, data: EncodedDataset, variant: str = BP_KOENKER,
                  factors: numcore.QrFactors | None = None) -> BreuschPaganResult:
    """Breusch-Pagan heteroscedasticity test of a fitted model.

    The auxiliary regression of g = e^2 / (rss/n) on the retained columns
    plus an intercept is a projection onto the first `rank` columns of Q
    from the pivoted QR of `data.design` (`factors`, computed when not
    given).  Without a bias column the basis gains the normalised part of
    the ones vector orthogonal to them, when its norm reaches
    DEFAULT_RANK_TOL * max(|R[0, 0]|, sqrt(n)): the rank cut of a pivoted QR
    of [1, X_retained] that pivots the ones vector last.  (Where columns
    shorter than sqrt(n) carry the near-dependency, such a QR pivots the
    ones vector first and cuts one of them instead, further from exact
    dependency, so near the cut it can report one df less.)  koenker takes
    LM = n * R^2_aux, original LM = ESS_aux / 2 (R^2 does not depend on the
    scale of g); a constant g gives LM = 0.  p = chi2_sf(LM, df),
    df = basis width - 1.  The null hypothesis is homoscedasticity.
    """
    if variant not in (BP_KOENKER, BP_ORIGINAL):
        raise InvalidInputError(f"unknown variant {variant!r}")
    if fit.df_resid < 1:
        raise InvalidInputError("Breusch-Pagan requires residual degrees of freedom")
    if factors is None:
        factors = numcore.qr_pivoted(data.design)
    n = fit.n_obs
    q = factors.q[:, : factors.rank]
    intercept = None
    if not data.has_bias:
        ones = 1.0 - q @ q.sum(axis=0)
        norm = float(np.linalg.norm(ones))
        if norm >= numcore.DEFAULT_RANK_TOL * max(abs(float(factors.r[0, 0])), math.sqrt(n)):
            intercept = ones / norm
    df = factors.rank - (0 if intercept is not None else 1)
    if df < 1:
        # No non-bias regressors survived: the test statistic is 0 by construction.
        return BreuschPaganResult(lm_statistic=0.0, df=0, p_value=1.0, variant=variant)
    e2 = np.asarray(fit.residuals) ** 2
    g = e2 / (fit.rss / n) if fit.rss > 0.0 else e2
    resid = g - q @ (q.T @ g)
    if intercept is not None:
        resid -= intercept * float(intercept @ resid)
    tss = total_sum_of_squares(g, True)
    rss = float(resid @ resid)
    if tss <= 0.0:
        lm = 0.0
    elif variant == BP_KOENKER:
        lm = n * r_squared(rss, tss)
    else:
        lm = max(0.0, tss - rss) / 2.0
    return BreuschPaganResult(
        lm_statistic=float(lm), df=df, p_value=chi2_sf(float(lm), df), variant=variant
    )


def _band(vif_value: float) -> str:
    if vif_value <= 1.0 + _BAND_SLACK:
        return VIF_UNCORRELATED
    if vif_value <= 5.0 * (1.0 + _BAND_SLACK):
        return VIF_MODERATE
    return VIF_HIGH


def vif(data: EncodedDataset, factors: numcore.QrFactors | None = None) -> VifReport:
    """Variance inflation factors for every non-bias column.

    VIF_j = 1 / (1 - R^2_j), where R^2_j is the R^2 of column j regressed
    on all the others: centered when the dataset has a bias column,
    uncentered otherwise.  Every VIF is read off one pivoted QR of the
    design, X P = Q R (`factors`, computed when not given), through the
    identity (Belsley, Kuh & Welsch, *Regression Diagnostics*, 1980)

        VIF_j = [(X'X)^{-1}]_jj * S_j,

    with S_j = sum_i (x_ij - mean_j)^2 when there is a bias column and
    S_j = sum_i x_ij^2 when there is none.  (X'X)^{-1} is
    `numcore.unscaled_covariance` of the columns the rank cut retained.

    An entry is flagged infinite, with r_squared_aux = 1.0, when the column

    (a) is constant (S_j = 0);
    (b) was dropped by the rank cut (`numcore.DEFAULT_RANK_TOL`);
    (c) sits in a dependency the rank cut took as exact: for some dropped
        column d, |(R11^{-1} R12)_jd| * ||e_j|| >= DEFAULT_RANK_TOL * |R[0, 0]|,
        where ||e_j|| = 1/sqrt([(X'X)^{-1}]_jj) is the residual norm of
        column j on the other retained columns.  Without column j, column d
        would no longer fall inside the rank cut; or
    (d) has VIF_j >= 1e12, which is R^2_j >= 1 - 1e-12.

    Otherwise r_squared_aux = 1 - 1/VIF_j, with VIF_j clamped to >= 1.

    Near-singular cases are decided by the R^2 cut (d).  A column dropped
    by the rank cut has a residual shorter than DEFAULT_RANK_TOL * |R[0, 0]|
    on the columns pivoted before it, so its VIF exceeds
    1e20 * S_j / R[0, 0]^2: the R^2 cut has fired already, unless S_j is
    below 1e-8 * R[0, 0]^2.  Approaching a dependency, the R^2 cut fires
    when the residual reaches 1e-6 * sqrt(S_j), long before the rank cut.
    The rank cut decides only for columns that small next to the largest
    one, which `ols.fit_ols` drops as well, and through (c) for the
    partners of a dropped column: those are infinite even when their R^2
    would stop short of 1 - 1e-12.
    """
    non_bias = [j for j, c in enumerate(data.columns) if c.kind != KIND_BIAS]
    if len(non_bias) < 2:
        raise InvalidInputError("vif needs at least 2 non-bias columns")
    a = data.design.array()
    if factors is None:
        factors = numcore.qr_pivoted(data.design)
    rank = factors.rank
    pivoted = list(factors.permutation[:rank])
    # Diagonal of the inverse Gram matrix by original column index.
    inv_gram = np.full(a.shape[1], math.inf)
    if rank > 0:
        cov = numcore.unscaled_covariance(factors).array()
        inv_gram[list(factors.retained_columns)] = np.diag(cov)
    infinite = np.zeros(a.shape[1], dtype=bool)
    infinite[list(factors.dropped_columns)] = True  # (b)
    if 0 < rank < a.shape[1]:
        r = factors.r
        # Row i: coefficients of retained column pivoted[i] in each dropped column.
        coef = scipy.linalg.solve_triangular(r[:rank, :rank], r[:rank, rank:])
        weight = np.abs(coef).max(axis=1) / np.sqrt(inv_gram[pivoted])
        infinite[pivoted] |= weight >= numcore.DEFAULT_RANK_TOL * abs(r[0, 0])  # (c)

    entries: list[VifEntry] = []
    for j in non_bias:
        spread = total_sum_of_squares(a[:, j], data.has_bias)
        v = max(1.0, float(inv_gram[j]) * spread)
        name = data.columns[j].name
        if spread <= 0.0 or infinite[j] or v >= _COLLINEAR_VIF:  # (a), (b), (c), (d)
            entries.append(VifEntry(name, 1.0, math.inf, VIF_HIGH, True))
        else:
            entries.append(VifEntry(name, 1.0 - 1.0 / v, v, _band(v), False))
    return VifReport(entries=tuple(entries))


def mape(actual, predicted) -> float:
    """Mean absolute percentage error, (100/n) * sum |a_i - p_i| / |a_i|."""
    a = np.asarray(actual, dtype=float).reshape(-1)
    p = np.asarray(predicted, dtype=float).reshape(-1)
    if a.size != p.size or a.size < 1:
        raise InvalidInputError("actual and predicted must have equal length >= 1")
    zeros = np.nonzero(a == 0.0)[0]
    if zeros.size:
        raise ZeroDivisionError(f"actual[{int(zeros[0])}] is zero; MAPE is undefined")
    return float(100.0 / a.size * np.sum(np.abs(a - p) / np.abs(a)))


@dataclass(frozen=True)
class PlotSeries:
    """Plot-ready point pairs extracted from a fit."""

    residual_series: tuple[tuple[float, float], ...]  # (fitted, residual)
    measured_predicted: tuple[tuple[float, float], ...]  # (actual, predicted)


def plot_series(fit: FitResult) -> PlotSeries:
    """Residual-vs-fitted and measured-vs-predicted pairs for plotting."""
    fitted = np.asarray(fit.fitted)
    resid = np.asarray(fit.residuals)
    actual = fitted + resid
    return PlotSeries(
        residual_series=tuple((float(f), float(r)) for f, r in zip(fitted, resid)),
        measured_predicted=tuple((float(a), float(f)) for a, f in zip(actual, fitted)),
    )
