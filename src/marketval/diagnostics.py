"""Model diagnostics: Breusch-Pagan test, VIF report, MAPE, plot series."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def breusch_pagan(fit: FitResult) -> dict[str, BreuschPaganResult]:
    """Breusch-Pagan heteroscedasticity test of a fitted model, both variants.

    The auxiliary regression of g = e^2 / (rss/n) on the retained columns
    plus an intercept is a projection onto their span, solved on the fit's
    own R (`fit.factors`) and design by corrected semi-normal equations:
    g's residual is `QrFactors.residual`.  Without a bias column the ones
    vector is taken last: the basis gains the direction
    `QrFactors.new_direction` finds for it, unless the rank cut takes it as
    lying in that span.  The one projection gives both
    variants, keyed BP_KOENKER and BP_ORIGINAL: koenker LM = n * R^2_aux,
    original LM = ESS_aux / 2 (R^2 does not depend on the scale of g); a
    constant g gives LM = 0.  p = chi2_sf(LM, df), df = basis width - 1.
    The null hypothesis is homoscedasticity.
    """
    if fit.df_resid < 1:
        raise InvalidInputError("Breusch-Pagan requires residual degrees of freedom")
    factors, x = fit.factors, fit.design
    n = fit.n_obs
    rank = factors.rank
    intercept = None if fit.has_bias else factors.new_direction(x, np.ones(n))
    df = rank - (0 if intercept is not None else 1)
    if df < 1:
        # No non-bias regressors survived: the test statistic is 0 by construction.
        return {v: BreuschPaganResult(0.0, 0, 1.0, v) for v in (BP_KOENKER, BP_ORIGINAL)}
    e2 = np.asarray(fit.residuals) ** 2
    g = e2 / (fit.rss / n) if fit.rss > 0.0 else e2
    resid = factors.residual(x, g)
    if intercept is not None:
        resid -= intercept * float(intercept @ resid)
    tss = total_sum_of_squares(g, True)
    rss = float(resid @ resid)
    if tss <= 0.0:
        lms = {BP_KOENKER: 0.0, BP_ORIGINAL: 0.0}
    else:
        lms = {BP_KOENKER: n * r_squared(rss, tss), BP_ORIGINAL: max(0.0, tss - rss) / 2.0}
    return {v: BreuschPaganResult(lm, df, chi2_sf(lm, df), v) for v, lm in lms.items()}


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
    uncentered otherwise.  Every VIF is read off one QR of the design's
    triangle (`factors`, the fit's, or computed when not given), whose R is
    the design's, through the identity (Belsley, Kuh & Welsch, *Regression
    Diagnostics*, 1980)

        VIF_j = [(X'X)^{-1}]_jj * S_j,

    with S_j = sum_i (x_ij - mean_j)^2 when there is a bias column and
    S_j = sum_i x_ij^2 when there is none.  The diagonal [(X'X)^{-1}]_jj is
    `numcore.unscaled_covariance`: the squared norm of row j of R11^{-1}
    over the columns the rank cut retained, inf at the dropped ones.

    An entry is flagged infinite, with r_squared_aux = 1.0, when the column

    (a) is constant (S_j = 0);
    (b), (c) lies in a dependency the rank cut took as exact
        (`QrFactors.collinear_columns`): it was dropped, or it is a retained
        partner of a dropped column; or
    (d) has VIF_j >= 1e12, which is R^2_j >= 1 - 1e-12.

    Otherwise r_squared_aux = 1 - 1/VIF_j, with VIF_j clamped to >= 1.  A
    lone non-bias column has nothing to be regressed on: VIF 1 and
    r_squared_aux 0.  With no non-bias column the report is empty.

    Near-singular cases are decided by the R^2 cut (d).  A column dropped
    by the rank cut has a residual shorter than DEFAULT_RANK_TOL * c on the
    kept columns before it, where c is the largest column norm, so its VIF
    exceeds 1e20 * S_j / c^2: the R^2 cut has fired already, unless S_j is
    below 1e-8 * c^2.  Approaching a dependency, the R^2 cut fires
    when the residual reaches 1e-6 * sqrt(S_j), long before the rank cut.
    The rank cut decides only for columns that small next to the largest
    one, which `ols.fit_ols` drops as well, and through (c) for the
    partners of a dropped column: those are infinite even when their R^2
    would stop short of 1 - 1e-12.
    """
    non_bias = [j for j, c in enumerate(data.columns) if c.kind != KIND_BIAS]
    a = data.design.array()
    if factors is None:
        factors = numcore.qr_pivoted(numcore.triangle(a, data.response)[:, :-1])
    inv_gram = numcore.unscaled_covariance(factors)
    infinite = factors.collinear_columns(inv_gram)  # (b), (c)

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


def plot_series(fit: FitResult, actual) -> PlotSeries:
    """Residual-vs-fitted and measured-vs-predicted pairs for plotting.

    `actual` is the response the model was fitted to, as `mape` reads it;
    fitted + residual can differ from it in the last digits.
    """
    fitted = np.asarray(fit.fitted)
    resid = np.asarray(fit.residuals)
    return PlotSeries(
        residual_series=tuple((float(f), float(r)) for f, r in zip(fitted, resid)),
        measured_predicted=tuple((float(a), float(f)) for a, f in zip(actual, fitted, strict=True)),
    )
