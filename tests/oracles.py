"""Independent reference implementations the tests check against.

Everything here deliberately takes a different computational route from the
package: Gram-Schmidt instead of Householder reflections, explicit normal
equations and matrix inverses instead of triangular solves, numerical
quadrature instead of series/continued fractions.  Values asserted in the
test modules were computed with these oracles (or by hand) and then frozen.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from marketval import numcore
from marketval.diagnostics import (
    BP_KOENKER,
    VIF_HIGH,
    BreuschPaganResult,
    VifEntry,
    VifReport,
    _band,
)
from marketval.distributions import chi2_sf
from marketval.features import KIND_BIAS, EncodedDataset
from marketval.ols import FitResult, fit_ols
from marketval.selection import EliminationStep, EliminationTrace, ModelSummary


def gram_schmidt_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt QR of a full-column-rank matrix."""
    a = np.array(a, dtype=float)
    n, p = a.shape
    q = np.zeros((n, p))
    r = np.zeros((p, p))
    v = a.copy()
    for j in range(p):
        r[j, j] = np.linalg.norm(v[:, j])
        q[:, j] = v[:, j] / r[j, j]
        for k in range(j + 1, p):
            r[j, k] = q[:, j] @ v[:, k]
            v[:, k] = v[:, k] - r[j, k] * q[:, j]
    return q, r


def normal_equations_summary(x: np.ndarray, y: np.ndarray, has_bias: bool) -> dict:
    """Full OLS summary via explicit (X'X)^{-1}; requires full column rank."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    xtx_inv = np.linalg.inv(x.T @ x)
    beta = xtx_inv @ (x.T @ y)
    fitted = x @ beta
    resid = y - fitted
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2)) if has_bias else float(y @ y)
    df_resid = n - p
    df_model = p - (1 if has_bias else 0)
    sigma2 = rss / df_resid
    std_errors = np.sqrt(sigma2 * np.diag(xtx_inv))
    r2 = 1.0 - rss / tss
    c = 1 if has_bias else 0
    adj = 1.0 - (1.0 - r2) * (n - c) / df_resid
    f_stat = (r2 / df_model) / ((1.0 - r2) / df_resid)
    log_l = -0.5 * n * (math.log(2.0 * math.pi) + 1.0 + math.log(rss / n))
    aic = -2.0 * log_l + 2.0 * p
    bic = -2.0 * log_l + p * math.log(n)
    return {
        "coefficients": beta,
        "std_errors": std_errors,
        "fitted": fitted,
        "residuals": resid,
        "rss": rss,
        "r_squared": r2,
        "adj_r_squared": adj,
        "f_statistic": f_stat,
        "log_likelihood": log_l,
        "aic": aic,
        "bic": bic,
        "cov_unscaled": xtx_inv,
    }


def vif_by_aux_regressions(data: EncodedDataset) -> VifReport:
    """VIF of each non-bias column by regressing it on all the others.

    One pivoted-QR least-squares fit per column: R^2 is centered when the
    dataset has a bias column and uncentered otherwise, and R^2 >= 1 - 1e-12
    or a constant column gives an infinite entry.  The vif is taken as
    tss/rss rather than 1/(1 - R^2): the same number, without the rounding
    of R^2 near 1, which alone is ~1e-16 * vif relative.
    """
    a = data.design.array()
    has_bias = data.has_bias
    entries = []
    for j, meta in enumerate(data.columns):
        if meta.kind == KIND_BIAS:
            continue
        target = a[:, j]
        if has_bias:
            tss = float(np.sum((target - target.mean()) ** 2))
        else:
            tss = float(target @ target)
        if tss <= 0.0:
            entries.append(VifEntry(meta.name, 1.0, math.inf, VIF_HIGH, True))
            continue
        rss = numcore.least_squares_solve(np.delete(a, j, axis=1), target).rss
        r2 = min(1.0, max(0.0, 1.0 - rss / tss))
        if r2 >= 1.0 - 1e-12:
            entries.append(VifEntry(meta.name, r2, math.inf, VIF_HIGH, True))
        else:
            v = max(1.0, tss / rss)
            entries.append(VifEntry(meta.name, r2, v, _band(v), False))
    return VifReport(entries=tuple(entries))


def breusch_pagan_by_aux_regression(
    fit: FitResult, data: EncodedDataset, variant: str = BP_KOENKER
) -> BreuschPaganResult:
    """Breusch-Pagan test by an explicit auxiliary least-squares regression.

    The auxiliary design is [1, X_retained]: the columns the fit kept, with
    a ones column prepended when the model has no bias column, factored
    anew with its own rank cut.  The koenker variant regresses e^2 and
    takes LM = n * R^2 (centered); the original regresses
    g = e^2 / (rss/n) and takes LM = ESS / 2.  df is the auxiliary rank
    minus one, and a zero-variance target gives R^2 = ESS = 0.
    """
    n = fit.n_obs
    dropped = set(fit.dropped_columns)
    keep = [j for j, name in enumerate(data.column_names) if name not in dropped]
    aux = data.design.array()[:, keep]
    if not data.has_bias:
        aux = np.column_stack([np.ones(n), aux])
    e2 = np.asarray(fit.residuals) ** 2
    target = e2 if variant == BP_KOENKER else e2 / (fit.rss / n)
    solution = numcore.least_squares_solve(aux, target)
    tss = float(np.sum((target - target.mean()) ** 2))
    df = solution.rank - 1
    if tss <= 0.0:
        lm = 0.0
    elif variant == BP_KOENKER:
        lm = n * min(1.0, max(0.0, 1.0 - solution.rss / tss))
    else:
        lm = max(0.0, tss - solution.rss) / 2.0
    if df < 1:
        return BreuschPaganResult(lm_statistic=0.0, df=0, p_value=1.0, variant=variant)
    return BreuschPaganResult(
        lm_statistic=float(lm), df=df, p_value=chi2_sf(float(lm), df), variant=variant
    )


def backward_eliminate_by_refits(
    data: EncodedDataset, alpha: float, confidence_level: float = 0.95
) -> EliminationTrace:
    """Backward elimination that refits the full n-row design every round.

    Each round selects the kept columns out of the dataset, fits them with
    `fit_ols` and removes the column with the largest retained p-value
    (ties -> lowest index) while that p-value exceeds alpha; the last
    retained column is never removed, and a trace stopped there with
    p > alpha is non-conforming.
    """
    current = data
    fit = fit_ols(current, confidence_level)
    steps = []
    conforming = True
    while True:
        dropped = set(fit.dropped_columns)
        candidates = [
            (float(fit.p_values[j]), j, name)
            for j, name in enumerate(fit.column_names)
            if name not in dropped and not math.isnan(fit.p_values[j])
        ]
        if not candidates:
            break
        worst_p = max(p for p, _, _ in candidates)
        if worst_p <= alpha:
            break
        if fit.k_params == 1:
            conforming = False
            break
        worst_j = min(j for p, j, _ in candidates if p == worst_p)
        name = fit.column_names[worst_j]
        current = current.select_columns(
            [i for i in range(current.design.cols) if i != worst_j]
        )
        fit = fit_ols(current, confidence_level)
        steps.append(
            EliminationStep(
                name, worst_p, ModelSummary(fit.k_params, fit.r_squared, fit.adj_r_squared)
            )
        )
    return EliminationTrace(alpha, tuple(steps), fit, conforming)


def gaussian_density_log_product(resid: np.ndarray) -> float:
    """Sum of log N(0, rss/n) densities over the residuals."""
    resid = np.asarray(resid, dtype=float)
    n = resid.size
    sigma2 = float(resid @ resid) / n
    return float(
        np.sum(-0.5 * np.log(2.0 * math.pi * sigma2) - resid**2 / (2.0 * sigma2))
    )


_QUAD_OPTS = {"limit": 500, "epsabs": 1e-13, "epsrel": 1e-13}


def reg_inc_gamma_lower_quad(s: float, x: float) -> float:
    """P(s, x) by adaptive quadrature of the gamma density.

    Integrates whichever tail is smaller so the quadrature error stays
    absolute-small in the returned probability.
    """
    lg = math.lgamma(s)
    density = lambda t: math.exp((s - 1.0) * math.log(t) - t - lg)
    if x < s:
        value, _ = integrate.quad(density, 0.0, x, **_QUAD_OPTS)
        return value
    upper, _ = integrate.quad(density, x, math.inf, **_QUAD_OPTS)
    return 1.0 - upper


def reg_inc_beta_quad(a: float, b: float, x: float) -> float:
    """I_x(a, b) by adaptive quadrature of the beta density (smaller tail)."""
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    density = lambda t: math.exp(
        (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - lbeta
    )
    mean = a / (a + b)
    if x <= mean:
        value, _ = integrate.quad(density, 0.0, x, **_QUAD_OPTS)
        return value
    upper, _ = integrate.quad(density, x, 1.0, **_QUAD_OPTS)
    return 1.0 - upper


def t_two_sided_quad(t: float, df: int) -> float:
    """P(|T| >= |t|) by quadrature of the Student-t density over the tail."""
    t = abs(t)
    const = math.exp(
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    density = lambda u: const * (1.0 + u * u / df) ** (-(df + 1) / 2.0)
    value, _ = integrate.quad(density, t, math.inf, **_QUAD_OPTS)
    return 2.0 * value


def chi2_sf_quad(x: float, df: int) -> float:
    """P(X >= x) for chi-square by quadrature of the lower tail."""
    return 1.0 - reg_inc_gamma_lower_quad(df / 2.0, x / 2.0)


def f_sf_quad(f: float, df1: int, df2: int) -> float:
    """P(F >= f) by quadrature of the F density over the upper tail."""
    const = (
        math.lgamma((df1 + df2) / 2.0)
        - math.lgamma(df1 / 2.0)
        - math.lgamma(df2 / 2.0)
        + 0.5 * df1 * math.log(df1 / df2)
    )

    def density(u: float) -> float:
        return math.exp(
            const
            + (df1 / 2.0 - 1.0) * math.log(u)
            - (df1 + df2) / 2.0 * math.log(1.0 + df1 * u / df2)
        )

    value, _ = integrate.quad(density, f, math.inf, **_QUAD_OPTS)
    return value
