"""Independent reference implementations the tests check against.

Everything here deliberately takes a different computational route from the
package: Gram-Schmidt instead of Householder reflections, explicit normal
equations and matrix inverses instead of triangular solves, numerical
quadrature instead of series/continued fractions, a dict per CSV row and a
list comprehension per dummy level instead of the package's fast paths.
Values asserted in the
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
from marketval.distributions import chi2_sf, t_critical_value, t_two_sided_p
from marketval.errors import InvalidInputError, OutOfRangeError, RowParseError
from marketval.features import (
    BIAS_COLUMN_NAME,
    KIND_BIAS,
    KIND_CONTINUOUS,
    KIND_ENCODED,
    ColumnMeta,
    EncodedDataset,
    PlayerRecord,
    PlayerTable,
    StandardizationParams,
    age_group,
    card_score,
    goal_contribution,
    height_group,
    match_group,
)
from marketval.ingest import (
    CSV_HEADER,
    RULE_AGE,
    RULE_MINUTES,
    RULE_TRANSFER,
    RULE_VALUE,
    FilterConfig,
    _csv_rows,
    _parse_flag,
    _parse_float,
    _parse_int,
)
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


def inverse_gram_diagonal_by_product(factors: numcore.QrFactors) -> np.ndarray:
    """[(X'X)^{-1}]_jj by original column, read off the full p x p inverse Gram.

    Forms R11^{-1} R11^{-T} as a matrix product, reorders its rows and
    columns from pivot order to original column order, symmetrises it and
    takes the diagonal.  Columns the rank cut dropped get inf.
    """
    rank = factors.rank
    diag = np.full(len(factors.permutation), math.inf)
    if rank == 0:
        return diag
    rinv = factors.solve_r11(np.eye(rank))
    cov_piv = rinv @ rinv.T
    order = np.argsort(np.array(factors.permutation[:rank]))
    cov = cov_piv[np.ix_(order, order)]
    cov = (cov + cov.T) / 2.0
    diag[list(factors.retained_columns)] = np.diag(cov)
    return diag


def inference_by_column_loop(fit: FitResult) -> dict[str, np.ndarray]:
    """`fit`'s inference vectors, recomputed one retained column at a time.

    The scalar loop `ols.coefficient_tests` replaced: the same operations
    in the same order, so its results must match `fit_ols`'s bit for bit.
    Reads the coefficients, rss, degrees of freedom, level and
    factorization from `fit`; dropped columns, and every column of a fit
    without inference, stay NaN.
    """
    p = len(fit.column_names)
    out = {name: np.full(p, math.nan)
           for name in ("std_errors", "t_values", "p_values", "ci_low", "ci_high")}
    if not fit.inference_available:
        return out
    beta, df_resid = fit.coefficients, fit.df_resid
    sigma2 = fit.rss / df_resid
    inv_gram = numcore.unscaled_covariance(fit.factors)
    tq = t_critical_value(1.0 - fit.confidence_level, df_resid)
    for j in fit.factors.retained_columns:
        se = math.sqrt(sigma2 * inv_gram[j])
        out["std_errors"][j] = se
        if se > 0.0:
            t = beta[j] / se
            out["t_values"][j] = t
            out["p_values"][j] = t_two_sided_p(t, df_resid)
        else:
            # zero residual variance: the coefficient is exact
            out["t_values"][j] = 0.0 if beta[j] == 0.0 else math.inf * np.sign(beta[j])
            out["p_values"][j] = 1.0 if beta[j] == 0.0 else 0.0
        out["ci_low"][j] = beta[j] - tq * se
        out["ci_high"][j] = beta[j] + tq * se
    return out


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

    The auxiliary design is [X_retained, 1]: the columns the fit kept, with
    a ones column appended when the model has no bias column, factored anew
    with its own rank cut, which takes the columns in that order.  The
    koenker variant regresses e^2 and takes LM = n * R^2 (centered); the
    original regresses g = e^2 / (rss/n) and takes LM = ESS / 2.  df is the auxiliary rank
    minus one, and a zero-variance target gives R^2 = ESS = 0.
    """
    n = fit.n_obs
    dropped = set(fit.dropped_columns)
    keep = [j for j, name in enumerate(data.column_names) if name not in dropped]
    aux = data.design.array()[:, keep]
    if not data.has_bias:
        aux = np.column_stack([aux, np.ones(n)])
    e2 = np.asarray(fit.residuals) ** 2
    target = e2 if variant == BP_KOENKER else e2 / (fit.rss / n)
    solution = numcore.least_squares_solve(aux, target)
    tss = float(np.sum((target - target.mean()) ** 2))
    df = numcore.qr_pivoted(aux).rank - 1
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
    return EliminationTrace(alpha, tuple(steps), fit, conforming, current)


def parse_players_csv_by_rows(data: bytes) -> PlayerTable:
    """The data rows of a player CSV, parsed cell by cell.

    Each row becomes a dict keyed by column, every integer cell goes through
    `_parse_int`, and each record is built from keyword arguments; the
    records are then made a table.  Decoding, the header check and the row
    numbering are the package's own.
    """
    records = []
    for line, row in _csv_rows(data):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise RowParseError(line, "row", f"expected {len(CSV_HEADER)} cells, got {len(row)}")
        cell = dict(zip(CSV_HEADER, row))
        try:
            record = PlayerRecord(
                name=cell["name"].strip(),
                league=cell["league"].strip(),
                club=cell["club"].strip(),
                age=_parse_int(cell["age"], line, "age"),
                height_cm=_parse_int(cell["height_cm"], line, "height_cm"),
                foot=cell["foot"].strip(),
                nationality=cell["nationality"].strip(),
                outfitter=cell["outfitter"].strip(),
                matches_played=_parse_int(cell["matches_played"], line, "matches_played"),
                goals=_parse_int(cell["goals"], line, "goals"),
                assists=_parse_int(cell["assists"], line, "assists"),
                yellow_cards=_parse_int(cell["yellow_cards"], line, "yellow_cards"),
                second_yellow_cards=_parse_int(
                    cell["second_yellow_cards"], line, "second_yellow_cards"
                ),
                red_cards=_parse_int(cell["red_cards"], line, "red_cards"),
                minutes_played=_parse_int(cell["minutes_played"], line, "minutes_played"),
                market_value_m_eur=_parse_float(
                    cell["market_value_m_eur"], line, "market_value_m_eur"
                ),
                mid_season_transfer=_parse_flag(
                    cell["mid_season_transfer"], line, "mid_season_transfer"
                ),
            )
        except InvalidInputError as exc:
            raise RowParseError(line, "record", str(exc)) from exc
        records.append(record)
    return PlayerTable.from_records(records)


def _first_failing_rule(record: PlayerRecord, cfg: FilterConfig) -> str | None:
    # Rule order is fixed: age, transfer, value, minutes.
    if not cfg.min_age <= record.age <= cfg.max_age:
        return RULE_AGE
    if cfg.exclude_mid_season_transfers and record.mid_season_transfer:
        return RULE_TRANSFER
    if record.market_value_m_eur < cfg.min_market_value_m_eur:
        return RULE_VALUE
    if record.minutes_played < cfg.min_minutes:
        return RULE_MINUTES
    return None


def apply_filters_by_records(
    records: list[PlayerRecord], cfg: FilterConfig
) -> tuple[list[PlayerRecord], list[tuple[str, str]]]:
    """The accepted records and the (name, rule) log, one record at a time.

    Each record is tested rule by rule in rule order with Python
    comparisons, and the first rule it fails is logged.
    """
    accepted, log = [], []
    for record in records:
        rule = _first_failing_rule(record, cfg)
        if rule is None:
            accepted.append(record)
        else:
            log.append((record.name, rule))
    return accepted, log


def encode_dataset_by_levels(records: list[PlayerRecord]) -> EncodedDataset:
    """The design built one indicator column per level.

    Every level's column is a list comprehension of ``v == level`` over all
    records, and the columns are stacked at the end.
    """
    if len(records) < 2:
        raise InvalidInputError("encoding needs at least 2 records")
    categorical = (
        ("league", lambda r: r.league),
        ("club", lambda r: r.club),
        ("age_group", lambda r: age_group(r.age)),
        ("height_group", lambda r: height_group(r.height_cm)),
        ("foot", lambda r: r.foot),
        ("nationality", lambda r: r.nationality),
        ("outfitter", lambda r: r.outfitter),
        ("match_group", lambda r: match_group(r.matches_played)),
    )
    continuous = (
        ("goal_contribution", lambda r: goal_contribution(r.goals, r.assists)),
        ("card_score", lambda r: float(card_score(r.yellow_cards, r.second_yellow_cards, r.red_cards))),
    )
    columns = [np.ones(len(records))]
    metas = [ColumnMeta(BIAS_COLUMN_NAME, KIND_BIAS, "bias")]
    dropped = {}
    for attr, extract in categorical:
        values = []
        for r in records:
            try:
                values.append(extract(r))
            except OutOfRangeError as exc:
                raise OutOfRangeError(f"player {r.name!r}: {exc}") from None
        levels = sorted(set(values))
        dropped[attr] = str(levels[0])
        for level in levels[1:]:
            columns.append(np.array([1.0 if v == level else 0.0 for v in values]))
            metas.append(ColumnMeta(f"{attr}={level}", KIND_ENCODED, attr, str(level)))
    std_params = []
    for attr, extract in continuous:
        v = np.array([extract(r) for r in records], dtype=float)
        mean = float(v.mean())
        std = float(v.std(ddof=1))
        if std == 0.0:
            columns.append(v - mean)
            std_params.append(StandardizationParams(attr, mean, 0.0, True))
        else:
            columns.append((v - mean) / std)
            std_params.append(StandardizationParams(attr, mean, std, False))
        metas.append(ColumnMeta(attr, KIND_CONTINUOUS, attr))
    return EncodedDataset(
        design=numcore.Matrix(np.column_stack(columns)),
        columns=tuple(metas),
        response=np.array([r.market_value_m_eur for r in records], dtype=float),
        standardization_params=tuple(std_params),
        dropped_levels=dropped,
    )


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
