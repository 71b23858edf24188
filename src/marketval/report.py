"""Text and JSON rendering of fits, traces and diagnostics.

The text summary reproduces the classic OLS results layout: a two-column
header block followed by the coefficient table.  Label strings and numeric
display precision are frozen here so golden-file tests stay meaningful:
R-squared values print with 3 decimals, F and the information criteria with
4 significant digits, the log-likelihood with 5, coefficients and interval
bounds with 4 decimals, t with 3, p-values with 3 (so anything below 5e-4
prints as "0.000").  JSON carries the full-precision values; non-finite
numbers serialize as null.  A zero is written without a sign in every
output: a triangular solve can return -0.0 for an exactly zero coefficient,
and ``x + 0.0`` turns it into 0.0 while leaving every other value as it is.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Any, Callable, get_type_hints

from .diagnostics import BreuschPaganResult, PlotSeries, VifReport
from .ols import FitResult, coefficient_table
from .selection import EliminationTrace

_WIDTH = 78


def _unsigned_zero(spec: str) -> Callable[[float], str]:
    """Formatter that writes ``spec % x`` with a zero's sign dropped.

    It is named ``fmt_`` plus the spec's precision and type (``fmt_3f`` for
    ``"%.3f"``), like the module-level name it is bound to.
    """
    def fmt(x: float) -> str:
        return spec % (x + 0.0)
    fmt.__name__ = fmt.__qualname__ = "fmt_" + spec.lstrip("%#.")
    return fmt


fmt_3f = _unsigned_zero("%.3f")
fmt_4f = _unsigned_zero("%.4f")
fmt_4g = _unsigned_zero("%#.4g")
fmt_5g = _unsigned_zero("%#.5g")
fmt_3g = _unsigned_zero("%#.3g")


def _header_row(llabel: str, lvalue: str, rlabel: str, rvalue: str) -> str:
    half = _WIDTH // 2
    left = f"{llabel:<19}{lvalue:>{half - 19}}"
    right = f"{rlabel:<21}{rvalue:>{half - 21 - 2}}"
    return f"{left}  {right}"


def render_summary(fit: FitResult) -> str:
    """The OLS results block: header statistics plus the coefficient table."""
    left = (
        ("Dep. Variable:", "y"),
        ("Model:", "OLS"),
        ("Method:", "Least Squares"),
        ("No. Observations:", str(fit.n_obs)),
        ("Df Residuals:", str(fit.df_resid)),
        ("Df Model:", str(fit.df_model)),
        ("Covariance Type:", fit.covariance_type),
    )
    right = (
        ("R-squared:", fmt_3f(fit.r_squared)),
        ("Adj. R-squared:", fmt_3f(fit.adj_r_squared)),
        ("F-statistic:", fmt_4g(fit.f_statistic)),
        ("Prob (F-statistic):", fmt_3g(fit.f_p_value)),
        ("Log-Likelihood:", fmt_5g(fit.log_likelihood)),
        ("AIC:", fmt_4g(fit.aic)),
        ("BIC:", fmt_4g(fit.bic)),
    )
    rule = "=" * _WIDTH
    lines = [
        "OLS Regression Results".center(_WIDTH).rstrip(),
        rule,
    ]
    for (ll, lv), (rl, rv) in zip(left, right):
        lines.append(_header_row(ll, lv, rl, rv))
    lines.append(rule)
    lines.extend(_coefficient_lines(fit))
    lines.append(rule)
    return "\n".join(lines) + "\n"


def _coefficient_lines(fit: FitResult) -> list[str]:
    lo_label = f"[{(1.0 - fit.confidence_level) / 2.0:.3f}"
    hi_label = f"{(1.0 + fit.confidence_level) / 2.0:.3f}]"
    name_w = max([len("")] + [len(n) for n in fit.column_names]) + 2
    name_w = max(name_w, 8)
    head = (
        f"{'':<{name_w}}{'coef':>12}{'std err':>10}{'t':>10}"
        f"{'P>|t|':>10}{lo_label:>10}{hi_label:>10}"
    )
    lines = [head, "-" * _WIDTH]
    if fit.inference_available:
        for row in coefficient_table(fit):
            lines.append(
                f"{row.name:<{name_w}}{fmt_4f(row.coef):>12}{fmt_4f(row.std_err):>10}"
                f"{fmt_3f(row.t):>10}{fmt_3f(row.p):>10}"
                f"{fmt_4f(row.ci_low):>10}{fmt_4f(row.ci_high):>10}"
            )
    else:
        for j in fit.factors.retained_columns:
            coef = fmt_4f(float(fit.coefficients[j]))
            lines.append(f"{fit.column_names[j]:<{name_w}}{coef:>12}" + " " * 50)
    if fit.factors.dropped_columns:
        lines.append("Dropped (collinear): " + ", ".join(fit.dropped_columns))
    return lines


def _clean(obj: Any) -> Any:
    """Replace non-finite floats with None so JSON stays standard, and -0.0 with 0.0."""
    if isinstance(obj, float):
        return obj + 0.0 if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def json_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, two-space indent, UTF-8 friendly."""
    return json.dumps(_clean(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# fit.json's scalar block: every `FitResult` field that holds one number or flag.
# (`covariance_type`, a class constant, is added by name.)
_FIT_SCALARS = [name for name, t in get_type_hints(FitResult).items() if t in (int, float, bool)]


def fit_to_dict(fit: FitResult) -> dict:
    dropped = fit.factors.dropped_columns
    columns = []
    for j, name in enumerate(fit.column_names):
        columns.append(
            {
                "name": name,
                "coef": float(fit.coefficients[j]),
                "std_err": float(fit.std_errors[j]),
                "t": float(fit.t_values[j]),
                "p": float(fit.p_values[j]),
                "ci_low": float(fit.ci_low[j]),
                "ci_high": float(fit.ci_high[j]),
                "dropped": j in dropped,
            }
        )
    return {
        **{name: getattr(fit, name) for name in _FIT_SCALARS},
        "covariance_type": fit.covariance_type,
        "columns": columns,
        "dropped_columns": list(fit.dropped_columns),
        "fitted": fit.fitted.tolist(),
        "residuals": fit.residuals.tolist(),
    }


def trace_to_dict(trace: EliminationTrace) -> dict:
    return {
        "alpha": trace.alpha,
        "conforming": trace.conforming,
        "steps": [asdict(s) for s in trace.steps],
        "final_model": {
            "k_params": trace.final_fit.k_params,
            "r_squared": trace.final_fit.r_squared,
            "adj_r_squared": trace.final_fit.adj_r_squared,
            "columns": list(trace.final_fit.column_names),
        },
    }


def diagnostics_to_dict(
    bp_results: dict[str, BreuschPaganResult],
    selected_variant: str,
    vif_report: VifReport,
    mape_value: float,
) -> dict:
    return {
        "breusch_pagan": {
            "selected_variant": selected_variant,
            **{variant: asdict(r) for variant, r in bp_results.items()},
        },
        "vif": [asdict(e) for e in vif_report.entries],  # an infinite vif is null
        "mape_percent": mape_value,
    }


def plot_series_csv(series: PlotSeries) -> tuple[str, str]:
    """residuals.csv and measured_predicted.csv contents (full precision)."""
    residual_lines = ["fitted,residual"]
    residual_lines += [f"{f + 0.0!r},{r + 0.0!r}" for f, r in series.residual_series]
    mp_lines = ["actual,predicted"]
    mp_lines += [f"{a + 0.0!r},{p + 0.0!r}" for a, p in series.measured_predicted]
    return "\n".join(residual_lines) + "\n", "\n".join(mp_lines) + "\n"
