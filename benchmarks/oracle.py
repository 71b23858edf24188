"""Independent checks of the files a marketval command writes.

The design matrix comes from marketval's own parse/filter/encode path (its
encoding has its own golden tests); every statistic is recomputed here by a
different route: `numpy.linalg.lstsq` (SVD based) instead of the package's
pivoted QR, explicit Gram inverses for standard errors, and `scipy.stats`
for tail probabilities instead of the package's continued fractions.

Each check returns a list of human-readable mismatches; empty means the
output agrees with the oracle.

Usage: python3 benchmarks/oracle.py JOBS_JSON, where JOBS_JSON lists
``{"command", "out", "csv", "filters"}`` objects; prints one JSON list of
mismatch lists, in job order.
"""
from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
from scipy import stats

from marketval.features import encode_dataset
from marketval.ingest import FilterConfig, apply_filters, parse_players_csv

# Relative tolerances; the package's own suite holds it to tighter ones.
COEF_RTOL = 1e-7
RSS_RTOL = 1e-8
SE_RTOL = 1e-6
P_RTOL = 1e-6
P_ATOL = 1e-12
STAT_RTOL = 1e-6
# Auxiliary R^2 the package treats as exact collinearity.
COLLINEAR_R2 = 1.0 - 1e-12


def load_design(csv_bytes: bytes, filters: dict) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Design matrix, column names and response as the CLI builds them."""
    records = parse_players_csv(csv_bytes)
    accepted = apply_filters(list(records), FilterConfig(**filters)).accepted
    data = encode_dataset(list(accepted))
    return np.array(data.design.array()), list(data.column_names), np.array(data.response)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _lstsq(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ beta
    return beta, float(resid @ resid)


def check_fit(fit: dict, x: np.ndarray, names: list[str], y: np.ndarray) -> list[str]:
    """Check a fit.json: coefficients and rss by lstsq, se/t by the Gram
    inverse, p-values and the F test's p by scipy.stats."""
    bad: list[str] = []
    col = {n: j for j, n in enumerate(names)}
    cols = fit["columns"]
    kept = [c for c in cols if not c["dropped"]]
    for c in cols:
        if c["dropped"] and c["coef"] != 0.0:
            bad.append(f"dropped column {c['name']} has coefficient {c['coef']}")
    xr = x[:, [col[c["name"]] for c in kept]]
    beta, rss = _lstsq(xr, y)
    scale = max(1.0, float(np.max(np.abs(beta))))
    for c, b in zip(kept, beta):
        if abs(c["coef"] - b) > COEF_RTOL * scale:
            bad.append(f"coef {c['name']}: {c['coef']!r} vs lstsq {b!r}")
    if not _close(fit["rss"], rss, RSS_RTOL):
        bad.append(f"rss {fit['rss']!r} vs lstsq {rss!r}")
    n, df = x.shape[0], fit["df_resid"]
    if df != n - len(kept):
        bad.append(f"df_resid {df} vs n - k = {n - len(kept)}")
        return bad
    se = np.sqrt(rss / df * np.diag(np.linalg.inv(xr.T @ xr)))
    for c, s, b in zip(kept, se, beta):
        if not _close(c["std_err"], float(s), SE_RTOL):
            bad.append(f"std_err {c['name']}: {c['std_err']!r} vs {float(s)!r}")
        if not _close(c["t"], float(b / s), SE_RTOL, SE_RTOL):
            bad.append(f"t {c['name']}: {c['t']!r} vs {float(b / s)!r}")
        p_ref = float(2.0 * stats.t.sf(abs(c["t"]), df))
        if not _close(c["p"], p_ref, P_RTOL, P_ATOL):
            bad.append(f"p {c['name']}: {c['p']!r} vs scipy {p_ref!r}")
    if fit["f_statistic"] is not None:
        f_ref = float(stats.f.sf(fit["f_statistic"], fit["df_model"], df))
        if not _close(fit["f_p_value"], f_ref, P_RTOL, 1e-300):
            bad.append(f"f_p_value {fit['f_p_value']!r} vs scipy {f_ref!r}")
    return bad


def _r2_ess(x: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """Centered R^2 and ESS of `target` on `x` (whose first column is the bias)."""
    tss = float(np.sum((target - target.mean()) ** 2))
    if tss <= 0.0:
        return 1.0, 0.0
    _, rss = _lstsq(x, target)
    return 1.0 - rss / tss, tss - rss


def check_diagnostics(diag: dict, residuals_csv: bytes, x: np.ndarray, names: list[str],
                      y: np.ndarray) -> list[str]:
    """Check diagnostics.json and residuals.csv: residuals by lstsq, both
    Breusch-Pagan LM statistics, their chi-square p by scipy.stats, and each
    VIF by regressing the column on all the others."""
    bad: list[str] = []
    col = {n: j for j, n in enumerate(names)}
    vif_names = [e["column"] for e in diag["vif"]]
    xm = x[:, [0] + [col[n] for n in vif_names]]  # bias first, as the CLI's model data
    n = xm.shape[0]
    beta, rss = _lstsq(xm, y)
    resid = y - xm @ beta
    rows = list(csv.reader(io.StringIO(residuals_csv.decode("utf-8"))))[1:]
    got = np.array([float(r[1]) for r in rows])
    if got.shape != resid.shape or np.max(np.abs(got - resid)) > COEF_RTOL * max(1.0, float(np.max(np.abs(y)))):
        bad.append("residuals.csv differs from lstsq residuals")

    rank = int(np.linalg.matrix_rank(xm))
    e2 = resid**2
    r2_k, _ = _r2_ess(xm, e2)
    _, ess_o = _r2_ess(xm, e2 / (rss / n))
    for variant, lm_ref in (("koenker", n * r2_k), ("original", ess_o / 2.0)):
        got_bp = diag["breusch_pagan"][variant]
        if got_bp["df"] != rank - 1:
            bad.append(f"BP {variant} df {got_bp['df']} vs rank - 1 = {rank - 1}")
        if not _close(got_bp["lm_statistic"], lm_ref, STAT_RTOL, 1e-9):
            bad.append(f"BP {variant} LM {got_bp['lm_statistic']!r} vs {lm_ref!r}")
        p_ref = float(stats.chi2.sf(got_bp["lm_statistic"], got_bp["df"]))
        if not _close(got_bp["p_value"], p_ref, P_RTOL, P_ATOL):
            bad.append(f"BP {variant} p {got_bp['p_value']!r} vs scipy {p_ref!r}")

    for k, entry in enumerate(diag["vif"], start=1):
        r2, _ = _r2_ess(np.delete(xm, k, axis=1), xm[:, k])
        if abs(r2 - COLLINEAR_R2) < 1e-9:
            continue  # on the collinearity cut; either flag is defensible
        if entry["infinite"] != (r2 >= COLLINEAR_R2):
            bad.append(f"VIF {entry['column']}: infinite={entry['infinite']} vs aux R^2 {r2!r}")
        elif not entry["infinite"] and not _close(entry["vif"], 1.0 / (1.0 - r2), STAT_RTOL):
            bad.append(f"VIF {entry['column']}: {entry['vif']!r} vs {1.0 / (1.0 - r2)!r}")

    mape_ref = float(100.0 / n * np.sum(np.abs(resid) / np.abs(y)))
    if not _close(diag["mape_percent"], mape_ref, STAT_RTOL):
        bad.append(f"MAPE {diag['mape_percent']!r} vs {mape_ref!r}")
    return bad


def check_outputs(command: str, out_dir: Path, x: np.ndarray, names: list[str],
                  y: np.ndarray) -> list[str]:
    """Oracle check of the outputs one command wrote into `out_dir`, given
    the design `load_design` built for the command's input and filters."""
    if command == "diagnose":
        diag = json.loads((out_dir / "diagnostics.json").read_bytes())
        return check_diagnostics(diag, (out_dir / "residuals.csv").read_bytes(), x, names, y)
    return check_fit(json.loads((out_dir / "fit.json").read_bytes()), x, names, y)



def main(jobs_path: str) -> None:
    designs: dict[tuple, tuple] = {}
    results = []
    for job in json.loads(Path(jobs_path).read_text(encoding="utf-8")):
        key = (job["csv"], json.dumps(job["filters"], sort_keys=True))
        try:
            if key not in designs:
                designs[key] = load_design(Path(job["csv"]).read_bytes(), job["filters"])
            results.append(check_outputs(job["command"], Path(job["out"]), *designs[key]))
        except Exception as exc:  # unreadable or malformed output: a failed check
            results.append([f"{type(exc).__name__}: {exc}"])
    print(json.dumps(results))


if __name__ == "__main__":
    main(sys.argv[1])
