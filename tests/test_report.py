"""Rendering: frozen text layout, JSON shape, and plot-series CSV."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from marketval.diagnostics import (
    BP_KOENKER,
    BP_ORIGINAL,
    PlotSeries,
    breusch_pagan,
    mape,
    plot_series,
    vif,
)
from marketval.ols import fit_ols
from marketval.report import (
    diagnostics_to_dict,
    fit_to_dict,
    fmt_3f,
    fmt_3g,
    fmt_4f,
    fmt_4g,
    fmt_5g,
    json_dumps,
    plot_series_csv,
    render_summary,
    trace_to_dict,
)
from marketval.selection import backward_eliminate

from conftest import dataset_from_arrays


class TestNumberFormats:
    def test_three_decimals(self):
        assert fmt_3f(0.0736382701203026) == "0.074"
        assert fmt_3f(0.00049) == "0.000"
        assert fmt_3f(0.00051) == "0.001"

    def test_four_decimals(self):
        assert fmt_4f(51.3703) == "51.3703"
        assert fmt_4f(-0.5) == "-0.5000"

    def test_four_significant(self):
        assert fmt_4g(1106.70) == "1107."
        assert fmt_4g(974.1599) == "974.2"
        assert fmt_4g(833.5) == "833.5"
        assert fmt_4g(13.285714285714286) == "13.29"

    def test_five_significant(self):
        assert fmt_5g(-363.75) == "-363.75"
        assert fmt_5g(-419.95874) == "-419.96"

    def test_three_significant(self):
        assert fmt_3g(4.046e-17) == "4.05e-17"
        assert fmt_3g(0.0736382701203026) == "0.0736"

    @pytest.mark.parametrize("fmt", [fmt_3f, fmt_4f, fmt_4g, fmt_5g, fmt_3g])
    def test_negative_zero_prints_without_sign(self, fmt):
        assert fmt(-0.0) == fmt(0.0)
        assert fmt(np.float64(-0.0)) == fmt(0.0)
        assert not fmt(0.0).startswith("-")


def _strong_fit(n=100, seed=11):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    y = 10.0 + 3.0 * x1 + rng.normal(size=n)
    design = np.column_stack([np.ones(n), x1])
    return fit_ols(dataset_from_arrays(design, y))


class TestRenderSummary:
    def test_frozen_labels(self):
        text = render_summary(_strong_fit())
        for label in (
            "OLS Regression Results",
            "Dep. Variable:",
            "Model:",
            "Method:",
            "Least Squares",
            "No. Observations:",
            "Df Residuals:",
            "Df Model:",
            "Covariance Type:",
            "R-squared:",
            "Adj. R-squared:",
            "F-statistic:",
            "Prob (F-statistic):",
            "Log-Likelihood:",
            "AIC:",
            "BIC:",
            "coef",
            "std err",
            "P>|t|",
            "[0.025",
            "0.975]",
        ):
            assert label in text, label

    def test_line_width_bounded(self):
        text = render_summary(_strong_fit())
        assert all(len(line) <= 78 for line in text.splitlines())
        assert text.endswith("\n")

    def test_tiny_p_prints_as_zero(self):
        text = render_summary(_strong_fit())
        row = next(l for l in text.splitlines() if l.startswith("x1"))
        assert " 0.000" in row

    def test_counts_rendered(self):
        fit = _strong_fit()
        text = render_summary(fit)
        assert str(fit.n_obs) in text
        assert f"Df Residuals:{'':>0}" in text
        assert fit.covariance_type == "nonrobust"
        assert "nonrobust" in text

    def test_collinear_footer(self):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=30)
        design = np.column_stack([np.ones(30), x1, x1])
        y = 1.0 + x1 + rng.normal(size=30)
        fit = fit_ols(dataset_from_arrays(design, y))
        text = render_summary(fit)
        assert "Dropped (collinear): x2" in text
        rows = [l for l in text.splitlines() if l.startswith("x2 ")]
        assert rows == []

    def test_confidence_level_changes_interval_labels(self):
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=30)
        design = np.column_stack([np.ones(30), x1])
        y = 1.0 + x1 + rng.normal(size=30)
        fit = fit_ols(dataset_from_arrays(design, y), confidence_level=0.90)
        text = render_summary(fit)
        assert "[0.050" in text
        assert "0.950]" in text


def _constructed_header_fit():
    """A 105-observation, 53-parameter fit with pinned header statistics.

    The response is assembled from an orthonormal basis of the design's
    column space, so R^2, the log-likelihood and both information criteria
    land on chosen values: R^2 = 0.930, adjusted 0.860, AIC 833.5 and
    BIC 974.2 after display rounding.
    """
    n, k = 105, 53
    rng = np.random.default_rng(2024)
    raw = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    q, _ = np.linalg.qr(raw)
    design = np.column_stack([np.ones(n), q[:, 1:]])

    log_l = -363.75
    rss = n * math.exp(-2.0 * log_l / n - math.log(2.0 * math.pi) - 1.0)
    signal = math.sqrt(rss * (0.93 / 0.07) / (k - 1))
    coef_basis = np.full(k, signal)
    coef_basis[0] = 100.0

    noise = rng.normal(size=n)
    noise -= q @ (q.T @ noise)
    noise *= math.sqrt(rss) / np.linalg.norm(noise)

    y = q @ coef_basis + noise
    return fit_ols(dataset_from_arrays(design, y))


class TestConstructedHeaderGolden:
    def test_statistics_hit_targets(self):
        fit = _constructed_header_fit()
        assert fit.n_obs == 105
        assert fit.k_params == 53
        assert fit.df_resid == 52
        assert fit.r_squared == pytest.approx(0.93, abs=1e-9)
        assert fit.adj_r_squared == pytest.approx(0.86, abs=1e-9)
        assert fit.f_statistic == pytest.approx(13.285714285714286, rel=1e-9)
        assert fit.log_likelihood == pytest.approx(-363.75, abs=1e-6)
        assert fit.aic == pytest.approx(833.5, abs=1e-5)
        assert fit.bic == pytest.approx(974.1599, abs=1e-3)

    def test_rendered_strings(self):
        text = render_summary(_constructed_header_fit())
        assert "0.930" in text
        assert "0.860" in text
        assert "833.5" in text
        assert "974.2" in text
        assert "13.29" in text


class TestJsonDumps:
    def test_sorted_keys_and_indent(self):
        out = json_dumps({"b": 1, "a": 2})
        assert out == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_non_finite_to_null(self):
        out = json.loads(json_dumps({"x": float("nan"), "y": math.inf, "z": -math.inf}))
        assert out == {"x": None, "y": None, "z": None}

    def test_nested_cleaning_and_tuples(self):
        out = json.loads(json_dumps({"a": [(1.0, float("nan"))], "b": {"c": math.inf}}))
        assert out == {"a": [[1.0, None]], "b": {"c": None}}

    def test_negative_zero_written_as_zero(self):
        assert json_dumps({"x": [-0.0, (-0.0,)], "y": -1e-300}) == \
            '{\n  "x": [\n    0.0,\n    [\n      0.0\n    ]\n  ],\n  "y": -1e-300\n}\n'

    def test_deterministic(self):
        payload = {"k": [1.5, 2.5], "m": {"z": 1, "a": 2}}
        assert json_dumps(payload) == json_dumps(payload)


class TestFitToDict:
    def test_shape_and_values(self):
        fit = _strong_fit()
        d = fit_to_dict(fit)
        assert d["n_obs"] == fit.n_obs
        assert d["rss"] == fit.rss
        assert len(d["columns"]) == 2
        assert d["columns"][1]["name"] == "x1"
        assert d["columns"][1]["coef"] == float(fit.coefficients[1])
        assert len(d["fitted"]) == fit.n_obs
        assert len(d["residuals"]) == fit.n_obs
        assert d["dropped_columns"] == []

    def test_top_level_keys(self):
        # A new `FitResult` field shows up here, not as a silent change to fit.json.
        assert set(fit_to_dict(_strong_fit())) == {
            "n_obs", "k_params", "df_model", "df_resid", "has_bias", "confidence_level",
            "r_squared", "adj_r_squared", "f_statistic", "f_p_value", "log_likelihood", "aic",
            "bic", "rss", "covariance_type", "inference_available", "likelihood_available",
            "columns", "dropped_columns", "fitted", "residuals",
        }

    def test_dropped_flag(self):
        rng = np.random.default_rng(5)
        x1 = rng.normal(size=30)
        design = np.column_stack([np.ones(30), x1, x1])
        y = 1.0 + x1 + rng.normal(size=30)
        fit = fit_ols(dataset_from_arrays(design, y))
        d = fit_to_dict(fit)
        assert d["dropped_columns"] == ["x2"]
        flags = {c["name"]: c["dropped"] for c in d["columns"]}
        assert flags == {"const": False, "x1": False, "x2": True}
        serialized = json.loads(json_dumps(d))
        dropped_row = next(c for c in serialized["columns"] if c["name"] == "x2")
        assert dropped_row["std_err"] is None


class TestTraceToDict:
    def test_structure(self):
        rng = np.random.default_rng(7)
        n = 60
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = 5.0 + 3.0 * x1 + rng.normal(size=n)
        design = np.column_stack([np.ones(n), x1, x2])
        trace = backward_eliminate(dataset_from_arrays(design, y), alpha=0.05)
        d = trace_to_dict(trace)
        assert d["alpha"] == 0.05
        assert d["conforming"] is True
        for step in d["steps"]:
            assert set(step) == {"removed_column", "removed_p_value", "model_after"}
            assert set(step["model_after"]) == {"k_params", "r_squared", "adj_r_squared"}
        assert d["final_model"]["columns"] == list(trace.final_fit.column_names)
        json_dumps(d)


class TestDiagnosticsPayloads:
    @staticmethod
    def _fit_and_data():
        rng = np.random.default_rng(9)
        n = 50
        x1 = rng.normal(size=n)
        x2 = 0.5 * x1 + rng.normal(size=n)
        y = 10.0 + x1 - x2 + rng.normal(size=n)
        design = np.column_stack([np.ones(n), x1, x2])
        data = dataset_from_arrays(design, y)
        return fit_ols(data), data

    def test_bp_to_dict(self):
        fit, data = self._fit_and_data()
        results = breusch_pagan(fit)
        d = diagnostics_to_dict(results, BP_KOENKER, vif(data), 0.0)
        for variant, res in results.items():
            assert d["breusch_pagan"][variant] == {
                "lm_statistic": res.lm_statistic,
                "df": res.df,
                "p_value": res.p_value,
                "variant": variant,
            }

    def test_diagnostics_to_dict(self):
        fit, data = self._fit_and_data()
        results = breusch_pagan(fit)
        report = vif(data)
        y = np.asarray(data.response)
        m = mape(list(y), [float(v) for v in fit.fitted])
        d = diagnostics_to_dict(results, BP_KOENKER, report, m)
        assert d["breusch_pagan"]["selected_variant"] == BP_KOENKER
        assert set(d["breusch_pagan"]) == {"selected_variant", BP_KOENKER, BP_ORIGINAL}
        assert [e["column"] for e in d["vif"]] == ["x1", "x2"]
        assert set(d["vif"][0]) == {"column", "r_squared_aux", "vif", "band", "infinite"}
        assert d["mape_percent"] == m
        json_dumps(d)

    def test_infinite_vif_serializes_as_null(self):
        rng = np.random.default_rng(10)
        n = 40
        x1 = rng.normal(size=n)
        design = np.column_stack([np.ones(n), x1, x1])
        y = 1.0 + x1 + rng.normal(size=n)
        data = dataset_from_arrays(design, y)
        report = vif(data)
        d = diagnostics_to_dict({}, BP_KOENKER, report, 1.0)
        serialized = json.loads(json_dumps(d))
        assert all(e["vif"] is None and e["infinite"] for e in serialized["vif"])


class TestPlotSeriesCsv:
    def test_headers_and_round_trip(self):
        fit = _strong_fit()
        series = plot_series(fit, fit.fitted + fit.residuals)
        residuals_csv, mp_csv = plot_series_csv(series)
        res_lines = residuals_csv.strip().split("\n")
        mp_lines = mp_csv.strip().split("\n")
        assert res_lines[0] == "fitted,residual"
        assert mp_lines[0] == "actual,predicted"
        assert len(res_lines) == fit.n_obs + 1
        assert len(mp_lines) == fit.n_obs + 1
        f0, r0 = (float(tok) for tok in res_lines[1].split(","))
        assert f0 == float(fit.fitted[0])
        assert r0 == float(fit.residuals[0])
        a0, p0 = (float(tok) for tok in mp_lines[1].split(","))
        assert a0 == f0 + r0
        assert p0 == f0

    def test_negative_zero_written_as_zero(self):
        series = PlotSeries(residual_series=((-0.0, 1.5),), measured_predicted=((1.5, -0.0),))
        assert plot_series_csv(series) == (
            "fitted,residual\n0.0,1.5\n", "actual,predicted\n1.5,0.0\n")
