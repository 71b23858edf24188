"""OLS fitting, summary statistics and coefficient inference."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from marketval import distributions
from marketval.distributions import f_sf, student_t_quantile, t_two_sided_p
from marketval.errors import (
    DegenerateModelError,
    DegenerateResponseError,
    InferenceUnavailableError,
    InvalidInputError,
)
from marketval.numcore import qr_pivoted
from marketval.ols import (
    FitResult,
    adjusted_r_squared,
    coefficient_table,
    f_statistic,
    fit_ols,
    information_criteria,
    log_likelihood,
)
from marketval.report import fit_to_dict, json_dumps, render_summary
from conftest import dataset_from_arrays
from oracles import (
    gaussian_density_log_product,
    inference_by_column_loop,
    normal_equations_summary,
)


def random_problem(rng, n=None, p=None, bias=True):
    n = n or int(rng.integers(8, 50))
    p = p or int(rng.integers(2, min(n - 2, 8) + 1))
    x = rng.normal(size=(n, p))
    if bias:
        x[:, 0] = 1.0
    y = rng.normal(size=n) + x @ rng.normal(size=p)
    return dataset_from_arrays(x, y, bias=bias)


class TestScalarFormulas:
    def test_adjusted_r_squared_with_bias(self):
        # R^2 = 0.930, n = 105, df_resid = 52 -> 0.86 exactly.
        assert adjusted_r_squared(0.930, 105, 52, True) == pytest.approx(0.86, abs=1e-12)

    def test_adjusted_r_squared_without_bias(self):
        assert adjusted_r_squared(0.944, 105, 80, False) == pytest.approx(0.9265, abs=1e-10)

    def test_adjusted_r_squared_no_df(self):
        assert math.isnan(adjusted_r_squared(0.9, 10, 0, True))

    def test_f_statistic(self):
        assert f_statistic(0.930, 52, 52) == pytest.approx(0.930 / 0.070, rel=1e-12)
        assert f_statistic(0.75, 1, 1) == pytest.approx(3.0, abs=1e-12)
        assert math.isinf(f_statistic(1.0, 3, 5))
        assert math.isnan(f_statistic(0.5, 0, 5))

    def test_log_likelihood_golden(self):
        # n = 2, rss = 2: logL = -(ln 2*pi + 1).
        assert log_likelihood(2.0, 2) == pytest.approx(-2.8378770664093453, abs=1e-12)

    def test_log_likelihood_scale_identity(self):
        n, rss, c = 17, 3.7, 5.0
        assert log_likelihood(c * rss, n) == pytest.approx(
            log_likelihood(rss, n) - 0.5 * n * math.log(c), abs=1e-10
        )

    def test_log_likelihood_matches_density_product(self):
        rng = np.random.default_rng(200)
        resid = rng.normal(size=40)
        rss = float(resid @ resid)
        assert log_likelihood(rss, 40) == pytest.approx(
            gaussian_density_log_product(resid), abs=1e-9
        )

    def test_log_likelihood_zero_rss_is_nan(self):
        assert math.isnan(log_likelihood(0.0, 5))

    def test_log_likelihood_validation(self):
        with pytest.raises(InvalidInputError):
            log_likelihood(-1.0, 5)
        with pytest.raises(InvalidInputError):
            log_likelihood(1.0, 0)

    def test_information_criteria_golden(self):
        ic = information_criteria(0.0, 1, 1)
        assert ic.aic == 2.0
        assert ic.bic == 0.0

    def test_information_criteria_frozen_values(self):
        ic = information_criteria(-363.75, 53, 105)
        assert ic.aic == pytest.approx(833.5, abs=1e-10)
        assert ic.bic == pytest.approx(974.1599, abs=1e-3)

    def test_information_criteria_validation(self):
        with pytest.raises(InvalidInputError):
            information_criteria(0.0, 0, 5)


class TestFitOls:
    def test_hand_example(self):
        data = dataset_from_arrays(
            [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], [0.0, 1.0, 1.0]
        )
        fit = fit_ols(data)
        assert fit.coefficients == pytest.approx([1.0 / 6.0, 0.5], abs=1e-12)
        assert fit.rss == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(0.75, abs=1e-12)
        assert fit.adj_r_squared == pytest.approx(0.5, abs=1e-12)
        assert fit.f_statistic == pytest.approx(3.0, abs=1e-10)
        assert fit.f_p_value == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert fit.residuals == pytest.approx([-1 / 6, 1 / 3, -1 / 6], abs=1e-12)
        assert fit.n_obs == 3
        assert fit.k_params == 2
        assert fit.df_model == 1
        assert fit.df_resid == 1

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(201)
        for _ in range(50):
            data = random_problem(rng)
            x = data.design.array()
            y = np.asarray(data.response)
            fit = fit_ols(data)
            oracle = normal_equations_summary(x, y, has_bias=True)
            assert np.allclose(fit.coefficients, oracle["coefficients"], rtol=1e-8, atol=1e-10)
            assert np.allclose(fit.std_errors, oracle["std_errors"], rtol=1e-8)
            assert fit.rss == pytest.approx(oracle["rss"], rel=1e-8)
            assert fit.r_squared == pytest.approx(oracle["r_squared"], rel=1e-8)
            assert fit.adj_r_squared == pytest.approx(oracle["adj_r_squared"], rel=1e-8)
            assert fit.f_statistic == pytest.approx(oracle["f_statistic"], rel=1e-8)
            assert fit.log_likelihood == pytest.approx(oracle["log_likelihood"], rel=1e-8)
            assert fit.aic == pytest.approx(oracle["aic"], rel=1e-8)
            assert fit.bic == pytest.approx(oracle["bic"], rel=1e-8)

    def test_consistency_chain(self):
        rng = np.random.default_rng(202)
        for _ in range(20):
            bias = bool(rng.integers(0, 2))
            data = random_problem(rng, bias=bias)
            fit = fit_ols(data)
            assert fit.n_obs == fit.df_model + fit.df_resid + (1 if fit.has_bias else 0)
            assert fit.aic - fit.bic == pytest.approx(
                fit.k_params * (2.0 - math.log(fit.n_obs)), abs=1e-9
            )
            assert fit.f_p_value == pytest.approx(
                f_sf(fit.f_statistic, fit.df_model, fit.df_resid), abs=1e-12
            )
            assert np.allclose(fit.fitted + fit.residuals, data.response, atol=1e-9)
            tq = student_t_quantile((1.0 + fit.confidence_level) / 2.0, fit.df_resid)
            for j in range(len(fit.column_names)):
                se = fit.std_errors[j]
                if math.isnan(se):
                    continue
                assert fit.t_values[j] == pytest.approx(
                    fit.coefficients[j] / se, rel=1e-10
                )
                assert fit.p_values[j] == pytest.approx(
                    t_two_sided_p(fit.t_values[j], fit.df_resid), abs=1e-12
                )
                assert fit.ci_low[j] == pytest.approx(
                    fit.coefficients[j] - tq * se, abs=1e-10
                )
                assert fit.ci_high[j] == pytest.approx(
                    fit.coefficients[j] + tq * se, abs=1e-10
                )

    def test_uncentered_r_squared_without_bias(self):
        rng = np.random.default_rng(203)
        x = rng.normal(size=(25, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=25)
        data = dataset_from_arrays(x, y, bias=False)
        fit = fit_ols(data)
        oracle = normal_equations_summary(x, y, has_bias=False)
        assert fit.r_squared == pytest.approx(oracle["r_squared"], rel=1e-10)
        assert fit.adj_r_squared == pytest.approx(oracle["adj_r_squared"], rel=1e-10)
        assert fit.df_model == 3
        assert not fit.has_bias

    def test_collinear_column_dropped(self):
        rng = np.random.default_rng(204)
        base = rng.normal(size=(20, 3))
        base[:, 0] = 1.0
        x = np.column_stack([base, base[:, 1] * 2.0])  # exact multiple
        y = rng.normal(size=20)
        data = dataset_from_arrays(x, y, names=["const", "x1", "x2", "x3"])
        fit = fit_ols(data)
        clean = fit_ols(dataset_from_arrays(base, y, names=["const", "x1", "x2"]))
        assert len(fit.dropped_columns) == 1
        dropped_idx = fit.column_names.index(fit.dropped_columns[0])
        assert fit.coefficients[dropped_idx] == 0.0
        assert math.isnan(fit.std_errors[dropped_idx])
        assert fit.rss == pytest.approx(clean.rss, rel=1e-10)
        assert fit.k_params == 3
        assert fit.retained_columns == tuple(
            n for n in fit.column_names if n != fit.dropped_columns[0]
        )

    def test_kept_columns_are_read_from_the_factorization(self):
        assert "dropped_columns" not in {f.name for f in dataclasses.fields(FitResult)}
        rng = np.random.default_rng(209)
        base = rng.normal(size=(20, 3))
        base[:, 0] = 1.0
        x = np.column_stack([base, base[:, 2]])
        fit = fit_ols(dataset_from_arrays(x, rng.normal(size=20)))
        assert fit.factors.dropped_columns == (3,)
        assert fit.dropped_columns == ("x3",)
        assert fit.retained_columns == ("const", "x1", "x2")
        full_rank = dataclasses.replace(fit, factors=qr_pivoted(rng.normal(size=(20, 4))))
        assert full_rank.dropped_columns == ()
        assert full_rank.retained_columns == fit.column_names

    def test_zero_standard_errors_when_rss_is_exactly_zero(self):
        # y lies in the column space and one residual df remains, so every
        # retained coefficient is exact: se 0, t +-inf (0 for a zero
        # coefficient), p 0 (1), and a zero-width interval.
        design = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        fit = fit_ols(dataset_from_arrays(design, [1.0, 2.0, 0.0, 0.0], bias=False))
        assert fit.rss == 0.0
        assert fit.df_resid == 1
        assert fit.inference_available
        assert not fit.likelihood_available
        assert math.isnan(fit.log_likelihood) and math.isnan(fit.aic)
        assert fit.coefficients.tolist() == [1.0, 2.0, 0.0]
        assert fit.std_errors.tolist() == [0.0, 0.0, 0.0]
        assert fit.t_values.tolist() == [math.inf, math.inf, 0.0]
        assert fit.p_values.tolist() == [0.0, 0.0, 1.0]
        assert fit.ci_low.tolist() == fit.coefficients.tolist()
        assert fit.ci_high.tolist() == fit.coefficients.tolist()
        rows = coefficient_table(fit)
        assert [(r.name, r.std_err, r.t, r.p) for r in rows] == [
            ("x0", 0.0, math.inf, 0.0), ("x1", 0.0, math.inf, 0.0), ("x2", 0.0, 0.0, 1.0)
        ]
        summary = render_summary(fit).splitlines()
        assert "x0            1.0000    0.0000       inf     0.000    1.0000    1.0000" in summary
        assert "x1            2.0000    0.0000       inf     0.000    2.0000    2.0000" in summary
        # The triangular solve returns x2's coefficient as -0.0; no output shows the sign.
        assert "x2            0.0000    0.0000     0.000     1.000    0.0000    0.0000" in summary
        assert "-0.0" not in json_dumps(fit_to_dict(fit))

    def test_dropped_dummy_choice_does_not_move_fitted_values(self):
        # Same categorical information encoded against two different base
        # levels must give identical fitted values.
        rng = np.random.default_rng(205)
        labels = rng.integers(0, 3, size=30)
        y = rng.normal(size=30) + labels * 1.5
        ones = np.ones(30)
        d_a = np.column_stack([ones, labels == 1, labels == 2]).astype(float)
        d_b = np.column_stack([ones, labels == 0, labels == 2]).astype(float)
        fit_a = fit_ols(dataset_from_arrays(d_a, y))
        fit_b = fit_ols(dataset_from_arrays(d_b, y))
        assert np.allclose(fit_a.fitted, fit_b.fitted, atol=1e-9)
        assert fit_a.r_squared == pytest.approx(fit_b.r_squared, abs=1e-12)

    def test_perfect_fit_flags(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = 2.0 + 3.0 * x[:, 1]
        fit = fit_ols(dataset_from_arrays(x, y))
        assert fit.r_squared == 1.0
        assert not fit.likelihood_available
        assert math.isnan(fit.log_likelihood)
        assert math.isnan(fit.aic)
        assert math.isnan(fit.bic)
        assert math.isinf(fit.f_statistic)
        assert fit.f_p_value == 0.0
        assert fit.inference_available  # df_resid = 2

    def test_constant_response_raises(self):
        x = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(DegenerateResponseError):
            fit_ols(dataset_from_arrays(x, np.full(5, 7.0)))

    def test_zero_design_raises(self):
        data = dataset_from_arrays(np.zeros((4, 2)), np.arange(4.0), bias=False)
        with pytest.raises(DegenerateModelError):
            fit_ols(data)

    def test_saturated_fit_has_no_inference(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 3.0])
        fit = fit_ols(dataset_from_arrays(x, y))
        assert fit.df_resid == 0
        assert not fit.inference_available
        assert all(math.isnan(v) for v in fit.std_errors)
        assert all(math.isnan(v) for v in fit.p_values)

    def test_confidence_level_validation(self):
        data = dataset_from_arrays(np.ones((3, 1)), [1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            fit_ols(data, confidence_level=1.0)

    def test_requested_level_changes_interval_width(self):
        rng = np.random.default_rng(206)
        data = random_problem(rng, n=30, p=3)
        fit90 = fit_ols(data, confidence_level=0.90)
        fit99 = fit_ols(data, confidence_level=0.99)
        width90 = fit90.ci_high[1] - fit90.ci_low[1]
        width99 = fit99.ci_high[1] - fit99.ci_low[1]
        assert width99 > width90

    def test_interval_coverage_near_nominal(self):
        # 95% CI for a known slope must cover it close to 95% of the time.
        rng = np.random.default_rng(207)
        true_beta = np.array([1.0, 2.0, -1.0])
        hits = 0
        reps = 1000
        for _ in range(reps):
            x = rng.normal(size=(30, 3))
            x[:, 0] = 1.0
            y = x @ true_beta + rng.normal(scale=2.0, size=30)
            fit = fit_ols(dataset_from_arrays(x, y))
            if fit.ci_low[1] <= true_beta[1] <= fit.ci_high[1]:
                hits += 1
        assert 0.93 <= hits / reps <= 0.97


def design_of_kind(kind: str, seed: int, n: int, p: int):
    """A dataset of one of three kinds, drawn from `seed`.

    "random": Gaussian columns after a bias column.  "twin": the same with
    one column repeated, so the rank cut drops one of the two.  "exact":
    each column a power of two in one row of its own, the other rows zero,
    and an integer response that is zero off those rows, so the fit is
    exact (rss 0) and some coefficients are exactly zero.
    """
    rng = np.random.default_rng(seed)
    if kind == "exact":
        x = np.zeros((n, p))
        rows = rng.permutation(n)[:p]
        x[rows, np.arange(p)] = 2.0 ** rng.integers(-3, 4, size=p)
        y = np.zeros(n)
        y[rows] = rng.integers(-3, 4, size=p)
        assume(y.any())
        return dataset_from_arrays(x, y, bias=False)
    x = rng.normal(size=(n, p))
    x[:, 0] = 1.0
    if kind == "twin":
        x = np.insert(x, int(rng.integers(1, p + 1)), x[:, int(rng.integers(1, p))], axis=1)
    return dataset_from_arrays(x, rng.normal(size=n) + x @ rng.normal(size=x.shape[1]))


@given(kind=st.sampled_from(["random", "twin", "exact"]), seed=st.integers(0, 2**32 - 1),
       n=st.integers(4, 40), p=st.integers(2, 8),
       level=st.sampled_from([0.5, 0.9, 0.95, 0.999]))
def test_inference_matches_the_column_loop_bit_for_bit(kind, seed, n, p, level):
    assume(p <= n - 2)
    fit = fit_ols(design_of_kind(kind, seed, n, p), confidence_level=level)
    assume(fit.inference_available)
    if kind == "twin":
        assert len(fit.dropped_columns) == 1
    if kind == "exact":
        assume(fit.rss == 0.0)
        assert (fit.std_errors[list(fit.factors.retained_columns)] == 0.0).all()
    loop = inference_by_column_loop(fit)
    for name, expected in loop.items():
        # Equal bytes: NaN equals NaN, and 0.0 differs from -0.0.
        assert getattr(fit, name).tobytes() == expected.tobytes(), name


class TestCoefficientTable:
    def make_fit(self, coef, se, df_resid, level=0.95):
        n = df_resid + 2
        p = len(coef)
        coef = np.asarray(coef, dtype=float)
        se = np.asarray(se, dtype=float)
        t = coef / se
        tq = student_t_quantile((1.0 + level) / 2.0, df_resid)
        return FitResult(
            n_obs=n,
            k_params=p,
            df_model=p - 1,
            df_resid=df_resid,
            has_bias=True,
            column_names=tuple(f"x{j}" for j in range(p)),
            coefficients=coef,
            std_errors=se,
            t_values=t,
            p_values=np.array([t_two_sided_p(float(v), df_resid) for v in t]),
            ci_low=coef - tq * se,
            ci_high=coef + tq * se,
            confidence_level=level,
            r_squared=0.9,
            adj_r_squared=0.88,
            f_statistic=50.0,
            f_p_value=1e-10,
            log_likelihood=-100.0,
            aic=210.0,
            bic=220.0,
            rss=10.0,
            residuals=np.zeros(n),
            fitted=np.zeros(n),
            inference_available=True,
            likelihood_available=True,
            factors=qr_pivoted(np.eye(n, p)),
            triangle=np.eye(p + 1),
            design=np.eye(n, p),
        )

    def test_summary_row_frozen_values(self):
        # coef 51.3703, std err 6.942 at 52 residual df: t = 7.400 and the
        # 95% interval is [37.4402, 65.3004].
        fit = self.make_fit([51.3703], [6.942], 52)
        row = coefficient_table(fit)[0]
        assert row.t == pytest.approx(7.400, abs=5e-4)
        assert row.ci_low == pytest.approx(37.440, abs=1e-3)
        assert row.ci_high == pytest.approx(65.301, abs=1e-3)

    def test_default_level_reads_stored_intervals(self, monkeypatch):
        fit = self.make_fit([1.0, 2.0], [0.5, 0.25], 20)

        def no_quantile(*args):
            raise AssertionError("stored intervals should be reused")

        monkeypatch.setattr(distributions, "t_critical_value", no_quantile)
        rows = coefficient_table(fit)
        assert [r.ci_low for r in rows] == list(fit.ci_low)
        assert [r.ci_high for r in rows] == list(fit.ci_high)

    def test_inference_unavailable_raises(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        fit = fit_ols(dataset_from_arrays(x, np.array([1.0, 3.0])))
        with pytest.raises(InferenceUnavailableError):
            coefficient_table(fit)

    def test_dropped_columns_omitted(self):
        rng = np.random.default_rng(208)
        base = rng.normal(size=(15, 2))
        base[:, 0] = 1.0
        x = np.column_stack([base, base[:, 1]])
        y = rng.normal(size=15)
        fit = fit_ols(dataset_from_arrays(x, y, names=["const", "x1", "x2"]))
        rows = coefficient_table(fit)
        assert len(rows) == 2
        assert all(r.name not in fit.dropped_columns for r in rows)
