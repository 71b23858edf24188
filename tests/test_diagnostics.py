"""Heteroscedasticity test, VIF report, MAPE and plot series."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from marketval import numcore
from marketval.diagnostics import (
    BP_KOENKER,
    BP_ORIGINAL,
    VIF_HIGH,
    VIF_MODERATE,
    VIF_UNCORRELATED,
    breusch_pagan,
    mape,
    plot_series,
    vif,
)
from marketval.distributions import chi2_sf
from marketval.errors import InvalidInputError
from marketval.ols import FitResult, fit_ols
from conftest import dataset_from_arrays
from oracles import breusch_pagan_by_aux_regression, vif_by_aux_regressions


def fit_with_residuals(data, residuals):
    """A FitResult of `data`'s design carrying forced residuals, for hand-built test cases."""
    residuals = np.asarray(residuals, dtype=float)
    n = len(residuals)
    p = data.design.cols
    triangle = numcore.triangle(data.design.array(), data.response)
    return FitResult(
        n_obs=n,
        k_params=p,
        df_model=p - 1,
        df_resid=n - p,
        has_bias=data.has_bias,
        column_names=data.column_names,
        coefficients=np.zeros(p),
        std_errors=np.full(p, math.nan),
        t_values=np.full(p, math.nan),
        p_values=np.full(p, math.nan),
        ci_low=np.full(p, math.nan),
        ci_high=np.full(p, math.nan),
        confidence_level=0.95,
        r_squared=0.5,
        adj_r_squared=0.5,
        f_statistic=1.0,
        f_p_value=0.5,
        log_likelihood=-1.0,
        aic=2.0,
        bic=2.0,
        rss=float(residuals @ residuals),
        residuals=residuals,
        fitted=np.asarray(data.response) - residuals,
        inference_available=True,
        likelihood_available=True,
        factors=numcore.qr_pivoted(triangle[:, :-1]),
        triangle=triangle,
        design=data.design.array(),
    )


def bp_hand_case():
    design = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
    data = dataset_from_arrays(design, [1.0, 1.0, 1.0, 1.0])
    fit = fit_with_residuals(data, [1.0, -1.0, 2.0, -2.0])
    return fit, data


class TestBreuschPagan:
    def test_hand_example_koenker(self):
        # e = [1,-1,2,-2] on x = [1,2,3,4]: aux R^2 = 36/45 = 0.8, LM = 3.2.
        fit, data = bp_hand_case()
        result = breusch_pagan(fit)[BP_KOENKER]
        assert result.lm_statistic == pytest.approx(3.2, abs=1e-10)
        assert result.df == 1
        assert result.p_value == pytest.approx(0.0736382701203026, abs=1e-9)
        assert result.variant == BP_KOENKER

    def test_hand_example_original(self):
        # g = e^2/(rss/n) = [0.4, 0.4, 1.6, 1.6]: ESS = 1.152, LM = 0.576.
        fit, data = bp_hand_case()
        result = breusch_pagan(fit)[BP_ORIGINAL]
        assert result.lm_statistic == pytest.approx(0.576, abs=1e-10)
        assert result.df == 1
        assert result.p_value == pytest.approx(chi2_sf(0.576, 1), abs=1e-12)

    def test_constant_squared_residuals(self):
        design = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        data = dataset_from_arrays(design, [1.0, 1.0, 1.0, 1.0])
        fit = fit_with_residuals(data, [1.0, -1.0, 1.0, -1.0])
        result = breusch_pagan(fit)[BP_KOENKER]
        assert result.lm_statistic == 0.0
        assert result.p_value == 1.0

    def test_zero_residuals(self):
        # An exact fit: e^2 / (rss/n) would be 0/0; there is nothing to explain.
        fit, data = bp_hand_case()
        fit = fit_with_residuals(data, [0.0, 0.0, 0.0, 0.0])
        for variant in (BP_KOENKER, BP_ORIGINAL):
            result = breusch_pagan(fit)[variant]
            assert (result.lm_statistic, result.df, result.p_value) == (0.0, 1, 1.0)

    def test_p_value_identity(self):
        rng = np.random.default_rng(300)
        x = rng.normal(size=(50, 3))
        x[:, 0] = 1.0
        y = x @ np.array([1.0, 2.0, -1.0]) + rng.normal(size=50)
        data = dataset_from_arrays(x, y)
        fit = fit_ols(data)
        for variant in (BP_KOENKER, BP_ORIGINAL):
            r = breusch_pagan(fit)[variant]
            assert r.p_value == pytest.approx(chi2_sf(r.lm_statistic, r.df), abs=1e-14)
            assert r.df == 2

    def test_koenker_matches_first_principles(self):
        # Independent numpy computation of the auxiliary regression.
        rng = np.random.default_rng(301)
        x = rng.normal(size=(60, 4))
        x[:, 0] = 1.0
        y = x @ np.array([1.0, 0.5, -0.25, 2.0]) + rng.normal(size=60) * (
            1.0 + 0.5 * np.abs(x[:, 1])
        )
        data = dataset_from_arrays(x, y)
        fit = fit_ols(data)
        e2 = np.asarray(fit.residuals) ** 2
        beta, *_ = np.linalg.lstsq(x, e2, rcond=None)
        aux_fitted = x @ beta
        ess = float(np.sum((aux_fitted - e2.mean()) ** 2))
        tss = float(np.sum((e2 - e2.mean()) ** 2))
        expected_lm = 60 * ess / tss
        result = breusch_pagan(fit)[BP_KOENKER]
        assert result.lm_statistic == pytest.approx(expected_lm, rel=1e-8)
        assert result.df == 3

    def test_original_matches_first_principles(self):
        rng = np.random.default_rng(302)
        x = rng.normal(size=(40, 3))
        x[:, 0] = 1.0
        y = x @ np.array([0.5, 1.0, -2.0]) + rng.normal(size=40)
        data = dataset_from_arrays(x, y)
        fit = fit_ols(data)
        sigma2_ml = fit.rss / 40
        g = np.asarray(fit.residuals) ** 2 / sigma2_ml
        beta, *_ = np.linalg.lstsq(x, g, rcond=None)
        ess = float(np.sum((x @ beta - g.mean()) ** 2))
        result = breusch_pagan(fit)[BP_ORIGINAL]
        assert result.lm_statistic == pytest.approx(ess / 2.0, rel=1e-8)

    def test_bias_only_model_degenerate(self):
        data = dataset_from_arrays(np.ones((6, 1)), [1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        fit = fit_ols(data)
        result = breusch_pagan(fit)[BP_KOENKER]
        assert result.lm_statistic == 0.0
        assert result.df == 0
        assert result.p_value == 1.0

    def test_dropped_columns_excluded_from_aux(self):
        rng = np.random.default_rng(303)
        base = rng.normal(size=(30, 3))
        base[:, 0] = 1.0
        x = np.column_stack([base, base[:, 2]])  # duplicate column
        y = base @ np.array([1.0, 2.0, -1.0]) + rng.normal(size=30)
        data = dataset_from_arrays(x, y, names=["const", "x1", "x2", "x3"])
        fit = fit_ols(data)
        assert len(fit.dropped_columns) == 1
        result = breusch_pagan(fit)[BP_KOENKER]
        assert result.df == 2  # aux uses the retained non-bias columns only

    def test_model_without_bias_gets_aux_intercept(self):
        rng = np.random.default_rng(304)
        x = rng.normal(size=(40, 2)) + 3.0
        y = x @ np.array([1.0, 2.0]) + rng.normal(size=40)
        data = dataset_from_arrays(x, y, bias=False)
        fit = fit_ols(data)
        result = breusch_pagan(fit)[BP_KOENKER]
        assert result.df == 2  # both columns count; the added intercept does not

    def test_both_variants_from_one_call(self):
        fit, data = bp_hand_case()
        results = breusch_pagan(fit)
        assert list(results) == [BP_KOENKER, BP_ORIGINAL]
        assert [r.variant for r in results.values()] == [BP_KOENKER, BP_ORIGINAL]

    def test_requires_residual_df(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0]])
        data = dataset_from_arrays(design, [1.0, 2.0])
        fit = fit_ols(data)
        with pytest.raises(InvalidInputError):
            breusch_pagan(fit)


class TestVif:
    def test_orthogonal_columns_vif_one(self):
        z = np.array([1.0, -1.0, 1.0, -1.0])
        w = np.array([1.0, 1.0, -1.0, -1.0])
        design = np.column_stack([np.ones(4), z, w])
        data = dataset_from_arrays(design, [1.0, 2.0, 3.0, 4.0])
        report = vif(data)
        assert [e.column for e in report.entries] == ["x1", "x2"]
        for e in report.entries:
            assert e.vif == pytest.approx(1.0, abs=1e-10)
            assert e.band == VIF_UNCORRELATED
            assert not e.infinite

    def test_exact_point_eight_r_squared_bands_moderate(self):
        # x2 = 2 z + w has R^2 = 16/20 = 0.8 against {1, z}: vif exactly 5.
        z = np.array([1.0, -1.0, 1.0, -1.0])
        w = np.array([1.0, 1.0, -1.0, -1.0])
        design = np.column_stack([np.ones(4), z, 2.0 * z + w])
        data = dataset_from_arrays(design, [1.0, 2.0, 3.0, 4.0])
        report = vif(data)
        for e in report.entries:
            assert e.r_squared_aux == pytest.approx(0.8, abs=1e-12)
            assert e.vif == pytest.approx(5.0, abs=1e-9)
            assert e.band == VIF_MODERATE

    def test_duplicated_column_infinite_both(self):
        rng = np.random.default_rng(305)
        c = rng.normal(size=10)
        design = np.column_stack([np.ones(10), c, c])
        data = dataset_from_arrays(design, rng.normal(size=10))
        report = vif(data)
        assert all(e.infinite for e in report.entries)
        assert all(e.band == VIF_HIGH for e in report.entries)
        assert all(math.isinf(e.vif) for e in report.entries)

    def test_constant_column_infinite(self):
        rng = np.random.default_rng(306)
        design = np.column_stack([np.ones(8), rng.normal(size=8), np.full(8, 3.0)])
        data = dataset_from_arrays(design, rng.normal(size=8))
        report = vif(data)
        by_name = {e.column: e for e in report.entries}
        assert by_name["x2"].infinite
        assert not by_name["x1"].infinite

    def test_rescaling_other_column_invariant(self):
        rng = np.random.default_rng(307)
        a = rng.normal(size=(25, 3))
        design = np.column_stack([np.ones(25), a])
        scaled = design.copy()
        scaled[:, 1] *= 37.5
        d1 = dataset_from_arrays(design, rng.normal(size=25))
        d2 = dataset_from_arrays(scaled, d1.response)
        v1 = {e.column: e.vif for e in vif(d1).entries}
        v2 = {e.column: e.vif for e in vif(d2).entries}
        for name in ("x2", "x3"):
            assert v1[name] == pytest.approx(v2[name], rel=1e-9)

    def test_high_band_above_five(self):
        rng = np.random.default_rng(308)
        z = rng.normal(size=50)
        # Correlation ~0.98 gives R^2 ~0.96 and vif ~25.
        x2 = z + 0.15 * rng.normal(size=50)
        design = np.column_stack([np.ones(50), z, x2])
        data = dataset_from_arrays(design, rng.normal(size=50))
        report = vif(data)
        assert all(e.band == VIF_HIGH for e in report.entries)
        assert all(e.vif > 5.0 for e in report.entries)

    @pytest.mark.parametrize("bias", [True, False])
    def test_lone_regressor_vif_one(self, bias):
        # Nothing to regress it on: R^2_aux = 0 and VIF = 1, centered or not.
        x = np.array([0.5, 1.0, 4.0, 2.5, 3.0])
        design = np.column_stack([np.ones(5), x]) if bias else x[:, None]
        (e,) = vif(dataset_from_arrays(design, x + 1.0, bias=bias)).entries
        assert e.vif == pytest.approx(1.0, abs=1e-12)
        assert e.r_squared_aux == pytest.approx(0.0, abs=1e-12)
        assert (e.band, e.infinite) == (VIF_UNCORRELATED, False)

    def test_no_regressor_empty_report(self):
        data = dataset_from_arrays(np.ones((5, 1)), np.arange(5.0) + 1.0)
        assert vif(data).entries == ()


@st.composite
def vif_designs(draw):
    """Random designs, with or without a bias column, that may hold
    duplicated columns, exact collinear groups, near twins and constant or
    all-zero columns, in random order.

    A near twin differs from its source by 1e-2 to 1e-5 of the source's
    root mean square.  Closer twins make every VIF of the design
    ill-conditioned: with twins 1e-8 apart relative to the column norm,
    both routes missed a 60-digit reference by up to 5e-8 relative on VIFs
    below 300, so a 1e-8 bound would test rounding, not the method.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bias = draw(st.booleans())
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k + 4, 40))
    cols = [rng.normal(size=n) * 10.0 ** rng.uniform(-2.0, 2.0) + rng.normal() for _ in range(k)]
    extras = draw(st.lists(
        st.sampled_from(["duplicate", "group", "twin", "constant", "zero"]), max_size=3
    ))
    for extra in extras:
        if extra == "duplicate":
            cols.append(cols[rng.integers(len(cols))] * rng.choice([1.0, -2.0, 0.5]))
        elif extra == "group":
            members = rng.choice(k, size=min(k, rng.integers(2, 4)), replace=False)
            cols.append(sum(rng.choice([-3.0, -1.0, 2.0, 5.0]) * cols[i] for i in members))
        elif extra == "twin":
            source = cols[rng.integers(k)]
            rms = np.linalg.norm(source) / math.sqrt(n)
            cols.append(source + 10.0 ** -rng.integers(2, 6) * rms * rng.normal(size=n))
        elif extra == "constant":
            cols.append(np.full(n, float(rng.integers(-5, 6))))
        else:
            cols.append(np.zeros(n))
    design = [cols[i] for i in rng.permutation(len(cols))]
    if bias:
        design.insert(0, np.ones(n))
    return dataset_from_arrays(np.column_stack(design), rng.normal(size=n), bias=bias)


class TestVifAgainstAuxRegressions:
    @given(vif_designs())
    def test_matches_per_column_regressions(self, data):
        fast = vif(data).entries
        slow = vif_by_aux_regressions(data).entries
        assert [e.column for e in fast] == [e.column for e in slow]
        for f, s in zip(fast, slow):
            assert f.infinite == s.infinite, (f, s)
            assert f.band == s.band, (f, s)
            if s.infinite:
                assert math.isinf(f.vif) and f.r_squared_aux == 1.0
            else:
                rel = 1e-8 if s.vif <= 1e3 else 1e-6
                assert f.vif == pytest.approx(s.vif, rel=rel), (f, s)
                assert f.r_squared_aux == pytest.approx(1.0 - 1.0 / f.vif, abs=1e-15)

    @pytest.mark.parametrize("p", [3, 10, 40])
    def test_factors_the_design_once(self, monkeypatch, p):
        rng = np.random.default_rng(311 + p)
        design = np.column_stack([np.ones(60), rng.normal(size=(60, p - 1))])
        calls = []
        original = numcore.qr_pivoted

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(numcore, "qr_pivoted", counting)
        report = vif(dataset_from_arrays(design, rng.normal(size=60)))
        assert len(report.entries) == p - 1
        assert len(calls) == 1


class TestBreuschPaganAgainstAuxRegression:
    @given(vif_designs())
    def test_matches_aux_regression(self, data):
        fit = fit_ols(data)
        assume(fit.df_resid >= 1)
        factors = numcore.qr_pivoted(data.design)
        pivots = np.abs(np.diag(factors.r))[: factors.rank]
        well_conditioned = pivots.max() <= 1e3 * pivots.min()
        for variant in (BP_KOENKER, BP_ORIGINAL):
            fast = breusch_pagan(fit)[variant]
            slow = breusch_pagan_by_aux_regression(fit, data, variant)
            assert fast.df == slow.df, (fast, slow)
            if well_conditioned:
                assert fast.lm_statistic == pytest.approx(slow.lm_statistic, rel=1e-9)

    @given(vif_designs())
    def test_passed_factors_change_nothing(self, data):
        fit = fit_ols(data)
        assume(fit.df_resid >= 1)
        assert vif(data, fit.factors) == vif(data)

    @staticmethod
    def intercept_case(scale, near_ones_scale, d):
        # No bias column; the columns are scale * h1 and
        # near_ones_scale * (ones + d h2).  The ones vector lies
        # d/sqrt(1 + d^2) * sqrt(8) from their span, and the cut is
        # 1e-10 * max(largest column norm, sqrt(8)).
        design = np.column_stack([scale * _H1, near_ones_scale * (np.ones(8) + d * _H2)])
        y = np.array([1.0, 4.0, -2.0, 3.0, 0.5, -6.0, 2.0, 9.0])
        return dataset_from_arrays(design, y, bias=False)

    @pytest.mark.parametrize("d, df", [(0.98e-4, 1), (1.02e-4, 2)])
    def test_intercept_cut_scaled_by_largest_column(self, d, df):
        # The largest column norm is 1e6 sqrt(8): the cut sits at d = 1e-4.
        # The oracle's own factorization takes the ones vector last and
        # cuts the same way.
        data = self.intercept_case(1e6, 1.0, d)
        fit = fit_ols(data)
        assert fit.dropped_columns == ()
        for variant in (BP_KOENKER, BP_ORIGINAL):
            fast = breusch_pagan(fit)[variant]
            slow = breusch_pagan_by_aux_regression(fit, data, variant)
            assert fast.df == slow.df == df
            assert fast.lm_statistic == pytest.approx(slow.lm_statistic, rel=1e-9)

    @pytest.mark.parametrize("d, df", [(0.98e-10, 1), (1.02e-10, 2)])
    def test_intercept_cut_scaled_by_sqrt_n(self, d, df):
        # Columns of length 1e-3 sqrt(8): sqrt(8) sets the cut, at d = 1e-10.
        # The oracle takes its ones column last too, and cuts the same way.
        data = self.intercept_case(1e-3, 1e-3, d)
        fit = fit_ols(data)
        assert fit.dropped_columns == ()
        for variant in (BP_KOENKER, BP_ORIGINAL):
            assert breusch_pagan(fit)[variant].df == df
            assert breusch_pagan_by_aux_regression(fit, data, variant).df == df


# Orthogonal, centered +-1 columns of length 8 (Hadamard rows).
_H1 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
_H2 = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
_H3 = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])


class TestVifCuts:
    @staticmethod
    def r_squared_case(target_vif):
        # x2 = h1 + d h2 against {1, h1}: R^2 = 1/(1 + d^2), vif = 1 + 1/d^2.
        # Floats resolve R^2 near 1 - 1e-12 to ~1e-4 in vif, hence the 1e-3 steps.
        d = 1.0 / math.sqrt(target_vif - 1.0)
        design = np.column_stack([np.ones(8), _H1, _H1 + d * _H2])
        return dataset_from_arrays(design, _H3)

    def test_just_below_r_squared_cut_is_finite(self):
        data = self.r_squared_case(1e12 * (1.0 - 1e-3))
        for e, o in zip(vif(data).entries, vif_by_aux_regressions(data).entries):
            assert not e.infinite and not o.infinite
            assert e.vif == pytest.approx(1e12 * (1.0 - 1e-3), rel=1e-7)
            assert e.vif == pytest.approx(o.vif, rel=1e-6)
            assert e.band == VIF_HIGH

    def test_just_above_r_squared_cut_is_infinite(self):
        data = self.r_squared_case(1e12 * (1.0 + 1e-3))
        for e, o in zip(vif(data).entries, vif_by_aux_regressions(data).entries):
            assert e.infinite and o.infinite
            assert e.r_squared_aux == 1.0

    @staticmethod
    def rank_case(d):
        # Pivot order is 1e6 h1, h2 + d h3, 1, h2; the last pivot is
        # d/sqrt(1 + d^2) * sqrt(8) against a rank cut of 1e-10 * 1e6 * sqrt(8).
        design = np.column_stack([np.ones(8), 1e6 * _H1, _H2, _H2 + d * _H3])
        return dataset_from_arrays(design, _H1 + _H2)

    def test_just_below_rank_cut_is_infinite(self):
        # The rank cut decides: the per-column regressions, which apply no
        # cut of their own here, report a finite vif of about 1e8 for the
        # pair, while the fit drops one of them like this report.
        data = self.rank_case(0.98e-4)
        by_name = {e.column: e for e in vif(data).entries}
        assert by_name["x2"].infinite and by_name["x3"].infinite
        assert by_name["x1"].vif == pytest.approx(1.0, abs=1e-9)
        assert fit_ols(data).dropped_columns in (("x2",), ("x3",))
        for e in vif_by_aux_regressions(data).entries:
            assert not e.infinite

    def test_just_above_rank_cut_is_finite(self):
        d = 1.02e-4
        data = self.rank_case(d)
        for e, o in zip(vif(data).entries, vif_by_aux_regressions(data).entries):
            assert not e.infinite
            assert e.vif == pytest.approx(o.vif, rel=1e-6)
        by_name = {e.column: e for e in vif(data).entries}
        assert by_name["x3"].vif == pytest.approx(1.0 + 1.0 / d**2, rel=1e-6)
        assert fit_ols(data).dropped_columns == ()


class TestMape:
    def test_perfect_prediction(self):
        assert mape([5.0, 10.0], [5.0, 10.0]) == 0.0

    def test_hand_example(self):
        assert mape([100.0, 200.0], [90.0, 220.0]) == pytest.approx(10.0, abs=1e-12)

    def test_single_element(self):
        assert mape([50.0], [75.0]) == pytest.approx(50.0, abs=1e-12)

    def test_zero_actual_named(self):
        with pytest.raises(ZeroDivisionError, match=r"actual\[1\]"):
            mape([1.0, 0.0, 2.0], [1.0, 1.0, 1.0])

    def test_scale_invariance(self):
        a = np.array([3.0, 7.0, 11.0])
        p = np.array([2.5, 8.0, 10.0])
        assert mape(a, p) == pytest.approx(mape(a * 42.0, p * 42.0), rel=1e-12)

    def test_constant_relative_error(self):
        a = np.array([5.0, 50.0, 500.0])
        for c in (0.1, -0.25, 0.03):
            assert mape(a, a * (1.0 + c)) == pytest.approx(100.0 * abs(c), rel=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            mape([1.0], [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            mape([], [])


class TestPlotSeries:
    def test_hand_example(self):
        data = dataset_from_arrays(
            [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], [0.0, 1.0, 1.0]
        )
        fit = fit_ols(data)
        series = plot_series(fit, data.response)
        residuals = [r for _, r in series.residual_series]
        assert residuals == pytest.approx([-1 / 6, 1 / 3, -1 / 6], abs=1e-12)
        for (actual, predicted), y in zip(series.measured_predicted, data.response):
            assert actual == pytest.approx(float(y), abs=1e-12)

    def test_identity_actual_equals_fitted_plus_residual(self):
        rng = np.random.default_rng(309)
        x = rng.normal(size=(20, 3))
        x[:, 0] = 1.0
        y = x @ np.array([1.0, -1.0, 2.0]) + rng.normal(size=20)
        fit = fit_ols(dataset_from_arrays(x, y))
        series = plot_series(fit, y)
        assert len(series.residual_series) == 20
        assert len(series.measured_predicted) == 20
        for (f, r), (a, p) in zip(series.residual_series, series.measured_predicted):
            assert f == p
            assert a == pytest.approx(f + r, abs=1e-12)

    def test_residuals_sum_to_zero_with_bias(self):
        rng = np.random.default_rng(310)
        x = rng.normal(size=(30, 2))
        x[:, 0] = 1.0
        y = rng.normal(size=30) * 5.0 + 10.0
        fit = fit_ols(dataset_from_arrays(x, y))
        series = plot_series(fit, y)
        total = sum(r for _, r in series.residual_series)
        assert abs(total) < 1e-8 * max(1.0, float(np.abs(y).max()))

    def test_perfect_fit_all_zero(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = 1.0 + 2.0 * x[:, 1]
        fit = fit_ols(dataset_from_arrays(x, y))
        series = plot_series(fit, y)
        assert all(abs(r) < 1e-12 for _, r in series.residual_series)
