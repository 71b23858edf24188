"""Special functions and tail probabilities.

Accuracy is checked three independent ways: closed-form identities (the
Cauchy arctan tail, the chi-square df=2 exponential, t-squared versus F),
adaptive-quadrature oracles, and high-precision log-beta and
incomplete-beta references (mpmath).
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketval.distributions import (
    _ln_beta,
    chi2_sf,
    f_sf,
    reg_inc_beta,
    reg_inc_gamma_lower,
    student_t_quantile,
    t_two_sided_p,
)
from marketval.errors import DomainError
from oracles import (
    chi2_sf_quad,
    f_sf_quad,
    reg_inc_beta_quad,
    reg_inc_gamma_lower_quad,
    t_two_sided_quad,
)


class TestLnBeta:
    """`_ln_beta` against mpmath at 50 digits on half-integer shapes, the
    arguments of every t and F tail, in both argument orders."""

    HALVES = tuple(0.5 * k for k in range(1, 20))
    LARGE = tuple(float(x) for x in np.round(2.0 * np.geomspace(10.0, 1e8, 25)) / 2.0)

    @staticmethod
    def expected(a, b):
        with mpmath.workdps(50):
            return float(mpmath.log(mpmath.beta(mpmath.mpf(a), mpmath.mpf(b))))

    def test_small_by_any(self):
        # One shape below 10, the other up to 1e8: 1e-13 absolute.
        for a in self.HALVES:
            for b in self.HALVES + self.LARGE:
                want = self.expected(a, b)
                assert _ln_beta(a, b) == pytest.approx(want, rel=0.0, abs=1e-13), (a, b)
                assert _ln_beta(b, a) == pytest.approx(want, rel=0.0, abs=1e-13), (b, a)

    def test_both_large(self):
        for a in self.LARGE:
            for b in self.LARGE:
                want = self.expected(a, b)
                tol = 2e-15 * abs(want) + 1e-13
                assert _ln_beta(a, b) == pytest.approx(want, rel=0.0, abs=tol), (a, b)


class TestRegIncBeta:
    def test_closed_form_golden(self):
        # I_0.5(2, 3) = 11/16 by direct integration of 12 t (1-t)^2.
        assert reg_inc_beta(2.0, 3.0, 0.5) == pytest.approx(0.6875, abs=1e-12)

    def test_endpoints(self):
        assert reg_inc_beta(2.5, 1.5, 0.0) == 0.0
        assert reg_inc_beta(2.5, 1.5, 1.0) == 1.0

    def test_uniform_case(self):
        # a = b = 1 is the uniform CDF.
        for x in (0.1, 0.25, 0.5, 0.9):
            assert reg_inc_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-13)

    def test_quadrature_grid(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            a = float(rng.uniform(0.2, 30.0))
            b = float(rng.uniform(0.2, 30.0))
            x = float(rng.uniform(0.01, 0.99))
            assert reg_inc_beta(a, b, x) == pytest.approx(
                reg_inc_beta_quad(a, b, x), abs=1e-9
            )

    @given(
        st.floats(min_value=0.2, max_value=50.0),
        st.floats(min_value=0.2, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_symmetry_and_bounds(self, a, b, x):
        v = reg_inc_beta(a, b, x)
        assert 0.0 <= v <= 1.0
        assert v + reg_inc_beta(b, a, 1.0 - x) == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 50)
        vals = [reg_inc_beta(3.0, 7.0, float(x)) for x in xs]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            reg_inc_beta(1.0, 1.0, 1.5)


class TestRegIncGammaLower:
    def test_exponential_case(self):
        # P(1, x) = 1 - exp(-x)
        for x in (0.1, 0.7, 1.0, 2.5, 10.0):
            assert reg_inc_gamma_lower(1.0, x) == pytest.approx(
                -math.expm1(-x), abs=1e-13
            )

    def test_quadrature_grid(self):
        rng = np.random.default_rng(102)
        for _ in range(60):
            s = float(rng.uniform(0.3, 40.0))
            x = float(rng.uniform(0.01, 80.0))
            assert reg_inc_gamma_lower(s, x) == pytest.approx(
                reg_inc_gamma_lower_quad(s, x), abs=1e-9
            )

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 30.0, 80)
        vals = [reg_inc_gamma_lower(4.5, float(x)) for x in xs]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_endpoint(self):
        assert reg_inc_gamma_lower(3.0, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(1.0, -0.1)


class TestTTwoSidedP:
    def test_zero_statistic(self):
        assert t_two_sided_p(0.0, 5) == pytest.approx(1.0, abs=1e-14)

    def test_cauchy_closed_form(self):
        # df = 1 is Cauchy: P(|T| >= t) = 1 - (2/pi) arctan(t).
        for t in np.linspace(0.05, 30.0, 100):
            expected = 1.0 - 2.0 / math.pi * math.atan(float(t))
            assert t_two_sided_p(float(t), 1) == pytest.approx(expected, abs=1e-10)

    def test_symmetric_in_t(self):
        for t in (0.3, 1.7, 4.0):
            assert t_two_sided_p(t, 7) == t_two_sided_p(-t, 7)

    def test_quadrature_grid(self):
        rng = np.random.default_rng(103)
        for _ in range(40):
            t = float(rng.uniform(0.0, 8.0))
            df = int(rng.integers(1, 200))
            assert t_two_sided_p(t, df) == pytest.approx(
                t_two_sided_quad(t, df), abs=1e-9
            )

    def test_large_df_approaches_normal(self):
        # At df = 10^6 the t tail is within ~1e-6 of the Gaussian tail.
        expected = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(1.96 / math.sqrt(2.0))))
        assert t_two_sided_p(1.96, 10**6) == pytest.approx(expected, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            t_two_sided_p(1.0, 0)
        with pytest.raises(DomainError):
            t_two_sided_p(float("inf"), 3)
        with pytest.raises(DomainError):
            t_two_sided_p(1.0, True)


class TestChi2Sf:
    def test_df2_exponential(self):
        # chi-square with df = 2 is Exp(1/2): P(X >= x) = exp(-x/2).
        for x in np.linspace(0.01, 40.0, 100):
            assert chi2_sf(float(x), 2) == pytest.approx(
                math.exp(-float(x) / 2.0), abs=1e-10
            )

    def test_complement_identity(self):
        rng = np.random.default_rng(104)
        for _ in range(50):
            x = float(rng.uniform(0.0, 60.0))
            df = int(rng.integers(1, 100))
            total = chi2_sf(x, df) + reg_inc_gamma_lower(df / 2.0, x / 2.0)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_grid(self):
        rng = np.random.default_rng(105)
        for _ in range(40):
            x = float(rng.uniform(0.01, 50.0))
            df = int(rng.integers(1, 80))
            assert chi2_sf(x, df) == pytest.approx(chi2_sf_quad(x, df), abs=1e-9)

    def test_large_df_within_iteration_cap(self):
        mpmath.mp.dps = 40
        for x in (4500.0, 5000.0, 5500.0):
            expected = float(mpmath.gammainc(2500, x / 2.0, mpmath.inf, regularized=True))
            assert chi2_sf(x, 5000) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("df", [20_000, 100_000, 1_000_000])
    def test_iteration_cap_raises(self, df):
        # Near the median the series needs ~800 iterations at df 2e4.  The
        # partial sum returned at the cap read 0.739 at df 1e6 (true 0.49981).
        with pytest.raises(DomainError, match="gamma series did not converge"):
            chi2_sf(float(df), df)

    def test_fraction_iteration_cap_raises(self):
        # Just past the series/fraction split, at df 1e6.
        with pytest.raises(DomainError, match="gamma fraction did not converge"):
            chi2_sf(1e6 + 2.0, 10**6)

    def test_small_tail_keeps_relative_precision(self):
        # Deep tails must not collapse to 0 from cancellation.
        v = chi2_sf(300.0, 3)
        assert 0.0 < v < 1e-60

    def test_zero(self):
        assert chi2_sf(0.0, 5) == 1.0


class TestFSf:
    def test_t_squared_is_f(self):
        # T^2 with df2 degrees of freedom is F(1, df2).
        rng = np.random.default_rng(106)
        for _ in range(100):
            t = float(rng.uniform(0.05, 8.0))
            df = int(rng.integers(1, 150))
            assert f_sf(t * t, 1, df) == pytest.approx(
                t_two_sided_p(t, df), abs=1e-10
            )

    def test_quadrature_grid(self):
        rng = np.random.default_rng(107)
        for _ in range(40):
            f = float(rng.uniform(0.05, 20.0))
            df1 = int(rng.integers(1, 60))
            df2 = int(rng.integers(1, 60))
            assert f_sf(f, df1, df2) == pytest.approx(
                f_sf_quad(f, df1, df2), abs=1e-9
            )

    def test_zero(self):
        assert f_sf(0.0, 3, 9) == 1.0

    def test_reciprocal_identity(self):
        # P(F_{a,b} >= f) = 1 - P(F_{b,a} >= 1/f)
        for f, a, b in ((2.0, 3, 11), (0.7, 8, 4), (5.5, 2, 2)):
            assert f_sf(f, a, b) == pytest.approx(1.0 - f_sf(1.0 / f, b, a), abs=1e-12)

    def test_iteration_cap_raises(self):
        # Both numerator and denominator df near 1e7 put the beta fraction
        # past its cap at the median; df up to 2e4 need at most ~120 terms.
        assert f_sf(1.0, 20_000, 20_000) == pytest.approx(0.5, abs=1e-9)
        with pytest.raises(DomainError, match="beta fraction did not converge"):
            f_sf(1.0, 10**7, 10**7)

    def test_domain(self):
        with pytest.raises(DomainError):
            f_sf(-1.0, 2, 2)
        with pytest.raises(DomainError):
            f_sf(1.0, 0, 2)


class TestLargeDfTailsAgainstMpmath:
    """t and F tails to df 2e4 within 1e-11 relative of mpmath at 40 digits.

    The grid and the random df1 = 1 points reach the complement branch of
    the incomplete beta (F near 2.9, t near 1.7), which multiplies the
    log-beta error by (1 - p)/p; `f_sf(2.9, 1, 16443)` is such a point.
    """

    DFS = (1, 2, 5, 10, 30, 100, 300, 1000, 3000, 10_000, 20_000)
    GRID = tuple(round(0.1 * k, 1) for k in range(1, 61))

    @staticmethod
    def expected_f(f, df1, df2):
        with mpmath.workdps(40):
            x = mpmath.mpf(df2) / (df2 + df1 * mpmath.mpf(f))
            a, b = mpmath.mpf(df2) / 2, mpmath.mpf(df1) / 2
            return float(mpmath.betainc(a, b, 0, x, regularized=True))

    def test_t_two_sided(self):
        with mpmath.workdps(40):
            for df in self.DFS:
                for t in self.GRID:
                    x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
                    expected = float(mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True))
                    got = t_two_sided_p(t, df)
                    assert got == pytest.approx(expected, rel=1e-11, abs=0.0), (t, df)

    @pytest.mark.parametrize("df1", [1, 10, 95])
    def test_f_sf(self, df1):
        for df2 in self.DFS:
            for f in self.GRID:
                expected = self.expected_f(f, df1, df2)
                assert f_sf(f, df1, df2) == pytest.approx(expected, rel=1e-11, abs=0.0), (f, df2)

    def test_f_sf_random_large_df2(self):
        rng = np.random.default_rng(16443)
        points = [(2.9, 16443)] + [
            (float(f), int(df2))
            for f, df2 in zip(rng.uniform(0.1, 6.0, 300), rng.integers(2000, 20_001, 300))
        ]
        for f, df2 in points:
            expected = self.expected_f(f, 1, df2)
            assert f_sf(f, 1, df2) == pytest.approx(expected, rel=1e-11, abs=0.0), (f, df2)


class TestStudentTQuantile:
    def test_median(self):
        assert student_t_quantile(0.5, 9) == 0.0

    def test_symmetry(self):
        assert student_t_quantile(0.1, 6) == -student_t_quantile(0.9, 6)

    def test_cauchy_closed_form(self):
        # df = 1 quantile is tan(pi (q - 1/2)).
        for q in (0.6, 0.75, 0.9, 0.975):
            assert student_t_quantile(q, 1) == pytest.approx(
                math.tan(math.pi * (q - 0.5)), rel=1e-9
            )

    def test_inversion_roundtrip(self):
        rng = np.random.default_rng(108)
        for _ in range(40):
            q = float(rng.uniform(0.55, 0.9995))
            df = int(rng.integers(1, 200))
            t = student_t_quantile(q, df)
            # Two-sided p at the quantile equals 2 (1 - q).
            assert t_two_sided_p(t, df) == pytest.approx(2.0 * (1.0 - q), abs=1e-10)

    def test_frozen_value_df52(self):
        # Computed independently by inverting the quadrature CDF.
        assert student_t_quantile(0.975, 52) == pytest.approx(
            2.0066468050617914, abs=1e-9
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_quantile(0.0, 5)
        with pytest.raises(DomainError):
            student_t_quantile(1.0, 5)
        with pytest.raises(DomainError):
            student_t_quantile(0.9, 0)


@given(st.floats(min_value=0.0, max_value=50.0), st.integers(min_value=1, max_value=300))
def test_property_tail_probabilities_in_unit_interval(t, df):
    assert 0.0 <= t_two_sided_p(t, df) <= 1.0
    assert 0.0 <= chi2_sf(t, df) <= 1.0
    assert 0.0 <= f_sf(t, 1, df) <= 1.0
