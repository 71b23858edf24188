"""Acceptance suite: ten checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
check pins its tolerances inline and asserts its own runtime budget.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from marketval.cli import main
from marketval.diagnostics import BP_KOENKER, breusch_pagan
from marketval.distributions import (
    chi2_sf,
    f_sf,
    student_t_quantile,
    t_two_sided_p,
)
from marketval.features import (
    CATEGORICAL_ATTRIBUTES,
    KIND_BIAS,
    KIND_CONTINUOUS,
    KIND_ENCODED,
    age_group,
    card_score,
    encode_dataset,
    goal_contribution,
    height_group,
    match_group,
)
from marketval.ingest import (
    RULE_MINUTES,
    RULE_TRANSFER,
    RULE_VALUE,
    FilterConfig,
    apply_filters,
)
from marketval.ols import (
    adjusted_r_squared,
    f_statistic,
    fit_ols,
    information_criteria,
)
from marketval.selection import backward_eliminate
from marketval.synth import generate_players

from conftest import dataset_from_arrays
from oracles import chi2_sf_quad, f_sf_quad, normal_equations_summary, t_two_sided_quad
from test_diagnostics import bp_hand_case
from test_features import make_record
from test_selection import replay_trace


@contextmanager
def _criterion(num: int, name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL  {name}")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < budget_s
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status}  {name} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert ok, f"criterion {num} ({name}) took {elapsed:.2f}s, budget {budget_s:g}s"


def test_criterion_01_summary_block_53_params():
    with _criterion(1, "53-parameter summary block consistency", 1.0):
        adj = adjusted_r_squared(0.930, 105, 52, True)
        assert abs(adj - 0.860) <= 5e-4

        f_stat = f_statistic(0.930, 52, 52)
        assert abs(f_stat - 13.29) <= 5e-3

        prob_f = f_sf(f_stat, 52, 52)
        assert 4.05e-17 / 2.0 <= prob_f <= 4.05e-17 * 2.0

        ic = information_criteria(-363.75, 53, 105)
        assert abs(ic.aic - 833.5) <= 0.05
        assert abs(ic.bic - 974.2) <= 0.05

        coef, se = 51.3703, 6.942
        t = coef / se
        assert abs(t - 7.400) <= 5e-4
        tq = student_t_quantile(0.975, 52)
        assert abs((coef - tq * se) - 37.440) <= 1e-3
        assert abs((coef + tq * se) - 65.301) <= 1e-3


def test_criterion_02_summary_blocks_96_and_25_params():
    with _criterion(2, "96-parameter and bias-free 25-parameter blocks", 1.0):
        adj_full = adjusted_r_squared(0.963, 105, 9, True)
        assert 0.570 <= adj_full <= 0.578
        ic_full = information_criteria(-329.96, 96, 105)
        assert abs(ic_full.aic - 851.9) <= 0.05
        assert abs(ic_full.bic - 1107.0) <= 0.5

        adj_nb = adjusted_r_squared(0.944, 105, 80, False)
        assert abs(adj_nb - 0.927) <= 1e-3
        ic_nb = information_criteria(-410.63, 25, 105)
        assert abs(ic_nb.aic - 871.3) <= 0.05
        assert abs(ic_nb.bic - 937.6) <= 0.05
        prob_f = f_sf(53.99, 25, 80)
        assert 4.30e-40 / 2.0 <= prob_f <= 4.30e-40 * 2.0


def test_criterion_03_normal_equations_oracle():
    with _criterion(3, "fit statistics vs normal-equations oracle, 200 problems", 10.0):
        rng = np.random.default_rng(777)
        scalars = (
            "rss",
            "r_squared",
            "adj_r_squared",
            "f_statistic",
            "log_likelihood",
            "aic",
            "bic",
        )
        for _ in range(200):
            n = int(rng.integers(12, 51))
            p = int(rng.integers(2, 9))
            design = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
            beta = rng.normal(size=p) * 3.0
            y = design @ beta + rng.normal(size=n)
            fit = fit_ols(dataset_from_arrays(design, y))
            assert fit.k_params == p
            oracle = normal_equations_summary(design, y, True)
            assert np.allclose(fit.coefficients, oracle["coefficients"], rtol=1e-8, atol=1e-10)
            assert np.allclose(fit.std_errors, oracle["std_errors"], rtol=1e-8, atol=1e-10)
            assert np.allclose(fit.fitted, oracle["fitted"], rtol=1e-8, atol=1e-10)
            assert np.allclose(fit.residuals, oracle["residuals"], rtol=1e-8, atol=1e-10)
            for field in scalars:
                assert math.isclose(
                    getattr(fit, field), oracle[field], rel_tol=1e-8, abs_tol=1e-10
                ), field


def test_criterion_04_distribution_accuracy():
    with _criterion(4, "tail probabilities vs identities and quadrature", 10.0):
        for t in np.geomspace(0.01, 100.0, 120):
            heavy_tail = 1.0 - 2.0 * math.atan(float(t)) / math.pi
            assert abs(t_two_sided_p(float(t), 1) - heavy_tail) <= 1e-10
        for x in np.linspace(0.02, 40.0, 120):
            assert abs(chi2_sf(float(x), 2) - math.exp(-float(x) / 2.0)) <= 1e-10
        rng = np.random.default_rng(4242)
        for _ in range(120):
            t = float(rng.uniform(0.05, 6.0))
            df = int(rng.integers(1, 60))
            assert abs(t_two_sided_p(t, df) - f_sf(t * t, 1, df)) <= 1e-10
        for _ in range(100):
            t = float(rng.uniform(0.1, 6.0))
            df = int(rng.integers(1, 40))
            assert abs(t_two_sided_p(t, df) - t_two_sided_quad(t, df)) <= 1e-9
        for _ in range(100):
            x = float(rng.uniform(0.05, 50.0))
            df = int(rng.integers(1, 40))
            assert abs(chi2_sf(x, df) - chi2_sf_quad(x, df)) <= 1e-9
        for _ in range(100):
            f = float(rng.uniform(0.1, 8.0))
            df1 = int(rng.integers(1, 30))
            df2 = int(rng.integers(1, 30))
            assert abs(f_sf(f, df1, df2) - f_sf_quad(f, df1, df2)) <= 1e-9


def test_criterion_05_heteroscedasticity_test_calibration_and_power():
    with _criterion(5, "LM test: hand value, null size, power", 60.0):
        fit, data = bp_hand_case()
        res = breusch_pagan(fit)[BP_KOENKER]
        assert abs(res.lm_statistic - 3.2) <= 1e-9
        assert abs(res.p_value - 0.0736382701203026) <= 1e-6

        beta = np.array([1.0, 0.5, -0.3, 0.8])
        rejections = 0
        for k in range(1000):
            rng = np.random.default_rng(20_000 + k)
            design = np.column_stack([np.ones(100), rng.normal(size=(100, 3))])
            y = design @ beta + rng.normal(size=100)
            d = dataset_from_arrays(design, y)
            if breusch_pagan(fit_ols(d))[BP_KOENKER].p_value < 0.05:
                rejections += 1
        size = rejections / 1000.0
        assert 0.03 <= size <= 0.07, f"null rejection rate {size}"

        hits = 0
        for k in range(500):
            rng = np.random.default_rng(10_000 + k)
            x = rng.uniform(1.0, 10.0, size=200)
            y = 1.0 + 2.0 * x + rng.normal(size=200) * np.sqrt(x)
            d = dataset_from_arrays(np.column_stack([np.ones(200), x]), y)
            if breusch_pagan(fit_ols(d))[BP_KOENKER].p_value < 0.05:
                hits += 1
        power = hits / 500.0
        assert power >= 0.80, f"power {power}"


def test_criterion_06_elimination_replay_and_recovery():
    with _criterion(6, "elimination trace replay and noise-column recovery", 60.0):
        recoveries = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x1 = rng.normal(size=100)
            x2 = rng.normal(size=100)
            y = 3.0 * x1 + rng.normal(size=100)
            data = dataset_from_arrays(np.column_stack([np.ones(100), x1, x2]), y)
            trace = backward_eliminate(data, 0.05)
            replay_trace(data, trace)
            final = trace.final_fit
            if trace.conforming:
                dropped = set(final.dropped_columns)
                retained_p = [
                    float(p)
                    for j, p in enumerate(final.p_values)
                    if final.column_names[j] not in dropped and not math.isnan(p)
                ]
                assert max(retained_p) <= 0.05
            names = set(final.column_names)
            if "x1" in names and "x2" not in names:
                recoveries += 1
        rate = recoveries / 200.0
        assert rate >= 0.95, f"recovery rate {rate}"


def test_criterion_07_encoding_conformance():
    with _criterion(7, "discretizer goldens and dummy column counts", 1.0):
        assert match_group(20) == 2
        assert match_group(40) == 6
        assert match_group(11) == 1
        assert match_group(2) == 1
        assert age_group(20) == 0
        assert height_group(191) == 6
        assert goal_contribution(10, 4) == 12.0
        assert card_score(2, 0, 1) == 5

        for seed in (0, 1, 2):
            records, _ = generate_players(seed, 60)
            data = encode_dataset(list(records))
            counts = Counter(
                meta.source_attribute for meta in data.columns if meta.kind == KIND_ENCODED
            )
            for attr, extract in CATEGORICAL_ATTRIBUTES:
                distinct = len({extract(r) for r in records})
                assert counts.get(attr, 0) == distinct - 1, attr


def test_criterion_08_filter_goldens():
    with _criterion(8, "filter thresholds at their boundaries", 1.0):
        cfg = FilterConfig()

        res = apply_filters(
            [make_record(minutes_played=1000), make_record(minutes_played=999)], cfg
        )
        assert [r.minutes_played for r in res.accepted] == [1000]
        assert [e.rule for e in res.log.entries] == [RULE_MINUTES]

        res = apply_filters(
            [make_record(market_value_m_eur=20.0), make_record(market_value_m_eur=19.9)],
            cfg,
        )
        assert [r.market_value_m_eur for r in res.accepted] == [20.0]
        assert [e.rule for e in res.log.entries] == [RULE_VALUE]

        res = apply_filters([make_record(mid_season_transfer=True)], cfg)
        assert len(res.accepted) == 0
        assert [e.rule for e in res.log.entries] == [RULE_TRANSFER]
        res = apply_filters(
            [make_record(mid_season_transfer=True)],
            FilterConfig(exclude_mid_season_transfers=False),
        )
        assert len(res.accepted) == 1


def test_criterion_09_end_to_end_determinism(tmp_path):
    with _criterion(9, "byte-identical pipeline outputs across reruns", 5.0):
        def run_round(out):
            assert main(["synth", "--seed", "42", "--n", "105", "--out", str(out)]) == 0
            csv = out / "synth.csv"
            assert main(
                ["select", "--input", str(csv), "--alpha", "0.1", "--out", str(out)]
            ) == 0
            assert main(
                ["diagnose", "--input", str(csv), "--select", "--alpha", "0.1",
                 "--out", str(out)]
            ) == 0

        a, b = tmp_path / "a", tmp_path / "b"
        run_round(a)
        run_round(b)
        for name in ("summary.txt", "trace.json", "diagnostics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_criterion_10_truth_recovery_on_synthetic_data():
    with _criterion(10, "true coefficients inside 3-SE bands across 100 seeds", 120.0):
        total = 0
        within = 0
        for seed in range(100):
            records, truth = generate_players(seed, 160)
            accepted = list(apply_filters(list(records)).accepted)
            data = encode_dataset(accepted)
            fit = fit_ols(data)
            std_by_col = {p.column: p for p in data.standardization_params}
            base = truth.intercept
            base += sum(
                truth.level_effects[attr][lvl] for attr, lvl in data.dropped_levels.items()
            )
            base += sum(
                truth.continuous_slopes[p.column] * p.mean
                for p in data.standardization_params
            )
            for j, meta in enumerate(data.columns):
                se = float(fit.std_errors[j])
                if not math.isfinite(se):
                    continue
                if meta.kind == KIND_BIAS:
                    true_val = base
                elif meta.kind == KIND_ENCODED:
                    effects = truth.level_effects[meta.source_attribute]
                    true_val = effects[meta.level] - effects[
                        data.dropped_levels[meta.source_attribute]
                    ]
                else:
                    assert meta.kind == KIND_CONTINUOUS
                    params = std_by_col[meta.name]
                    true_val = truth.continuous_slopes[meta.name] * params.std
                total += 1
                if abs(float(fit.coefficients[j]) - true_val) <= 3.0 * se:
                    within += 1
        coverage = within / total
        assert coverage >= 0.90, f"coverage {coverage} over {total} coefficients"
