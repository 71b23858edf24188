"""Backward elimination by p-value."""
from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketval import numcore, selection
from marketval.errors import InferenceUnavailableError, InvalidInputError
from marketval.features import EncodedDataset, encode_dataset
from marketval.ingest import apply_filters, parse_players_csv
from marketval.ols import fit_ols
from marketval.selection import (
    MAX_COMPRESSED_CONDITION,
    _compressed_state,
    _worst_retained,
    backward_eliminate,
)
from marketval.synth import generate_players, records_to_csv
from conftest import dataset_from_arrays
from oracles import backward_eliminate_by_refits


def replay_trace(data, trace):
    """Re-run the elimination decisions and assert each recorded step.

    Refits from the original dataset: every step must have removed the
    column holding the strictly largest retained p-value (ties resolved to
    the lowest column index).
    """
    current = data
    for step in trace.steps:
        fit = fit_ols(current)
        dropped = set(fit.dropped_columns)
        candidates = [
            (float(fit.p_values[j]), j, name)
            for j, name in enumerate(fit.column_names)
            if name not in dropped and not math.isnan(fit.p_values[j])
        ]
        worst_p = max(p for p, _, _ in candidates)
        worst_j = min(j for p, j, _ in candidates if p == worst_p)
        worst_name = fit.column_names[worst_j]
        assert worst_name == step.removed_column
        assert worst_p == pytest.approx(step.removed_p_value, rel=1e-12)
        assert worst_p > trace.alpha
        keep = [i for i in range(current.design.cols) if i != worst_j]
        current = current.select_columns(keep)
    final = fit_ols(current)
    assert final.column_names == trace.final_fit.column_names
    if trace.conforming:
        retained_p = [
            p for j, p in enumerate(final.p_values)
            if final.column_names[j] not in set(final.dropped_columns)
            and not math.isnan(p)
        ]
        assert all(p <= trace.alpha for p in retained_p)


def noise_problem(seed, intercept=0.0):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(100), rng.normal(size=100), rng.normal(size=100)])
    y = intercept + 3.0 * x[:, 1] + rng.normal(size=100)
    return dataset_from_arrays(x, y, names=["const", "x1", "x2"])


class TestBackwardEliminate:
    def test_all_significant_zero_steps(self):
        rng = np.random.default_rng(400)
        x = np.column_stack([np.ones(50), rng.normal(size=50)])
        y = 10.0 + 5.0 * x[:, 1] + rng.normal(size=50) * 0.1
        data = dataset_from_arrays(x, y)
        trace = backward_eliminate(data, 0.05)
        assert trace.steps == ()
        assert trace.conforming
        assert trace.final_fit.column_names == data.column_names
        assert trace.final_data is data

    def test_vacuous_alpha_zero_steps(self):
        rng = np.random.default_rng(401)
        x = rng.normal(size=(30, 4))
        x[:, 0] = 1.0
        data = dataset_from_arrays(x, rng.normal(size=30))
        trace = backward_eliminate(data, 0.999999)
        assert trace.steps == ()
        assert trace.conforming

    def test_noise_column_removed_first(self):
        # Strong intercept and slope, one pure-noise column: exactly one step.
        data = noise_problem(42, intercept=5.0)
        trace = backward_eliminate(data, 0.05)
        assert len(trace.steps) == 1
        assert trace.steps[0].removed_column == "x2"
        assert trace.steps[0].removed_p_value > 0.05
        assert trace.final_fit.column_names == ("const", "x1")
        assert trace.conforming
        assert trace.final_data.column_names == ("const", "x1")
        assert np.array_equal(trace.final_data.design.array(), data.design.array()[:, :2])

    def test_bias_column_eligible_for_removal(self):
        # True intercept is zero: const goes, the real slope stays.
        rng = np.random.default_rng(7)
        x1 = rng.normal(size=60)
        x = np.column_stack([np.ones(60), x1])
        y = 2.0 * x1 + rng.normal(size=60) * 0.5
        data = dataset_from_arrays(x, y, names=["const", "x1"])
        trace = backward_eliminate(data, 0.05)
        assert [s.removed_column for s in trace.steps] == ["const"]
        assert trace.final_fit.column_names == ("x1",)
        assert trace.conforming

    def test_single_column_floor_flags_non_conforming(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(40), rng.normal(size=40), rng.normal(size=40)])
        y = rng.normal(size=40) + 5.0
        data = dataset_from_arrays(x, y, names=["const", "x1", "x2"])
        trace = backward_eliminate(data, 1e-300)
        assert not trace.conforming
        assert len(trace.final_fit.column_names) == 1
        assert len(trace.steps) == 2

    def test_floor_counts_retained_columns(self):
        # x1 is all zeros, so the model retains x0 alone: the floor holds
        # there instead of removing x0 and leaving a rank-zero model.
        rng = np.random.default_rng(5)
        x = np.column_stack([rng.normal(size=30), np.zeros(30)])
        data = dataset_from_arrays(x, rng.normal(size=30), bias=False)
        trace = backward_eliminate(data, 0.01)
        assert not trace.conforming
        assert trace.steps == ()
        assert trace.final_fit.retained_columns == ("x0",)
        assert trace.final_fit.p_values[0] > 0.01
        assert_same_as_refits(data, 0.01)

    def test_step_count_matches_column_difference(self):
        rng = np.random.default_rng(402)
        x = rng.normal(size=(80, 6))
        x[:, 0] = 1.0
        beta = np.array([2.0, 3.0, 0.0, 0.0, -1.0, 0.0])
        y = x @ beta + rng.normal(size=80)
        data = dataset_from_arrays(x, y)
        trace = backward_eliminate(data, 0.05)
        assert len(trace.steps) == len(data.column_names) - len(
            trace.final_fit.column_names
        )

    def test_every_step_p_above_alpha(self):
        rng = np.random.default_rng(403)
        x = rng.normal(size=(60, 5))
        x[:, 0] = 1.0
        y = x[:, 1] * 2.0 + rng.normal(size=60)
        data = dataset_from_arrays(x, y)
        trace = backward_eliminate(data, 0.10)
        for step in trace.steps:
            assert step.removed_p_value > 0.10

    def test_trace_replay(self):
        for seed in (0, 1, 2, 3):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(70, 6))
            x[:, 0] = 1.0
            beta = np.array([1.0, 2.5, 0.0, 0.1, 0.0, -2.0])
            y = x @ beta + rng.normal(size=70)
            data = dataset_from_arrays(x, y)
            trace = backward_eliminate(data, 0.05)
            replay_trace(data, trace)

    def test_final_model_conformance(self):
        rng = np.random.default_rng(404)
        x = rng.normal(size=(90, 7))
        x[:, 0] = 1.0
        y = x[:, 1] - 2.0 * x[:, 3] + rng.normal(size=90)
        data = dataset_from_arrays(x, y)
        trace = backward_eliminate(data, 0.05)
        assert trace.conforming
        fit = trace.final_fit
        retained = [
            p for j, p in enumerate(fit.p_values)
            if not math.isnan(p) and fit.column_names[j] not in fit.dropped_columns
        ]
        assert max(retained) <= 0.05

    def test_path_determinism_through_intermediate_model(self):
        # Eliminating at alpha2 < alpha1 from the alpha1 result equals
        # eliminating at alpha2 directly from that intermediate model.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(50, 6))
            x[:, 0] = 1.0
            beta = np.array([1.0, 2.0, 0.0, 0.05, -1.5, 0.0])
            y = x @ beta + rng.normal(size=50)
            data = dataset_from_arrays(x, y)
            t1 = backward_eliminate(data, 0.20)
            keep = [
                j for j, n in enumerate(data.column_names)
                if n in t1.final_fit.column_names
            ]
            intermediate = data.select_columns(keep)
            again = backward_eliminate(intermediate, 0.01)
            direct = backward_eliminate(intermediate, 0.01)
            assert again.final_fit.column_names == direct.final_fit.column_names
            assert [s.removed_column for s in again.steps] == [
                s.removed_column for s in direct.steps
            ]

    def test_deterministic_trace(self):
        data = noise_problem(11)
        t1 = backward_eliminate(data, 0.05)
        t2 = backward_eliminate(data, 0.05)
        assert [s.removed_column for s in t1.steps] == [
            s.removed_column for s in t2.steps
        ]
        assert [s.removed_p_value for s in t1.steps] == [
            s.removed_p_value for s in t2.steps
        ]
        assert np.array_equal(t1.final_fit.coefficients, t2.final_fit.coefficients)

    def test_collinear_column_sidelined_until_twin_removed(self):
        # A rank-dropped column has no p-value, so it cannot be the first
        # removal; once its retained twin is eliminated it regains rank in
        # the refit and competes normally (with the twin's p-value, since
        # the data are identical).
        rng = np.random.default_rng(405)
        base = rng.normal(size=(50, 3))
        base[:, 0] = 1.0
        x = np.column_stack([base, base[:, 1]])
        y = rng.normal(size=50)
        data = dataset_from_arrays(x, y, names=["const", "x1", "x2", "x3"])
        initial_fit = fit_ols(data)
        assert initial_fit.dropped_columns == ("x3",)
        trace = backward_eliminate(data, 0.01)
        removed = [s.removed_column for s in trace.steps]
        assert removed[0] != "x3"
        assert removed[0] == "x1"
        assert removed[1] == "x3"
        assert trace.steps[0].removed_p_value == pytest.approx(
            trace.steps[1].removed_p_value, rel=1e-9
        )

    def test_alpha_validation(self):
        data = noise_problem(12)
        with pytest.raises(InvalidInputError):
            backward_eliminate(data, 0.0)
        with pytest.raises(InvalidInputError):
            backward_eliminate(data, 1.0)

    def test_saturated_initial_fit_rejected(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        data = dataset_from_arrays(x, [1.0, 3.0])
        with pytest.raises(InferenceUnavailableError):
            backward_eliminate(data, 0.05)

    def test_model_summaries_recorded_per_step(self):
        data = noise_problem(42, intercept=5.0)
        trace = backward_eliminate(data, 0.05)
        step = trace.steps[0]
        assert step.model_after.k_params == 2
        assert step.model_after.r_squared == pytest.approx(
            trace.final_fit.r_squared, abs=1e-12
        )
        assert step.model_after.adj_r_squared == pytest.approx(
            trace.final_fit.adj_r_squared, abs=1e-12
        )


def assert_same_as_refits(data, alpha):
    """`backward_eliminate` against the refit-every-round oracle."""
    oracle = backward_eliminate_by_refits(data, alpha)
    trace = backward_eliminate(data, alpha)
    assert [s.removed_column for s in trace.steps] == [s.removed_column for s in oracle.steps]
    assert [s.model_after.k_params for s in trace.steps] == [
        s.model_after.k_params for s in oracle.steps
    ]
    assert trace.conforming == oracle.conforming
    for step, ref in zip(trace.steps, oracle.steps):
        assert step.removed_p_value == pytest.approx(ref.removed_p_value, rel=1e-12, abs=0)
        assert step.model_after.r_squared == pytest.approx(ref.model_after.r_squared, rel=0, abs=1e-12)
    assert trace.final_fit.column_names == oracle.final_fit.column_names
    assert np.array_equal(trace.final_fit.coefficients, oracle.final_fit.coefficients)


@st.composite
def elimination_problems(draw):
    """Small designs with ties, exact and near dependencies, constants, with or without bias."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(12, 80))
    bias = draw(st.booleans())
    cols = [np.ones(n)] if bias else []
    cols += [rng.normal(size=n) for _ in range(draw(st.integers(1, 6)))]
    dummies = [(rng.random(n) < 0.3).astype(float) for _ in range(draw(st.integers(0, 3)))]
    cols += dummies
    if draw(st.booleans()):  # exact twin
        cols.append(cols[-1].copy())
    if dummies and draw(st.booleans()):  # identical 0/1 column
        cols.append(dummies[0].copy())
    if len(cols) >= 3 and draw(st.booleans()):  # collinear group
        cols.append(cols[-1] - 2.0 * cols[-2] + 0.5 * cols[-3])
    if draw(st.booleans()):
        cols.append(np.full(n, draw(st.sampled_from([0.0, 1.0, 3.5]))))
    for _ in range(draw(st.integers(0, 2))):  # near twin at 1e-2 .. 1e-7 of the RMS
        base = cols[draw(st.integers(0, len(cols) - 1))]
        rms = math.sqrt(float(base @ base) / n) or 1.0
        scale = 10.0 ** -draw(st.integers(2, 7))
        cols.append(base + scale * rms * rng.normal(size=n))
    x = np.column_stack(cols)
    beta = rng.normal(size=x.shape[1]) * (rng.random(x.shape[1]) < 0.4)
    y = x @ beta + rng.normal(size=n) * draw(st.sampled_from([0.3, 1.0, 3.0]))
    alpha = draw(st.sampled_from([0.01, 0.05, 0.1, 0.2]))
    return dataset_from_arrays(x, y, bias=bias), alpha


def synth_cli_dataset(seed: int, n: int = 105) -> EncodedDataset:
    """The design `marketval select` builds from `marketval synth --seed S --n N`."""
    records, _ = generate_players(seed, n)
    parsed = parse_players_csv(records_to_csv(records).encode("utf-8"))
    return encode_dataset(list(apply_filters(parsed).accepted))


class TestCompressedElimination:
    @settings(max_examples=200)
    @given(elimination_problems())
    def test_matches_refit_every_round(self, problem):
        data, alpha = problem
        if fit_ols(data).inference_available:
            assert_same_as_refits(data, alpha)

    # Seeds whose synth designs hold exact twins and collinear groups on
    # which an uncertified compressed step picks another column.
    @pytest.mark.parametrize("seed", [9, 38, 46, 148])
    @pytest.mark.parametrize("alpha", [0.1, 0.05])
    def test_matches_refit_on_synth_cli_designs(self, seed, alpha):
        assert_same_as_refits(synth_cli_dataset(seed), alpha)

    @pytest.mark.parametrize("n_noise, steps", [(0, 0), (6, 6)])
    def test_tall_design_factored_once_before_the_final_fit(self, monkeypatch, n_noise, steps):
        # Well-conditioned noise columns: every compressed step certifies.
        rng = np.random.default_rng(406)
        n = 400
        x = np.column_stack([np.ones(n), rng.normal(size=(n, 3 + n_noise))])
        y = 5.0 + x[:, 1:4] @ np.array([3.0, -2.0, 4.0]) + rng.normal(size=n)
        data = dataset_from_arrays(x, y)
        rows_reduced: list[int] = []
        rows_factored: list[int] = []
        selections: list[int] = []
        reduce, qr, select = numcore.triangle, numcore.qr_pivoted, EncodedDataset.select_columns

        def counting_triangle(x, y):
            rows_reduced.append(x.shape[0])
            return reduce(x, y)

        def counting_qr(m, *args, **kwargs):
            rows_factored.append(numcore.as_matrix(m).rows)
            return qr(m, *args, **kwargs)

        def counting_select(self, keep):
            selections.append(len(keep))
            return select(self, keep)

        monkeypatch.setattr(numcore, "triangle", counting_triangle)
        monkeypatch.setattr(numcore, "qr_pivoted", counting_qr)
        monkeypatch.setattr(EncodedDataset, "select_columns", counting_select)
        trace = backward_eliminate(data, 0.001)
        assert len(trace.steps) == steps
        # The first fit and the final refit reduce the tall design; every
        # factorization, theirs and each step's, has at most p + 1 rows.
        assert rows_reduced == [n] * (1 if steps == 0 else 2)
        assert max(rows_factored) <= data.design.cols + 1
        assert len(rows_factored) == len(rows_reduced) + steps
        assert len(selections) == (0 if steps == 0 else 1)

    @pytest.mark.parametrize("twin, refits", [(False, 1), (True, 3)])
    def test_earlier_factorizations_released_before_each_refit(self, monkeypatch, twin, refits):
        # Without the twin every step certifies and only the final model is
        # refitted; an exact twin of x1 makes every compressed step rank
        # deficient, so each step refits.
        rng = np.random.default_rng(409)
        x = np.column_stack([np.ones(60), rng.normal(size=(60, 4))])
        if twin:
            x = np.column_stack([x, x[:, 1]])
        y = 1.0 + 3.0 * x[:, 1] + rng.normal(size=60)
        # The first fit's design is the input's, and its triangle serves every
        # compressed step: only a refit's design and triangle are tracked.
        earlier: list[weakref.ref] = []
        released: list[bool] = []

        def tracking_fit(*args, **kwargs):
            released.append(all(ref() is None for ref in earlier))
            fit = fit_ols(*args, **kwargs)
            if len(released) > 1:
                earlier.extend((weakref.ref(fit.design), weakref.ref(fit.triangle)))
            return fit

        monkeypatch.setattr(selection, "fit_ols", tracking_fit)
        trace = backward_eliminate(dataset_from_arrays(x, y), 0.01)
        assert len(trace.steps) == 3
        assert released == [True] * (1 + refits)


class TestWorstRetained:
    """The column each round removes: largest p, ties to the lowest index."""

    def fit_with_zero_column(self):
        # x1 is all zeros, so the fit drops it and its p is NaN.
        rng = np.random.default_rng(409)
        x = np.column_stack([np.ones(20), np.zeros(20), rng.normal(size=(20, 3))])
        fit = fit_ols(dataset_from_arrays(x, rng.normal(size=20)))
        assert fit.factors.dropped_columns == (1,)
        assert math.isnan(fit.p_values[1])
        return fit

    def test_tie_goes_to_the_lowest_index_past_a_dropped_nan(self):
        fit = self.fit_with_zero_column()
        p = np.array([0.3, math.nan, 0.01, 0.7, 0.7])
        assert _worst_retained(dataclasses.replace(fit, p_values=p)) == (3, 0.7)

    def test_tie_at_index_zero_wins(self):
        fit = self.fit_with_zero_column()
        p = np.array([0.2, math.nan, 0.1, 0.05, 0.2])
        assert _worst_retained(dataclasses.replace(fit, p_values=p)) == (0, 0.2)

    def test_all_nan_gives_none(self):
        fit = self.fit_with_zero_column()
        assert _worst_retained(dataclasses.replace(fit, p_values=np.full(5, math.nan))) is None
        saturated = fit_ols(dataset_from_arrays(np.eye(3), [1.0, 2.0, 3.0], bias=False))
        assert not saturated.inference_available
        assert _worst_retained(saturated) is None


def compressed_state(data, keep, alpha):
    return _compressed_state(data, keep, numcore.triangle(data.design.array(), data.response),
                             alpha)


class TestCompressedStepCertification:
    """A compressed step decides only when rounding cannot change the decision."""

    def design(self, extra=None):
        rng = np.random.default_rng(407)
        x = np.column_stack([np.ones(60), rng.normal(size=(60, 4))])
        if extra is not None:
            x = np.column_stack([x, extra(x, rng)])
        y = 1.0 + 2.0 * x[:, 1] + 0.2 * x[:, 2] + rng.normal(size=60)
        return dataset_from_arrays(x, y)

    def test_clear_step_matches_refit(self):
        data = self.design()
        keep = [0, 1, 2, 4]
        (pos, p), summary = compressed_state(data, keep, 0.05)
        fit = fit_ols(data.select_columns(keep))
        assert fit.column_names[pos] == "x4"
        assert p == pytest.approx(float(np.nanmax(fit.p_values)), rel=1e-12)
        assert summary.k_params == fit.k_params
        assert summary.r_squared == pytest.approx(fit.r_squared, abs=1e-12)
        assert summary.adj_r_squared == pytest.approx(fit.adj_r_squared, abs=1e-12)

    def test_worst_p_at_alpha_left_to_refit(self):
        data = self.design()
        keep = [0, 1, 2, 4]
        (_, p), _ = compressed_state(data, keep, 0.05)
        for alpha in (p, p * (1 + 1e-10), p * (1 - 1e-10)):
            assert compressed_state(data, keep, alpha) is None
        assert compressed_state(data, keep, p * (1 + 1e-8)) is not None

    def test_tied_p_values_left_to_refit(self):
        # Rows come in pairs with x1 and x2 swapped and the same response,
        # so the two columns' p-values tie exactly.
        rng = np.random.default_rng(408)
        a, b = rng.normal(size=(2, 30))
        x = np.column_stack([np.ones(60), np.r_[a, b], np.r_[b, a], np.tile(rng.normal(size=30), 2)])
        y = np.tile(rng.normal(size=30), 2)
        data = dataset_from_arrays(x, y)
        fit = fit_ols(data)
        assert fit.p_values[1] == pytest.approx(fit.p_values[2], rel=1e-12)
        assert min(fit.p_values[1:3]) > max(fit.p_values[[0, 3]])
        assert compressed_state(data, [0, 1, 2, 3], 0.05) is None

    def test_rank_deficient_step_left_to_refit(self):
        data = self.design(lambda x, rng: x[:, 3])
        assert compressed_state(data, [0, 1, 2, 3, 5], 0.05) is None
        assert compressed_state(data, [0, 1, 2, 5], 0.05) is not None

    @pytest.mark.parametrize("scale, certified", [(1e-1, True), (1e-3, False), (1e-7, False)])
    def test_ill_conditioned_step_left_to_refit(self, scale, certified):
        data = self.design(lambda x, rng: x[:, 3] + scale * rng.normal(size=60))
        keep = [0, 1, 2, 3, 5]
        pivots = np.abs(np.diag(numcore.qr_pivoted(data.design.array()[:, keep]).r))
        assert (pivots.max() / pivots.min() <= MAX_COMPRESSED_CONDITION) == certified
        assert (compressed_state(data, keep, 0.05) is not None) == certified
