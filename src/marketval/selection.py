"""Backward elimination of regressors by p-value, with a full audit trace.

The design X is factored once, X = QR.  Every later model is fitted on the
compressed problem [R | Q'y] instead of on X: for any column subset S the
least-squares fit of y on X_S equals the fit of Q'y on the columns S of R
(columns in design order), and its rss is that fit's rss plus
rho^2 = ||y - QQ'y||^2.  A step therefore factors a p x k matrix, whatever
the number of rows (Golub & Van Loan, Matrix Computations, section 6.5;
Miller, Subset Selection in Regression, ch. 2).

The compressed fit agrees with a refit of X_S only to rounding, so it
decides a step only when rounding cannot change the decision (see
`_compressed_state`).  Any other step refits X_S with `fit_ols`, and the
final model is always such a refit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import distributions, numcore
from .errors import InferenceUnavailableError, InvalidInputError
from .features import EncodedDataset
from .ols import FitResult, adjusted_r_squared, fit_ols, r_squared, total_sum_of_squares

# A compressed step decides only when its pivoted R has |r_00 / r_kk| at most
# this.  On random designs with near twins the worst p-value of such steps
# stayed within 5.5e-13 relative of a refit's; at 300-400 it reached 1.1e-12,
# past the 1e-12 that trace replay allows.
MAX_COMPRESSED_CONDITION = 200.0
# Relative gap the worst p-value must keep from the runner-up and from alpha
# for a compressed step to decide; closer calls are left to a refit.
_DECISION_MARGIN = 1e-9


@dataclass(frozen=True)
class ModelSummary:
    k_params: int
    r_squared: float
    adj_r_squared: float


@dataclass(frozen=True)
class EliminationStep:
    removed_column: str
    removed_p_value: float
    model_after: ModelSummary


@dataclass(frozen=True)
class EliminationTrace:
    """One backward-elimination run: every removal plus the final fit.

    `conforming` is False when the loop hit the single-retained-column floor
    with that column's p-value still above alpha (no conforming model exists on
    this path).  `final_data` is the dataset `final_fit` was fitted on: the
    input's retained columns, or the input itself when nothing was removed.
    """

    alpha: float
    steps: tuple[EliminationStep, ...]
    final_fit: FitResult
    conforming: bool
    final_data: EncodedDataset = field(compare=False, repr=False)


# Worst retained column of a model: position among its columns, name, p-value.
_Worst = tuple[int, str, float]


def _worst_retained(fit: FitResult) -> _Worst | None:
    """Index, name and p of the largest retained p-value; ties -> lowest index."""
    dropped = set(fit.dropped_columns)
    best: _Worst | None = None
    for j, name in enumerate(fit.column_names):
        if name in dropped:
            continue
        p = float(fit.p_values[j])
        if math.isnan(p):
            continue
        if best is None or p > best[2]:
            best = (j, name, p)
    return best


@dataclass(frozen=True)
class _Compressed:
    """[R | Q'y] of the full design, R's columns in design order, and rho^2."""

    r: np.ndarray
    qty: np.ndarray
    rho2: float

    @classmethod
    def from_factors(cls, factors: numcore.QrFactors, y: np.ndarray) -> "_Compressed":
        r = np.empty_like(factors.r)
        r[:, list(factors.permutation)] = factors.r
        qty = factors.q.T @ y
        resid = y - factors.q @ qty
        return cls(r=r, qty=qty, rho2=float(resid @ resid))


def _compressed_state(
    data: EncodedDataset, keep: list[int], compressed: _Compressed, alpha: float
) -> tuple[_Worst, ModelSummary] | None:
    """Worst column and summary of the model on `keep`, from [R | Q'y].

    Returns None, leaving the step to a refit, unless the decision is
    certified: the compressed columns have full rank with
    |r_00 / r_kk| <= MAX_COMPRESSED_CONDITION, and the worst p-value is
    more than `_DECISION_MARGIN` (relative) away from both the runner-up
    and alpha.  Only the two smallest |t| get a p-value: at fixed degrees
    of freedom p falls as |t| rises.
    """
    k = len(keep)
    df_resid = data.design.rows - k
    x = numcore.Matrix(compressed.r[:, keep])
    factors = numcore.qr_pivoted(x)
    pivots = np.abs(np.diag(factors.r))
    if factors.rank < k or df_resid < 1 or pivots[0] > MAX_COMPRESSED_CONDITION * pivots[k - 1]:
        return None
    solution = numcore.solve_from_factors(factors, x, compressed.qty)
    rss = solution.rss + compressed.rho2
    if rss <= 0.0:
        return None
    t = solution.coefficients / np.sqrt(rss / df_resid * numcore.unscaled_covariance(factors))
    candidates = sorted(
        ((distributions.t_two_sided_p(float(t[pos]), df_resid), int(pos))
         for pos in np.argsort(np.abs(t), kind="stable")[:2]),
        reverse=True,
    )
    p, pos = candidates[0]
    if len(candidates) == 2 and p - candidates[1][0] <= _DECISION_MARGIN * p:
        return None
    if abs(p - alpha) <= _DECISION_MARGIN * alpha:
        return None
    has_bias = data.has_bias and keep[0] == 0
    r2 = r_squared(rss, total_sum_of_squares(data.response, has_bias))
    summary = ModelSummary(k, r2, adjusted_r_squared(r2, data.design.rows, df_resid, has_bias))
    return (pos, data.column_names[keep[pos]], p), summary


def backward_eliminate(
    data: EncodedDataset, alpha: float, confidence_level: float = 0.95
) -> EliminationTrace:
    """Repeatedly drop the worst-p column until every p-value is <= alpha.

    Each round finds the largest p-value among retained columns (ties
    broken by lowest column index) and, if it exceeds `alpha`, removes
    that column and fits the smaller model.  The bias column competes like
    any other.  The last retained column is never removed, even when
    columns dropped as collinear remain beside it; if its p-value still
    exceeds alpha the trace is flagged non-conforming.

    The first fit's factorization (`FitResult.factors`) compresses the
    design; the rounds after it fit the compressed problem (module
    docstring) and fall back to a full refit for any round the compressed
    fit cannot decide exactly.  The removed columns, every `k_params` and
    the final fit are those of refitting every round; recorded p-values
    and R^2 may differ from a refit's in the last digits (at most ~1e-12
    relative).

    Deterministic: identical inputs give identical traces.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError("alpha must be in (0, 1)")
    fit: FitResult | None = fit_ols(data, confidence_level)
    if not fit.inference_available:
        raise InferenceUnavailableError(
            "initial fit has no residual degrees of freedom; cannot rank p-values"
        )
    fit_data: EncodedDataset | None = data
    compressed = _Compressed.from_factors(fit.factors, data.response)
    keep = list(range(data.design.cols))
    worst = _worst_retained(fit)
    k_params = fit.k_params
    steps: list[EliminationStep] = []
    conforming = True
    while worst is not None and worst[2] > alpha:
        if k_params == 1:
            conforming = False
            break
        pos, name, p = worst
        del keep[pos]
        # Neither its n x p Q nor its design may stay alive beside the next fit's.
        fit = fit_data = None
        state = _compressed_state(data, keep, compressed, alpha)
        if state is None:
            fit_data = data.select_columns(keep)
            fit = fit_ols(fit_data, confidence_level)
            worst = _worst_retained(fit)
            summary = ModelSummary(fit.k_params, fit.r_squared, fit.adj_r_squared)
        else:
            worst, summary = state
        k_params = summary.k_params
        steps.append(EliminationStep(removed_column=name, removed_p_value=p, model_after=summary))
    if fit is None:
        fit_data = data.select_columns(keep)
        fit = fit_ols(fit_data, confidence_level)
    return EliminationTrace(alpha=alpha, steps=tuple(steps), final_fit=fit,
                            conforming=conforming, final_data=fit_data)
