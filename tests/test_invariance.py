"""The rank rule follows design order: which column of a dependency is
dropped depends neither on the row order nor on how the design is factored."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketval import numcore
from marketval.features import encode_dataset
from marketval.ingest import apply_filters, parse_players_csv
from marketval.ols import fit_ols
from marketval.selection import backward_eliminate
from marketval.synth import generate_players, records_to_csv
from conftest import dataset_from_arrays


@st.composite
def planted_dependencies(draw):
    """A design of fresh columns and planted ones, and the planted columns' indices.

    Column 0 is the bias.  A planted column is zero, a twin of an earlier
    column, or a combination of two or three earlier columns, so it closes
    an exact dependency; a fresh column is Gaussian at its own scale, and
    there are more rows than fresh columns.  Some designs are wider than 128
    columns.
    """
    p = draw(st.one_of(st.integers(2, 40), st.integers(129, 170)))
    kinds = draw(st.lists(st.sampled_from(("fresh", "fresh", "zero", "twin", "combination")),
                          min_size=p - 1, max_size=p - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 1 + kinds.count("fresh") + draw(st.integers(2, 20))
    cols = [np.ones(n)]
    for kind in kinds:
        if kind == "fresh":
            cols.append(rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2))
        elif kind == "zero":
            cols.append(np.zeros(n))
        else:
            sources = rng.choice(len(cols), size=1 if kind == "twin" else min(len(cols), 3),
                                 replace=False)
            weights = rng.uniform(0.5, 2.0, size=len(sources))
            weights *= rng.choice([-1.0, 1.0], size=len(sources))
            cols.append(np.column_stack([cols[j] for j in sources]) @ weights)
    planted = tuple(j + 1 for j, kind in enumerate(kinds) if kind != "fresh")
    return np.column_stack(cols), rng.normal(size=n), planted


@settings(max_examples=60)
@given(planted_dependencies())
def test_each_dependency_drops_the_column_that_closes_it(problem):
    x, y, planted = problem
    fit = fit_ols(dataset_from_arrays(x, y))
    assert fit.factors.dropped_columns == planted
    # The same rule on the tall design itself, and on its rows reversed.
    assert numcore.qr_pivoted(x).dropped_columns == planted
    assert numcore.qr_pivoted(x[::-1]).dropped_columns == planted


def synth_dataset(seed: int, order: int | None):
    """The design `marketval select` builds from synth seed `seed` at n = 105,
    with the CSV rows shuffled by permutation `order` of `default_rng`."""
    records, _ = generate_players(seed, 105)
    if order is not None:
        records = [records[i] for i in np.random.default_rng(order).permutation(len(records))]
    parsed = parse_players_csv(records_to_csv(records).encode("utf-8"))
    return encode_dataset(apply_filters(parsed).accepted)


@pytest.mark.parametrize("seed", [4, 42])
def test_row_order_changes_neither_the_dropped_columns_nor_the_selection(seed):
    # Both inputs hold exact dummy twins; with pivoting, which twin was
    # dropped followed the rounding of the column norms, and so the row order.
    data = synth_dataset(seed, None)
    dropped = fit_ols(data).dropped_columns
    assert dropped
    selected = backward_eliminate(data, 0.1).final_fit.retained_columns
    for order in range(3):
        shuffled = synth_dataset(seed, order)
        assert shuffled.column_names == data.column_names
        assert fit_ols(shuffled).dropped_columns == dropped
        assert backward_eliminate(shuffled, 0.1).final_fit.retained_columns == selected
