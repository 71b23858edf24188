"""Discretizers, derived statistics and the one-hot design matrix."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketval.errors import InvalidInputError, MarketvalError, OutOfRangeError
from marketval.features import (
    BIAS_COLUMN_NAME,
    KIND_BIAS,
    KIND_CONTINUOUS,
    KIND_ENCODED,
    EncodedDataset,
    PlayerRecord,
    PlayerTable,
    age_group,
    card_score,
    encode_dataset,
    goal_contribution,
    height_group,
    match_group,
)
from marketval.ingest import CSV_HEADER, parse_players_csv
from marketval.numcore import Matrix
from marketval.synth import generate_players, records_to_csv
from oracles import encode_dataset_by_levels


def make_record(**overrides) -> PlayerRecord:
    base = dict(
        name="Player",
        league="League A",
        club="Club A",
        age=25,
        height_cm=180,
        foot="right",
        nationality="Spain",
        outfitter="Nike",
        matches_played=30,
        goals=10,
        assists=4,
        yellow_cards=2,
        second_yellow_cards=0,
        red_cards=1,
        minutes_played=2500,
        market_value_m_eur=50.0,
        mid_season_transfer=False,
    )
    base.update(overrides)
    return PlayerRecord(**base)


class TestDiscretizers:
    @pytest.mark.parametrize(
        "age,band",
        [(20, 0), (21, 0), (22, 1), (23, 1), (24, 2), (26, 3), (28, 4), (30, 5),
         (31, 5), (32, 6), (33, 6), (40, 6), (99, 6)],
    )
    def test_age_bands(self, age, band):
        assert age_group(age) == band

    def test_age_below_range(self):
        with pytest.raises(OutOfRangeError):
            age_group(19)

    @pytest.mark.parametrize(
        "height,band",
        [(160, 0), (164, 0), (165, 1), (169, 1), (170, 2), (175, 3), (180, 4),
         (184, 4), (185, 5), (189, 5), (190, 6), (191, 6), (210, 6)],
    )
    def test_height_bands(self, height, band):
        assert height_group(height) == band

    def test_height_below_range(self):
        with pytest.raises(OutOfRangeError):
            height_group(159)

    @pytest.mark.parametrize(
        "matches,group",
        [(0, 1), (2, 1), (11, 1), (15, 1), (16, 2), (20, 2), (21, 3), (25, 3),
         (26, 4), (31, 5), (36, 6), (40, 6), (41, 7), (46, 8)],
    )
    def test_match_groups(self, matches, group):
        assert match_group(matches) == group

    def test_match_below_range(self):
        with pytest.raises(OutOfRangeError):
            match_group(-1)

    @pytest.mark.parametrize("band, values", [
        (age_group, range(20, 60)), (height_group, range(160, 230)), (match_group, range(0, 80)),
    ])
    def test_bands_of_an_array_are_the_bands_of_its_values(self, band, values):
        values = list(values)
        assert band(np.array(values)).tolist() == [band(v) for v in values]
        assert all(type(band(v)) is int for v in values)

    @pytest.mark.parametrize("band, values, message", [
        (age_group, [25, 19, 18], "age 19 is below 20, where the age bands start"),
        (height_group, [170, 150, 140],
         "height 150 cm is below 160 cm, where the height bands start"),
        (match_group, [3, -1], "matches_played must be >= 0"),
    ])
    def test_band_of_an_array_names_its_first_value_below(self, band, values, message):
        with pytest.raises(OutOfRangeError, match=f"^{message}$"):
            band(np.array(values))


class TestDerivedStatistics:
    @pytest.mark.parametrize(
        "goals,assists,expected",
        [(0, 0, 0.0), (10, 4, 12.0), (7, 3, 8.5), (1, 1, 1.5), (0, 5, 2.5)],
    )
    def test_goal_contribution(self, goals, assists, expected):
        assert goal_contribution(goals, assists) == expected

    @pytest.mark.parametrize(
        "y,yy,r,expected",
        [(0, 0, 0, 0), (2, 0, 1, 5), (3, 1, 0, 5), (1, 1, 1, 6), (4, 0, 0, 4)],
    )
    def test_card_score(self, y, yy, r, expected):
        assert card_score(y, yy, r) == expected


class TestPlayerRecord:
    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInputError):
            make_record(goals=-1)

    def test_first_negative_count_named(self):
        with pytest.raises(InvalidInputError, match="^assists must be >= 0$"):
            make_record(assists=-1, red_cards=-2, minutes_played=-3)
        with pytest.raises(InvalidInputError, match="^minutes_played must be >= 0$"):
            make_record(minutes_played=-1)

    def test_bad_height_rejected(self):
        with pytest.raises(InvalidInputError):
            make_record(height_cm=139)
        with pytest.raises(InvalidInputError):
            make_record(height_cm=221)

    def test_bad_market_value_rejected(self):
        with pytest.raises(InvalidInputError):
            make_record(market_value_m_eur=0.0)
        with pytest.raises(InvalidInputError):
            make_record(market_value_m_eur=float("nan"))

    def test_bad_foot_rejected(self):
        with pytest.raises(InvalidInputError):
            make_record(foot="ambidextrous")

    def test_young_age_rejected(self):
        with pytest.raises(InvalidInputError):
            make_record(age=14)


class TestPlayerTable:
    def records(self):
        return [make_record(name="A", age=21, mid_season_transfer=True),
                make_record(name="B", goals=0, market_value_m_eur=7.25),
                make_record(name="C", foot="left")]

    def test_columns_round_trip_records(self):
        records = self.records()
        table = PlayerTable.from_records(records)
        assert len(table) == 3
        assert list(table) == records
        assert [table[i] for i in (0, 1, 2, -1)] == [*records, records[-1]]
        assert table.name.dtype == object and table.name.tolist() == ["A", "B", "C"]
        assert type(table.name[0]) is str
        assert table.age.dtype == np.int64 and table.age.tolist() == [21, 25, 25]
        assert table.market_value_m_eur.dtype == np.float64
        assert table.mid_season_transfer.tolist() == [True, False, False]
        with pytest.raises(IndexError):
            table[3]

    def test_read_only(self):
        table = PlayerTable.from_records(self.records())
        with pytest.raises(ValueError):
            table.age[0] = 30
        with pytest.raises(AttributeError):
            table.age = np.zeros(3, dtype=np.int64)

    def test_text_column_of_a_compressed_table_is_read_only(self):
        kept = PlayerTable.from_records(self.records()).compress(np.array([True, False, True]))
        with pytest.raises(ValueError):
            kept.name[0] = "Z"
        assert kept.name.tolist() == ["A", "C"]

    def test_columns_may_be_any_iterable(self):
        table = PlayerTable.from_records(self.records())
        as_tuples = {name: tuple(getattr(table, name).tolist()) for name in CSV_HEADER}
        from_generators = PlayerTable({name: (v for v in values)
                                       for name, values in as_tuples.items()})
        assert from_generators == PlayerTable(as_tuples) == table
        assert from_generators.name.tolist() == ["A", "B", "C"]

    def test_from_records_keeps_a_table_and_takes_none(self):
        table = PlayerTable.from_records(self.records())
        assert PlayerTable.from_records(table) is table
        empty = PlayerTable.from_records([])
        assert len(empty) == 0 and list(empty) == [] and empty.age.dtype == np.int64

    def test_equality_is_by_columns(self):
        records = self.records()
        assert PlayerTable.from_records(records) == PlayerTable.from_records(list(records))
        assert PlayerTable.from_records(records) != PlayerTable.from_records(records[:2])
        assert PlayerTable.from_records(records) != records

    def test_compress_keeps_masked_rows_in_order(self):
        records = self.records()
        kept = PlayerTable.from_records(records).compress(np.array([True, False, True]))
        assert list(kept) == [records[0], records[2]]

    @pytest.mark.parametrize("column, value, message", [
        ("goals", -1, "goals must be >= 0"),
        ("age", 14, "age must be >= 15"),
        ("height_cm", 221, "height_cm must be within [140, 220]"),
        ("market_value_m_eur", float("nan"), "market_value_m_eur must be finite and > 0"),
        ("foot", "none", "foot must be one of left, right, both"),
    ])
    def test_columns_obey_the_record_rules(self, column, value, message):
        table = PlayerTable.from_records(self.records())
        columns = {name: list(getattr(table, name)) for name in CSV_HEADER}
        columns[column][1] = value
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            PlayerTable(columns)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            make_record(**{column: value})

    @pytest.mark.parametrize("value", [10**18, 2**63, 10**30])
    def test_integers_take_at_most_18_digits(self, value):
        # As in a CSV cell, so the int64 card score of a table cannot overflow.
        records = self.records()
        records[1] = make_record(name="B", red_cards=value)
        with pytest.raises(InvalidInputError, match="^red_cards holds a value beyond"):
            PlayerTable.from_records(records)
        with pytest.raises(InvalidInputError, match="^red_cards holds a value beyond"):
            encode_dataset(records)
        records[1] = make_record(name="B", red_cards=10**18 - 1)
        assert PlayerTable.from_records(records).red_cards[1] == 10**18 - 1

    def test_rejects_ragged_columns(self):
        table = PlayerTable.from_records(self.records())
        columns = {name: list(getattr(table, name)) for name in CSV_HEADER}
        with pytest.raises(InvalidInputError, match="equal lengths"):
            PlayerTable({**columns, "goals": [1, 2]})


class TestEncodeDataset:
    def test_needs_two_records(self):
        with pytest.raises(InvalidInputError):
            encode_dataset([make_record()])

    def test_bias_column_first(self):
        data = encode_dataset([make_record(), make_record(club="Club B")])
        assert data.columns[0].name == BIAS_COLUMN_NAME
        assert data.columns[0].kind == KIND_BIAS
        assert np.array_equal(data.design.array()[:, 0], np.ones(2))
        assert data.has_bias

    def test_bias_column_ones_where_no_level_is_dropped(self):
        # The second record differs in every categorical attribute and sorts
        # after the first, so none of its levels is a dropped one.
        records = [
            make_record(league="L1", club="C1", foot="left", nationality="N1",
                        outfitter="O1", age=21, height_cm=165, matches_played=10),
            make_record(league="L2", club="C2", foot="right", nationality="N2",
                        outfitter="O2", age=29, height_cm=188, matches_played=38),
        ]
        a = encode_dataset(records).design.array()
        assert a[:, 0].tolist() == [1.0, 1.0]
        assert a[1, 1:9].tolist() == [1.0] * 8
        assert a[0, 1:9].tolist() == [0.0] * 8

    def test_one_level_dropped_per_attribute(self):
        records = [
            make_record(club="Club A"),
            make_record(club="Club B"),
            make_record(club="Club C"),
        ]
        data = encode_dataset(records)
        club_cols = [c for c in data.columns if c.source_attribute == "club"]
        # Three levels, sorted-first ("Club A") dropped.
        assert [c.name for c in club_cols] == ["club=Club B", "club=Club C"]
        assert data.dropped_levels["club"] == "Club A"

    def test_single_level_attribute_yields_no_columns(self):
        records = [make_record(), make_record(age=27)]
        data = encode_dataset(records)
        assert all(c.source_attribute != "league" for c in data.columns[1:])
        assert data.dropped_levels["league"] == "League A"

    def test_encoded_columns_are_indicator_vectors(self):
        records = [
            make_record(foot="left"),
            make_record(foot="right"),
            make_record(foot="both"),
            make_record(foot="right", age=29),
        ]
        data = encode_dataset(records)
        a = data.design.array()
        foot_cols = [
            j for j, c in enumerate(data.columns) if c.source_attribute == "foot"
        ]
        # Levels sorted: both < left < right, so "both" is dropped.
        assert [data.columns[j].name for j in foot_cols] == ["foot=left", "foot=right"]
        left = a[:, foot_cols[0]]
        right = a[:, foot_cols[1]]
        assert left.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert right.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_continuous_columns_standardized(self):
        records = [
            make_record(goals=2, assists=0, yellow_cards=1),
            make_record(goals=8, assists=2, yellow_cards=3),
            make_record(goals=14, assists=6, yellow_cards=7),
        ]
        data = encode_dataset(records)
        a = data.design.array()
        for attr in ("goal_contribution", "card_score"):
            j = data.column_names.index(attr)
            col = a[:, j]
            assert col.mean() == pytest.approx(0.0, abs=1e-12)
            assert col.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
            params = next(p for p in data.standardization_params if p.column == attr)
            assert not params.zero_variance
            assert params.std > 0.0

    def test_zero_variance_continuous_flagged_and_zeroed(self):
        records = [
            make_record(yellow_cards=1, second_yellow_cards=0, red_cards=0, goals=2),
            make_record(yellow_cards=1, second_yellow_cards=0, red_cards=0, goals=9),
        ]
        data = encode_dataset(records)
        j = data.column_names.index("card_score")
        assert np.array_equal(data.design.array()[:, j], np.zeros(2))
        params = next(
            p for p in data.standardization_params if p.column == "card_score"
        )
        assert params.zero_variance
        assert params.std == 0.0
        assert params.mean == 1.0

    def test_column_order_attribute_blocks(self):
        records = [
            make_record(league="L1", club="C1", foot="left", nationality="N1",
                        outfitter="O1", age=21, height_cm=165, matches_played=10),
            make_record(league="L2", club="C2", foot="right", nationality="N2",
                        outfitter="O2", age=29, height_cm=188, matches_played=38),
        ]
        data = encode_dataset(records)
        sources = [c.source_attribute for c in data.columns]
        expected_order = [
            "bias", "league", "club", "age_group", "height_group", "foot",
            "nationality", "outfitter", "match_group",
            "goal_contribution", "card_score",
        ]
        # Every attribute contributes a contiguous block in the fixed order.
        seen = [s for i, s in enumerate(sources) if s not in sources[:i]]
        assert seen == [s for s in expected_order if s in sources]

    def test_hand_built_design_matrix(self):
        # Four records whose full design matrix is written out by hand.
        records = [
            make_record(name="P1", league="Alpha", club="X", age=20, height_cm=160,
                        foot="left", nationality="Spain", outfitter="Nike",
                        matches_played=10, goals=2, assists=2, yellow_cards=0,
                        second_yellow_cards=0, red_cards=0),
            make_record(name="P2", league="Beta", club="X", age=22, height_cm=170,
                        foot="right", nationality="Spain", outfitter="Puma",
                        matches_played=20, goals=5, assists=0, yellow_cards=2,
                        second_yellow_cards=0, red_cards=0),
            make_record(name="P3", league="Alpha", club="Y", age=25, height_cm=160,
                        foot="left", nationality="France", outfitter="Nike",
                        matches_played=30, goals=8, assists=4, yellow_cards=4,
                        second_yellow_cards=1, red_cards=0),
            make_record(name="P4", league="Beta", club="Y", age=33, height_cm=191,
                        foot="both", nationality="Spain", outfitter="Nike",
                        matches_played=40, goals=11, assists=2, yellow_cards=6,
                        second_yellow_cards=0, red_cards=2),
        ]
        data = encode_dataset(records)
        # Levels present: league {Alpha, Beta} -> Beta kept; club {X, Y} -> Y;
        # age bands {0, 1, 2, 6} -> {1, 2, 6}; height bands {0, 2, 6} -> {2, 6};
        # foot {both, left, right} -> {left, right}; nationality {France, Spain}
        # -> Spain; outfitter {Nike, Puma} -> Puma; match groups {1, 2, 4, 6}
        # -> {2, 4, 6}.
        assert data.column_names == (
            "const", "league=Beta", "club=Y",
            "age_group=1", "age_group=2", "age_group=6",
            "height_group=2", "height_group=6",
            "foot=left", "foot=right",
            "nationality=Spain", "outfitter=Puma",
            "match_group=2", "match_group=4", "match_group=6",
            "goal_contribution", "card_score",
        )
        a = data.design.array()
        expected_encoded = np.array([
            # league=Beta, club=Y, age1, age2, age6, h2, h6, left, right,
            # Spain, Puma, m2, m4, m6
            [0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0],
            [1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0],
            [0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0],
            [1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1],
        ], dtype=float)
        assert np.array_equal(a[:, 1:15], expected_encoded)
        # Continuous: contributions [3, 5, 10, 12], card scores [0, 2, 6, 12].
        gc = np.array([3.0, 5.0, 10.0, 12.0])
        cs = np.array([0.0, 2.0, 6.0, 12.0])
        assert np.allclose(a[:, 15], (gc - gc.mean()) / gc.std(ddof=1), atol=1e-12)
        assert np.allclose(a[:, 16], (cs - cs.mean()) / cs.std(ddof=1), atol=1e-12)
        assert np.array_equal(
            data.response, np.array([50.0, 50.0, 50.0, 50.0])
        )

    def test_row_order_preserved(self):
        r1 = make_record(name="A", goals=1)
        r2 = make_record(name="B", goals=20)
        d12 = encode_dataset([r1, r2])
        d21 = encode_dataset([r2, r1])
        assert d12.column_names == d21.column_names
        assert np.allclose(d12.design.array(), d21.design.array()[::-1], atol=1e-12)

    def test_select_columns_keeps_metadata(self):
        records = [make_record(), make_record(club="Club B", goals=3)]
        data = encode_dataset(records)
        sub = data.select_columns([0, len(data.columns) - 1])
        assert sub.column_names == (BIAS_COLUMN_NAME, "card_score")
        assert np.array_equal(sub.design.array(), data.design.array()[:, [0, -1]])
        assert sub.has_bias
        assert len(sub.standardization_params) == 1

    def test_select_columns_shares_the_response(self):
        data = encode_dataset([make_record(), make_record(club="Club B", goals=3)])
        sub = data.select_columns([0, len(data.columns) - 1])
        assert np.shares_memory(sub.response, data.response)
        assert not sub.design.array().flags.writeable

    def test_writable_response_is_copied(self):
        data = encode_dataset([make_record(), make_record(club="Club B", goals=3)])
        response = np.array([30.0, 40.0])
        copy = EncodedDataset(data.design, data.columns, response, ())
        response[0] = 99.0
        assert copy.response.tolist() == [30.0, 40.0]
        assert not copy.response.flags.writeable

    def test_first_non_indicator_encoded_column_named(self):
        data = encode_dataset([make_record(), make_record(club="Club B", foot="left")])
        a = data.design.array().copy()
        for j in (2, 1):
            a[0, j] = 0.5  # columns 1 and 2 are club=Club B and foot=right
            with pytest.raises(InvalidInputError) as exc_info:
                EncodedDataset(Matrix(a), data.columns, data.response, ())
            assert str(exc_info.value) == f"encoded column {data.columns[j].name!r} must be 0/1"
        # A continuous column may hold any value.
        a = data.design.array().copy()
        a[0, -1] = 0.5
        EncodedDataset(Matrix(a), data.columns, data.response, ())

    def test_select_columns_requires_increasing(self):
        records = [make_record(), make_record(club="Club B")]
        data = encode_dataset(records)
        with pytest.raises(InvalidInputError):
            data.select_columns([1, 0])
        with pytest.raises(InvalidInputError):
            data.select_columns([])


@given(st.data())
def test_property_dummy_counts_are_levels_minus_one(data):
    n = data.draw(st.integers(min_value=3, max_value=12))
    leagues = data.draw(
        st.lists(
            st.sampled_from(["L1", "L2", "L3", "L4"]), min_size=n, max_size=n
        )
    )
    feet = data.draw(
        st.lists(st.sampled_from(["left", "right", "both"]), min_size=n, max_size=n)
    )
    records = [
        make_record(name=f"P{i}", league=leagues[i], foot=feet[i], goals=i)
        for i in range(n)
    ]
    encoded = encode_dataset(records)
    for attr, values in (("league", leagues), ("foot", feet)):
        cols = [c for c in encoded.columns if c.source_attribute == attr]
        assert len(cols) == len(set(values)) - 1
    # Each row activates at most one dummy per attribute.
    a = encoded.design.array()
    for attr in ("league", "foot"):
        idx = [j for j, c in enumerate(encoded.columns) if c.source_attribute == attr]
        if idx:
            assert np.all(a[:, idx].sum(axis=1) <= 1.0)


def _pool(values):
    """Records draw from a pool of one to three of these values."""
    return st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True)


def _rarely(values):
    """The values in one draw out of five, else nothing."""
    return st.sampled_from([values, [], [], [], []])


@st.composite
def record_lists(draw):
    """2-8 records with few levels per attribute, so that single-level
    attributes and zero-variance continuous columns come up; ages below 20
    and heights below 160 come up too."""
    n = draw(st.integers(2, 8))
    pools = {
        "league": draw(_pool(["L1", "L2", "L3"])),
        "club": draw(_pool(["C1", "C2", "C3", "C4"])),
        "foot": draw(_pool(["left", "right", "both"])),
        "nationality": draw(_pool(["Spain", "France", "Brazil"])),
        "outfitter": draw(_pool(["Nike", "Puma"])),
        "age": draw(_pool([20, 21, 24, 29, 33, 40])) + draw(_rarely([17])),
        "height_cm": draw(_pool([160, 172, 188, 195])) + draw(_rarely([150])),
        "matches_played": draw(_pool([0, 15, 16, 22, 38])),
        "goals": draw(_pool([0, 3, 12])),
        "assists": draw(_pool([0, 1, 5])),
        "yellow_cards": draw(_pool([0, 2])),
        "red_cards": draw(_pool([0, 1])),
    }
    return [
        make_record(
            name=f"P{i}",
            market_value_m_eur=draw(st.sampled_from([20.0, 0.125, 93.5])),
            **{field: draw(st.sampled_from(pool)) for field, pool in pools.items()},
        )
        for i in range(n)
    ]


@settings(max_examples=200)
@given(record_lists())
def test_property_encoder_matches_per_level_oracle(records):
    def outcome(encode):
        try:
            data = encode(records)
        except MarketvalError as exc:
            return type(exc), str(exc)
        a = data.design.array()
        return (
            a.shape,
            a.tobytes(),
            data.columns,
            dict(data.dropped_levels),
            [(p.column, p.mean.hex(), p.std.hex(), p.zero_variance)
             for p in data.standardization_params],
            data.response.tobytes(),
        )

    assert outcome(encode_dataset) == outcome(encode_dataset_by_levels)


def test_table_and_its_records_encode_to_the_same_bytes():
    records, _ = generate_players(5, 300)
    table = parse_players_csv(records_to_csv(records).encode("utf-8"))
    by_table, by_records = encode_dataset(table), encode_dataset(list(table))
    assert by_table.design.array().tobytes() == by_records.design.array().tobytes()
    assert by_table.response.tobytes() == by_records.response.tobytes()
    assert by_table.columns == by_records.columns
    assert by_table.standardization_params == by_records.standardization_params
    assert by_table.dropped_levels == by_records.dropped_levels


@pytest.mark.parametrize("column, low, message", [
    ("age", 19, "age 19 is below 20, where the age bands start"),
    ("height_cm", 150, "height 150 cm is below 160 cm, where the height bands start"),
])
def test_band_error_names_the_first_player_below(column, low, message):
    records = [make_record(name=f"P{i}") for i in range(6)]
    records[2] = make_record(name="P2", **{column: low})
    records[4] = make_record(name="P4", **{column: low - 1})
    with pytest.raises(OutOfRangeError) as exc:
        encode_dataset(PlayerTable.from_records(records))
    assert str(exc.value) == f"player 'P2': {message}"


def test_age_error_comes_before_an_earlier_players_height_error():
    # Attributes are encoded in CATEGORICAL_ATTRIBUTES order: age bands before height bands.
    records = [make_record(name=f"P{i}") for i in range(4)]
    records[1] = make_record(name="P1", height_cm=150)
    records[3] = make_record(name="P3", age=19)
    with pytest.raises(OutOfRangeError, match="^player 'P3': age 19 is below 20"):
        encode_dataset(records)
