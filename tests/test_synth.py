"""Seeded synthetic data generator and its ground-truth sidecar."""
from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketval.errors import InvalidInputError
from marketval.features import PlayerRecord
from marketval.ingest import apply_filters, parse_players_csv
from marketval.synth import (
    CLUBS,
    FEET,
    LEAGUES,
    NATIONALITIES,
    OUTFITTERS,
    generate_players,
    records_to_csv,
    truth_to_dict,
)


class TestVocabularies:
    def test_cardinalities(self):
        assert len(LEAGUES) == 4
        assert len(CLUBS) == 40
        assert len(NATIONALITIES) == 28
        assert len(OUTFITTERS) == 5
        assert len(FEET) == 3


class TestGeneratePlayers:
    def test_deterministic_same_seed(self):
        r1, t1 = generate_players(42, 50)
        r2, t2 = generate_players(42, 50)
        assert r1 == r2
        assert truth_to_dict(t1) == truth_to_dict(t2)
        assert records_to_csv(r1) == records_to_csv(r2)

    def test_different_seeds_differ(self):
        r1, _ = generate_players(1, 50)
        r2, _ = generate_players(2, 50)
        assert records_to_csv(r1) != records_to_csv(r2)

    def test_requested_count(self):
        records, truth = generate_players(5, 33)
        assert len(records) == 33
        assert truth.n == 33
        assert truth.seed == 5

    def test_n_validation(self):
        with pytest.raises(InvalidInputError):
            generate_players(1, 0)

    def test_levels_within_vocabularies(self):
        records, _ = generate_players(9, 80)
        for r in records:
            assert r.league in LEAGUES
            assert r.club in CLUBS
            assert r.nationality in NATIONALITIES
            assert r.outfitter in OUTFITTERS
            assert r.foot in FEET
            assert 20 <= r.age <= 34
            assert 160 <= r.height_cm <= 200

    def test_truth_covers_every_level(self):
        _, truth = generate_players(13, 25)
        assert set(truth.level_effects["league"]) == set(LEAGUES)
        assert set(truth.level_effects["club"]) == set(CLUBS)
        assert set(truth.level_effects["nationality"]) == set(NATIONALITIES)
        assert set(truth.level_effects["outfitter"]) == set(OUTFITTERS)
        assert set(truth.level_effects["foot"]) == set(FEET)
        assert set(truth.level_effects["age_group"]) == {str(g) for g in range(7)}
        assert set(truth.level_effects["height_group"]) == {str(g) for g in range(7)}
        assert set(truth.level_effects["match_group"]) == {str(g) for g in range(1, 8)}
        assert set(truth.continuous_slopes) == {"goal_contribution", "card_score"}
        assert truth.noise_sd == 4.0

    def test_csv_round_trip(self):
        records, _ = generate_players(21, 40)
        parsed = parse_players_csv(records_to_csv(records).encode("utf-8"))
        assert list(parsed) == records

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_most_rows_survive_default_filters(self, seed):
        records, _ = generate_players(seed, 105)
        result = apply_filters(list(records))
        assert len(result.accepted) >= 0.90 * len(records)

    def test_truth_dict_is_json_ready(self):
        import json

        _, truth = generate_players(3, 30)
        payload = json.dumps(truth_to_dict(truth))
        assert "goal_contribution" in payload


# Text cells as the reader returns them (stripped), rich in the characters
# CSV quoting must handle; no carriage return, which has its own test.
TEXT = st.text(st.one_of(st.sampled_from(',"\n\x00é Ω'),
                         st.characters(exclude_characters="\r"))).map(str.strip)
COUNT = st.integers(0, 10**18 - 1)
RECORDS = st.lists(st.builds(
    PlayerRecord,
    name=TEXT, league=TEXT, club=TEXT,
    age=st.integers(15, 10**18 - 1), height_cm=st.integers(140, 220),
    foot=st.sampled_from(FEET), nationality=TEXT, outfitter=TEXT,
    matches_played=COUNT, goals=COUNT, assists=COUNT, yellow_cards=COUNT,
    second_yellow_cards=COUNT, red_cards=COUNT, minutes_played=COUNT,
    # The writer keeps three decimals, so values on the 0.001 grid come back exactly.
    market_value_m_eur=st.integers(1, 10**12).map(lambda k: k / 1000),
    mid_season_transfer=st.booleans(),
), max_size=5)


class TestRecordsToCsv:
    @given(records=RECORDS)
    def test_parser_reads_back_what_it_writes(self, records):
        assert list(parse_players_csv(records_to_csv(records).encode("utf-8"))) == records

    @pytest.mark.parametrize("column", ["name", "club"])
    def test_carriage_return_names_player_and_column(self, column):
        record = generate_players(1, 1)[0][0]
        bad = dataclasses.replace(record, **{column: "x\ry"})
        with pytest.raises(InvalidInputError) as exc:
            records_to_csv([record, bad])
        assert str(exc.value) == (
            f"player {bad.name!r}: column {column!r} holds a carriage return")

    @pytest.mark.parametrize("value", [0.0004, 5e-324])
    def test_value_written_as_zero_names_player_and_column(self, value):
        # Such a value is a valid record, but three decimals write it as 0.000,
        # which the parser rejects.
        record = generate_players(1, 1)[0][0]
        low = dataclasses.replace(record, name="Low", market_value_m_eur=value)
        with pytest.raises(InvalidInputError) as exc:
            records_to_csv([record, low])
        assert str(exc.value) == (f"player 'Low': column 'market_value_m_eur' holds {value!r}, "
                                  "which is written as '0.000'")

    def test_smallest_value_written_above_zero_reads_back(self):
        record = dataclasses.replace(generate_players(1, 1)[0][0], market_value_m_eur=0.0005)
        (parsed,) = parse_players_csv(records_to_csv([record]).encode("utf-8"))
        assert parsed.market_value_m_eur == 0.001
