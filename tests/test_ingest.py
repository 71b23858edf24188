"""CSV parsing, schema enforcement and eligibility filtering."""
from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketval import ingest
from marketval.errors import (
    EncodingError,
    InvalidInputError,
    MarketvalError,
    RowParseError,
    SchemaError,
)
from marketval.features import PlayerTable
from marketval.ingest import (
    CSV_HEADER,
    MAX_INT_DIGITS,
    RULE_AGE,
    RULE_MINUTES,
    RULE_TRANSFER,
    RULE_VALUE,
    FilterConfig,
    apply_filters,
    parse_players_csv,
)
from marketval.synth import generate_players, records_to_csv
from conftest import count_csv_passes
from oracles import apply_filters_by_records, parse_players_csv_by_rows
from test_features import make_record

HEADER_LINE = ",".join(CSV_HEADER)

ROW = "Kane,League A,Club A,27,188,right,England,Nike,30,25,5,3,0,0,2700,90.000,0"


def csv_bytes(*rows: str, header: str = HEADER_LINE) -> bytes:
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


def test_readme_schema_block_lists_the_header_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Input schema\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    assert tuple(cell.strip() for cell in block.replace("\n", "").split(",")) == CSV_HEADER


class TestParse:
    def test_empty_file(self):
        assert list(parse_players_csv(b"")) == []
        assert list(parse_players_csv(b"  \n \n")) == []

    def test_header_only(self):
        assert list(parse_players_csv(csv_bytes())) == []

    def test_single_row_round_trip(self):
        records = parse_players_csv(csv_bytes(ROW))
        assert len(records) == 1
        r = records[0]
        assert r.name == "Kane"
        assert r.age == 27
        assert r.height_cm == 188
        assert r.market_value_m_eur == 90.0
        assert r.mid_season_transfer is False

    def test_blank_line_tolerated(self):
        records = parse_players_csv(csv_bytes(ROW, "", ROW))
        assert len(records) == 2

    def test_whitespace_trimmed(self):
        row = ROW.replace("Kane", "  Kane  ").replace(",27,", ", 27 ,")
        records = parse_players_csv(csv_bytes(row))
        assert records[0].name == "Kane"
        assert records[0].age == 27

    def test_missing_column(self):
        bad_header = ",".join(c for c in CSV_HEADER if c != "goals")
        with pytest.raises(SchemaError, match="missing column"):
            parse_players_csv(csv_bytes(header=bad_header))

    def test_extra_column(self):
        bad_header = HEADER_LINE + ",shoe_size"
        with pytest.raises(SchemaError, match="unexpected column"):
            parse_players_csv(csv_bytes(header=bad_header))

    def test_out_of_order_header(self):
        cols = list(CSV_HEADER)
        cols[0], cols[1] = cols[1], cols[0]
        with pytest.raises(SchemaError, match="out of order"):
            parse_players_csv(csv_bytes(header=",".join(cols)))

    def test_repeated_column_is_named(self):
        with pytest.raises(SchemaError, match=r"^duplicate column\(s\): 'goals'$"):
            parse_players_csv(csv_bytes(header=HEADER_LINE + ",goals"))

    def test_trailing_comma_shows_the_empty_column(self):
        with pytest.raises(SchemaError, match=r"^unexpected column\(s\): ''$"):
            parse_players_csv(csv_bytes(header=HEADER_LINE + ","))

    def test_non_integer_age_names_row_and_column(self):
        row = ROW.replace(",27,", ",twenty,")
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(row))
        assert exc_info.value.row == 2
        assert exc_info.value.column == "age"
        assert "row 2" in str(exc_info.value)

    @pytest.mark.parametrize("age", ["\u00b2", "\u0663\u0660", "2\uff17", "+\u00b9"])
    def test_non_ascii_digits_rejected(self, age):
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(ROW.replace(",27,", f",{age},")))
        assert exc_info.value.column == "age"

    def test_signed_ascii_integers_accepted(self):
        (record,) = parse_players_csv(csv_bytes(ROW.replace(",27,", ", +27 ,")))
        assert record.age == 27

    def test_integer_digit_cap(self):
        # Leading zeros do not count; one more significant digit is rejected.
        widest = "0" * 30 + "9" * MAX_INT_DIGITS
        (record,) = parse_players_csv(csv_bytes(ROW.replace(",2700,", f",{widest},")))
        assert record.minutes_played == 10**MAX_INT_DIGITS - 1
        (record,) = parse_players_csv(csv_bytes(ROW.replace(",0,0,2700,", ",-0,0,2700,")))
        assert record.second_yellow_cards == 0
        for digits in (MAX_INT_DIGITS + 1, 400, 5000):
            with pytest.raises(RowParseError) as exc_info:
                parse_players_csv(csv_bytes(ROW.replace(",2700,", f",{'9' * digits},")))
            assert exc_info.value.column == "minutes_played"
            assert f"{digits} digits" in str(exc_info.value)

    def test_oversized_field_names_row(self):
        row = ROW.replace("Kane", "K" * 200_000)
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(ROW, row))
        assert exc_info.value.row == 3
        assert "field limit" in str(exc_info.value)
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(ROW, header="n" * 200_000))
        assert exc_info.value.row == 1

    def test_rejected_row_is_reported_at_its_first_line(self):
        # A quoted name spanning lines 3-5, then a lone carriage return the
        # reader rejects: the row starts on line 3, the reader stops on 5.
        spanning = ROW.replace("Kane", '"Ka\nn\ne"').replace("Club A", "Club\rA")
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(ROW, spanning))
        assert (exc_info.value.row, exc_info.value.column) == (3, "row")
        # A quoted cell from line 3 over three newlines and past the field limit.
        oversized = ROW.replace("Kane", '"' + "\n" * 3 + "K" * 140_000 + '"')
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(ROW, oversized))
        assert exc_info.value.row == 3
        assert "field limit" in str(exc_info.value)

    def test_leading_bom_skipped(self):
        plain = csv_bytes(ROW, ROW)
        assert parse_players_csv(b"\xef\xbb\xbf" + plain) == parse_players_csv(plain)
        # Only one: a second mark is part of the first header cell.
        with pytest.raises(SchemaError, match="missing column"):
            parse_players_csv(b"\xef\xbb\xbf" * 2 + plain)
        assert list(parse_players_csv(b"\xef\xbb\xbf")) == []

    def test_invalid_utf8_reports_byte_offset(self):
        with pytest.raises(EncodingError) as exc_info:
            parse_players_csv(b"\xff\xfe" + csv_bytes(ROW))
        assert exc_info.value.offset == 0
        assert "byte offset 0" in str(exc_info.value)

    def test_invalid_utf8_mid_file_offset_and_row(self):
        good = csv_bytes(ROW)
        data = good + b"K\xe9ne" + csv_bytes(ROW)[len(HEADER_LINE) + 5:]
        with pytest.raises(EncodingError) as exc_info:
            parse_players_csv(data)
        assert exc_info.value.offset == len(good) + 1
        assert "row 3" in str(exc_info.value)

    def test_error_row_number_counts_file_lines(self):
        bad = ROW.replace(",27,", ",x,")
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(ROW, ROW, bad))
        assert exc_info.value.row == 4

    def test_row_number_after_quoted_newline(self):
        named = ROW.replace("Kane", '"Ka\nne"')
        bad = ROW.replace(",27,", ",x,")
        assert parse_players_csv(csv_bytes(named))[0].name == "Ka\nne"
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(named, bad))
        assert exc_info.value.row == 4  # the header, then two lines for "Ka\nne"
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(named.replace(",27,", ",x,")))
        assert exc_info.value.row == 2  # a row's first line

    def test_wrong_cell_count(self):
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes("a,b,c"))
        assert exc_info.value.column == "row"

    def test_bad_flag(self):
        row = ROW[:-1] + "yes"
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(row))
        assert exc_info.value.column == "mid_season_transfer"

    def test_bad_float(self):
        row = ROW.replace("90.000", "ninety")
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(row))
        assert exc_info.value.column == "market_value_m_eur"

    @pytest.mark.parametrize("value", ["\u0669\u0660.5", "\uff19\uff10", "9_0.5"])
    def test_float_cells_take_ascii_only(self, value):
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(ROW.replace("90.000", value)))
        assert exc_info.value.row == 2
        assert exc_info.value.column == "market_value_m_eur"

    @pytest.mark.parametrize("value, parsed", [("1e2", 100.0), (" 90 ", 90.0), ("+9.5", 9.5)])
    def test_float_cells_accept_exponent_and_padding(self, value, parsed):
        (record,) = parse_players_csv(csv_bytes(ROW.replace("90.000", value)))
        assert record.market_value_m_eur == parsed

    def test_invalid_record_value_wrapped(self):
        row = ROW.replace("90.000", "-5.0")
        with pytest.raises(RowParseError) as exc_info:
            parse_players_csv(csv_bytes(row))
        assert exc_info.value.row == 2

    def test_round_trip_through_writer(self):
        records = [
            make_record(name="A", goals=3, market_value_m_eur=42.125),
            make_record(name="B", mid_season_transfer=True),
        ]
        parsed = parse_players_csv(records_to_csv(records).encode("utf-8"))
        assert list(parsed) == records


class TestFilterConfig:
    def test_defaults(self):
        cfg = FilterConfig()
        assert cfg.min_age == 20
        assert cfg.max_age == 34
        assert cfg.min_minutes == 1000
        assert cfg.min_market_value_m_eur == 20.0
        assert cfg.exclude_mid_season_transfers

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            FilterConfig(min_age=30, max_age=20)
        with pytest.raises(InvalidInputError):
            FilterConfig(min_minutes=-1)
        with pytest.raises(InvalidInputError):
            FilterConfig(min_market_value_m_eur=-0.5)
        # NaN passes a `< 0` check but would make every `value < floor` False.
        with pytest.raises(InvalidInputError):
            FilterConfig(min_market_value_m_eur=float("nan"))


class TestApplyFilters:
    def test_minutes_threshold_inclusive(self):
        below = make_record(name="below", minutes_played=999)
        at = make_record(name="at", minutes_played=1000)
        result = apply_filters([below, at])
        assert [r.name for r in result.accepted] == ["at"]
        assert result.log.entries[0].rule == RULE_MINUTES

    def test_value_threshold_inclusive(self):
        below = make_record(name="below", market_value_m_eur=19.9)
        at = make_record(name="at", market_value_m_eur=20.0)
        result = apply_filters([below, at])
        assert [r.name for r in result.accepted] == ["at"]
        assert result.log.entries[0].rule == RULE_VALUE

    def test_age_window_inclusive(self):
        records = [
            make_record(name="a19", age=19),
            make_record(name="a20", age=20),
            make_record(name="a34", age=34),
            make_record(name="a35", age=35),
        ]
        result = apply_filters(records)
        assert [r.name for r in result.accepted] == ["a20", "a34"]
        assert all(e.rule == RULE_AGE for e in result.log.entries)

    def test_mid_season_excluded(self):
        r = make_record(name="moved", mid_season_transfer=True)
        result = apply_filters([r])
        assert len(result.accepted) == 0
        assert result.log.entries[0].rule == RULE_TRANSFER

    def test_mid_season_kept_when_disabled(self):
        r = make_record(name="moved", mid_season_transfer=True)
        result = apply_filters([r], FilterConfig(exclude_mid_season_transfers=False))
        assert len(result.accepted) == 1

    def test_first_failing_rule_order(self):
        # Fails age, transfer, value and minutes simultaneously: age is logged.
        r = make_record(
            name="bad", age=19, mid_season_transfer=True,
            market_value_m_eur=1.0, minutes_played=10,
        )
        result = apply_filters([r])
        assert result.log.entries[0].rule == RULE_AGE
        # With age in range, the transfer rule comes next.
        r2 = make_record(
            name="bad2", mid_season_transfer=True,
            market_value_m_eur=1.0, minutes_played=10,
        )
        assert apply_filters([r2]).log.entries[0].rule == RULE_TRANSFER

    def test_log_carries_names(self):
        r = make_record(name="Someone", minutes_played=5)
        result = apply_filters([r])
        assert result.log.entries[0].name == "Someone"
        assert len(result.log) == 1

    def test_idempotent(self):
        records = [
            make_record(name=f"P{i}", age=18 + i, minutes_played=900 + 40 * i)
            for i in range(8)
        ]
        first = apply_filters(records)
        second = apply_filters(list(first.accepted))
        assert second.accepted == first.accepted
        assert len(second.log) == 0


record_strategy = st.builds(
    make_record,
    age=st.integers(min_value=15, max_value=45),
    minutes_played=st.integers(min_value=0, max_value=4000),
    market_value_m_eur=st.floats(min_value=0.5, max_value=200.0),
    mid_season_transfer=st.booleans(),
)


@given(st.lists(record_strategy, max_size=20))
def test_property_filters_partition_records(records):
    result = apply_filters(records)
    assert len(result.accepted) + len(result.log) == len(records)
    for r in result.accepted:
        assert 20 <= r.age <= 34
        assert not r.mid_season_transfer
        assert r.market_value_m_eur >= 20.0
        assert r.minutes_played >= 1000


@given(st.lists(record_strategy, max_size=20), st.integers(0, 2000))
def test_property_loosening_minutes_grows_accepted_set(records, threshold):
    # A table builds new records on demand, so players are told apart by name.
    records = [dataclasses.replace(r, name=f"P{i}") for i, r in enumerate(records)]
    strict = apply_filters(records, FilterConfig(min_minutes=max(threshold, 500)))
    loose = apply_filters(records, FilterConfig(min_minutes=min(threshold, 500)))
    assert set(strict.accepted.name) <= set(loose.accepted.name)


# Rows of a small synthetic CSV, split into cells, for the parser parity test.
SYNTH_ROWS = [
    line.split(",")
    for line in records_to_csv(generate_players(3, 20)[0]).splitlines()[1:]
]

cell_edit = st.tuples(
    st.integers(0, len(CSV_HEADER) - 1),
    # Prefix: whitespace, a sign, leading zeros up to and past 18 digits.
    st.lists(st.sampled_from([" ", "\t", "+", "-", "0", "0" * 17, "0" * 25]), max_size=2).map("".join),
    # Body: None keeps the cell; otherwise 19-digit values, non-ASCII digits,
    # an empty cell and other replacements.
    st.none() | st.sampled_from([
        "", "1" * 19, "9" * 18, "²", "1¹", "٣٠", "７", "٩٠.5", "9_0", "1e2", "x", "0",
    ]),
    st.sampled_from(["", " ", "\t"]),
)
row_edit = st.sampled_from(["short", "long", "blank line before", "quoted newline in name"])


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(range(len(SYNTH_ROWS))), min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(0, 5), cell_edit), max_size=4),
    st.lists(st.tuples(st.integers(0, 5), row_edit), max_size=1),
    st.booleans(),
)
def test_property_parser_matches_row_by_row_oracle(picks, cell_edits, row_edits, bom):
    rows = [list(SYNTH_ROWS[i]) for i in picks]
    for r, (column, prefix, body, suffix) in cell_edits:
        row = rows[r % len(rows)]
        row[column] = prefix + (row[column] if body is None else body) + suffix
    lines = [",".join(row) for row in rows]
    for r, edit in row_edits:
        i = r % len(lines)
        cells = lines[i].split(",")
        if edit == "short":
            lines[i] = ",".join(cells[:-1])
        elif edit == "long":
            lines[i] = ",".join([*cells, "1"])
        elif edit == "blank line before":
            lines.insert(i, "")
        else:
            lines[i] = ",".join(['"Ka\nne"', *cells[1:]])
    data = (b"\xef\xbb\xbf" if bom else b"") + csv_bytes(*lines)

    def outcome(parse):
        try:
            return parse(data)
        except MarketvalError as exc:
            return type(exc), getattr(exc, "row", None), getattr(exc, "column", None), str(exc)

    expected = outcome(parse_players_csv_by_rows)
    assert outcome(parse_players_csv) == expected
    # Blocks of 2 rows split the drawn rows, so a bad block is read again in halves.
    with mock.patch.object(ingest, "_BLOCK_ROWS", 2):
        assert outcome(parse_players_csv) == expected


def _synth_lines(*edits: tuple[int, str, str]) -> list[str]:
    """Eight synthetic rows with cell `column` of row `i` set to `cell` for
    each edit (i, column, cell); data row i is file row i + 2."""
    rows = [list(row) for row in SYNTH_ROWS[:8]]
    for i, column, cell in edits:
        rows[i][CSV_HEADER.index(column)] = cell
    return [",".join(row) for row in rows]


def _synth_bytes(*edits: tuple[int, str, str]) -> bytes:
    """`_synth_lines(*edits)` as CSV bytes."""
    return csv_bytes(*_synth_lines(*edits))


def _with_lines(edit, *edits: tuple[int, str, str]):
    """The lines `edit` makes of `_synth_lines(*edits)`, as CSV bytes."""
    return csv_bytes(*edit(_synth_lines(*edits)))


# Inputs at the edges of the columnar read, and whether each parses.
FAST_PATH_EDGES = {
    "empty cell among digits": (_synth_bytes((3, "age", "")), False),
    "18 digits": (_synth_bytes((2, "minutes_played", "9" * 18)), True),
    "19 digits": (_synth_bytes((2, "minutes_played", "1" + "0" * 18)), False),
    "19 digits below 2**63": (_synth_bytes((2, "goals", "9" * 18 + "0")), False),
    "leading zeros past 18 digits": (_synth_bytes((2, "minutes_played", "0" * 7 + "9" * 18)), True),
    "padded int": (_synth_bytes((1, "age", " 27 ")), True),
    "signed int": (_synth_bytes((1, "goals", "+3")), True),
    "int with underscore": (_synth_bytes((1, "goals", "1_0")), False),
    "float nan": (_synth_bytes((4, "market_value_m_eur", "nan")), False),
    "float inf": (_synth_bytes((4, "market_value_m_eur", "inf")), False),
    "float with underscore": (_synth_bytes((4, "market_value_m_eur", "1_0")), False),
    "empty float": (_synth_bytes((4, "market_value_m_eur", "")), False),
    "full-width float digits": (_synth_bytes((4, "market_value_m_eur", "９０")), False),
    "padded float": (_synth_bytes((4, "market_value_m_eur", "\t90.5 ")), True),
    "flag 1.0": (_synth_bytes((0, "mid_season_transfer", "1.0")), False),
    "padded flag": (_synth_bytes((0, "mid_season_transfer", " 1")), True),
    "negative goals row 5, bad int row 7": (
        _synth_bytes((3, "goals", "-1"), (5, "assists", "x")), False),
    "bad int row 5, negative goals row 7": (
        _synth_bytes((3, "assists", "x"), (5, "goals", "-1")), False),
    # Digits the columnar read takes, so only the record rules see them.
    "low height row 5, low age row 7": (
        _synth_bytes((3, "height_cm", "100"), (5, "age", "14")), False),
    "low age row 5, low height row 7": (
        _synth_bytes((3, "age", "14"), (5, "height_cm", "100")), False),
    "unknown foot": (_synth_bytes((6, "foot", "none")), False),
    "ragged row after valid rows": (_with_lines(lambda lines: [*lines, "a,b,c"]), False),
    "blank lines": (_with_lines(lambda lines: [*lines[:2], "", *lines[2:5], "", "", *lines[5:]]),
                    True),
    # Rows 3 to 5 share a block of 3 rows.
    "low age row 5, bad int row 6": (_synth_bytes((3, "age", "14"), (4, "goals", "x")), False),
    # An unquoted carriage return is an error of the CSV reader.
    "lone carriage return row 6": (_synth_bytes((4, "name", "Ka\rne")), False),
    "bad int row 5, lone carriage return row 6": (
        _synth_bytes((3, "goals", "x"), (4, "name", "Ka\rne")), False),
    "bad int row 3, ragged row 6": (
        _with_lines(lambda lines: [*lines[:4], "a,b,c", *lines[4:]], (1, "goals", "x")), False),
    # The last row of the file, and of its last block.
    "bad int row 9": (_synth_bytes((7, "assists", "x")), False),
}


@pytest.mark.parametrize("block_rows", [ingest._BLOCK_ROWS, 3])
@pytest.mark.parametrize("name", FAST_PATH_EDGES)
def test_columnar_read_matches_row_by_row_oracle(name, block_rows, monkeypatch):
    # Blocks of 3 rows put the edits in the first, second and third block.
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
    data, parses = FAST_PATH_EDGES[name]

    def outcome(parse):
        try:
            return parse(data)
        except MarketvalError as exc:
            return type(exc), str(exc)

    expected = outcome(parse_players_csv_by_rows)
    passes = count_csv_passes(monkeypatch)
    fast = outcome(parse_players_csv)
    assert fast == expected
    assert len(passes) == 1  # the CSV reader reads the file once, valid or not
    assert isinstance(fast, PlayerTable) == parses
    if parses:
        assert len(fast) == 8


@pytest.mark.parametrize("block_rows, blocks", [(ingest._BLOCK_ROWS, 1), (3, 3)])
def test_valid_file_is_checked_once_per_block(block_rows, blocks, monkeypatch):
    # Each block is checked as it is read; joining the blocks checks nothing again.
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
    checked: list[int] = []
    init = PlayerTable.__init__

    def counting(self, columns):
        checked.append(len(columns["name"]))
        init(self, columns)

    monkeypatch.setattr(PlayerTable, "__init__", counting)
    table = parse_players_csv(_synth_bytes())
    assert len(table) == 8
    assert len(checked) == blocks and sum(checked) == 8
    assert table == parse_players_csv_by_rows(_synth_bytes())


def test_records_from_a_table_hold_python_values():
    table = parse_players_csv(csv_bytes(ROW, ROW.replace("Kane", "Son")))
    for record in (table[0], table[-1], *table):
        assert type(record.age) is int
        assert type(record.market_value_m_eur) is float
        assert record.mid_season_transfer is False
    assert [r.name for r in table] == ["Kane", "Son"]


def test_trailing_nul_of_a_name_survives_parse_filter_and_iteration():
    young = ROW.replace("Kane", "Son\x00").replace(",27,", ",19,")
    table = parse_players_csv(csv_bytes(ROW.replace("Kane", "Kane\x00"), young))
    assert [r.name for r in table] == ["Kane\x00", "Son\x00"]
    result = apply_filters(table)
    assert [r.name for r in result.accepted] == ["Kane\x00"]
    assert result.accepted[0].name == "Kane\x00"
    assert result.log.names == ("Son\x00",)


@st.composite
def filter_cases(draw):
    """Uniquely named records, and filters whose thresholds often sit on a
    record's own age, minutes or value."""
    records = draw(st.lists(record_strategy, max_size=20))
    records = [dataclasses.replace(r, name=f"P{i}") for i, r in enumerate(records)]

    def threshold(field, fallback):
        values = [getattr(r, field) for r in records]
        return draw(st.sampled_from(values) | fallback if values else fallback)

    low = threshold("age", st.integers(15, 45))
    cfg = FilterConfig(
        min_age=low,
        max_age=max(low, threshold("age", st.integers(15, 45))),
        min_minutes=threshold("minutes_played", st.integers(0, 4000)),
        min_market_value_m_eur=threshold("market_value_m_eur", st.floats(0.0, 200.0)),
        exclude_mid_season_transfers=draw(st.booleans()),
    )
    return records, cfg


@settings(max_examples=200)
@given(filter_cases())
def test_property_filters_match_record_by_record_oracle(case):
    records, cfg = case
    accepted, log = apply_filters_by_records(records, cfg)
    result = apply_filters(records, cfg)
    assert list(result.accepted) == accepted
    assert list(zip(result.log.names, result.log.rules)) == log
    assert [(e.name, e.rule) for e in result.log.entries] == log
    assert apply_filters(PlayerTable.from_records(records), cfg) == result
