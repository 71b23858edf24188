"""CSV parsing and eligibility filtering with an auditable exclusion log."""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterator

from .errors import EncodingError, InvalidInputError, RowParseError, SchemaError
from .features import PlayerRecord

CSV_HEADER = (
    "name",
    "league",
    "club",
    "age",
    "height_cm",
    "foot",
    "nationality",
    "outfitter",
    "matches_played",
    "goals",
    "assists",
    "yellow_cards",
    "second_yellow_cards",
    "red_cards",
    "minutes_played",
    "market_value_m_eur",
    "mid_season_transfer",
)

RULE_AGE = "age"
RULE_TRANSFER = "mid_season_transfer"
RULE_VALUE = "market_value"
RULE_MINUTES = "minutes"


@dataclass(frozen=True)
class FilterConfig:
    """Eligibility thresholds; defaults mirror the documented selection rules."""

    min_age: int = 20
    max_age: int = 34
    min_minutes: int = 1000
    min_market_value_m_eur: float = 20.0
    exclude_mid_season_transfers: bool = True

    def __post_init__(self) -> None:
        if self.min_age > self.max_age:
            raise InvalidInputError("min_age must not exceed max_age")
        if self.min_minutes < 0:
            raise InvalidInputError("min_minutes must be >= 0")
        if not self.min_market_value_m_eur >= 0:  # also rejects NaN
            raise InvalidInputError("min_market_value_m_eur must be >= 0")


@dataclass(frozen=True)
class ExclusionEntry:
    name: str
    rule: str


@dataclass(frozen=True)
class ExclusionLog:
    """Per excluded record: name and the first filter rule it failed."""

    entries: tuple[ExclusionEntry, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class FilterResult:
    accepted: tuple[PlayerRecord, ...]
    log: ExclusionLog


# Integer cells have at most this many significant digits, so every value
# fits a signed 64-bit integer and converts to float: a cell of ~309 digits
# overflows the float conversion in encoding, one of 4300 overflows int().
MAX_INT_DIGITS = 18


def _parse_int(cell: str, row: int, column: str) -> int:
    text = cell.strip()
    sign_stripped = text[1:] if text[:1] in "+-" else text
    # str.isdigit alone also accepts digits such as "²" that int() rejects.
    if not (sign_stripped.isascii() and sign_stripped.isdigit()):
        raise RowParseError(row, column, f"expected an integer, got {cell!r}")
    if len(sign_stripped) > MAX_INT_DIGITS:
        # Leading zeros do not count, and int() must not see thousands of them.
        digits = sign_stripped.lstrip("0") or "0"
        if len(digits) > MAX_INT_DIGITS:
            raise RowParseError(
                row, column, f"integer has {len(digits)} digits; at most {MAX_INT_DIGITS} allowed"
            )
        return -int(digits) if text[0] == "-" else int(digits)
    return int(text)


def _parse_float(cell: str, row: int, column: str) -> float:
    text = cell.strip()
    # float() alone also accepts non-ASCII digits and "_" separators, which
    # integer cells reject.
    if not text.isascii() or "_" in text:
        raise RowParseError(row, column, f"expected a number, got {cell!r}")
    try:
        value = float(text)
    except ValueError:
        raise RowParseError(row, column, f"expected a number, got {cell!r}") from None
    return value


def _parse_flag(cell: str, row: int, column: str) -> bool:
    text = cell.strip()
    if text == "0":
        return False
    if text == "1":
        return True
    raise RowParseError(row, column, f"expected 0 or 1, got {cell!r}")


def _csv_rows(data: bytes) -> Iterator[tuple[int, list[str]]]:
    """The data rows of a player CSV, each with the file line it starts on.

    Decodes the bytes, skips one leading byte-order mark and checks the
    header.  Blank lines come through as empty rows.  A row the CSV reader
    rejects raises `RowParseError`.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise EncodingError(
            exc.start, f"invalid UTF-8 byte 0x{data[exc.start]:02x} in row {row}"
        ) from None
    text = text.removeprefix("\ufeff")
    if text.strip() == "":
        return
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip() for h in next(reader)]
        if header != list(CSV_HEADER):
            missing = [c for c in CSV_HEADER if c not in header]
            extra = [c for c in header if c not in CSV_HEADER]
            if missing:
                raise SchemaError(f"missing column(s): {', '.join(missing)}")
            if extra:
                raise SchemaError(f"unexpected column(s): {', '.join(extra)}")
            raise SchemaError("header columns are out of order")
        # A quoted cell may span lines, so a row starts one line after the
        # reader's count at the end of the previous row.
        line = reader.line_num + 1
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise RowParseError(reader.line_num, "row", str(exc)) from None


def _int_cell(cell: str, row: int, column: str) -> int:
    """`_parse_int`, with plain cells of at most 18 ASCII digits sent straight to int()."""
    if len(cell) <= MAX_INT_DIGITS and cell.isdigit() and cell.isascii():
        return int(cell)
    return _parse_int(cell, row, column)


def parse_players_csv(data: bytes) -> list[PlayerRecord]:
    """Parse a UTF-8 player CSV into records.

    The header must match `CSV_HEADER` exactly.  Numeric cells are parsed
    strictly: integer cells take at most 18 ASCII digits after leading
    zeros, and float cells only ASCII and no "_".  Category cells are
    whitespace-trimmed with case preserved.  Row numbers in errors are the
    1-based file line a row starts on (header = row 1), counting the lines
    inside quoted cells.  An empty file yields an empty list.  One leading
    UTF-8 byte-order mark is skipped.  Bytes that are not UTF-8 raise
    `EncodingError` with the offset of the first bad byte; a row the CSV
    reader rejects (such as a cell over its 131 072-character field limit)
    raises `RowParseError`.

    Rows are parsed in file order, so the first bad row is the one
    reported.  Each row is unpacked by position; an integer cell of plain
    ASCII digits goes straight to `int()`, any other through the full check.
    """
    records: list[PlayerRecord] = []
    for line, row in _csv_rows(data):
        if not row:
            continue  # tolerate blank lines
        if len(row) != len(CSV_HEADER):
            raise RowParseError(line, "row", f"expected {len(CSV_HEADER)} cells, got {len(row)}")
        (name, league, club, age, height_cm, foot, nationality, outfitter, matches_played,
         goals, assists, yellow_cards, second_yellow_cards, red_cards, minutes_played,
         market_value_m_eur, mid_season_transfer) = row
        try:
            record = PlayerRecord(
                name.strip(),
                league.strip(),
                club.strip(),
                _int_cell(age, line, "age"),
                _int_cell(height_cm, line, "height_cm"),
                foot.strip(),
                nationality.strip(),
                outfitter.strip(),
                _int_cell(matches_played, line, "matches_played"),
                _int_cell(goals, line, "goals"),
                _int_cell(assists, line, "assists"),
                _int_cell(yellow_cards, line, "yellow_cards"),
                _int_cell(second_yellow_cards, line, "second_yellow_cards"),
                _int_cell(red_cards, line, "red_cards"),
                _int_cell(minutes_played, line, "minutes_played"),
                _parse_float(market_value_m_eur, line, "market_value_m_eur"),
                _parse_flag(mid_season_transfer, line, "mid_season_transfer"),
            )
        except InvalidInputError as exc:
            raise RowParseError(line, "record", str(exc)) from exc
        records.append(record)
    return records


def _first_failing_rule(record: PlayerRecord, cfg: FilterConfig) -> str | None:
    # Rule order is fixed: age, transfer, value, minutes.
    if not cfg.min_age <= record.age <= cfg.max_age:
        return RULE_AGE
    if cfg.exclude_mid_season_transfers and record.mid_season_transfer:
        return RULE_TRANSFER
    if record.market_value_m_eur < cfg.min_market_value_m_eur:
        return RULE_VALUE
    if record.minutes_played < cfg.min_minutes:
        return RULE_MINUTES
    return None


def apply_filters(records: list[PlayerRecord], cfg: FilterConfig = FilterConfig()) -> FilterResult:
    """Partition records into the accepted set and an exclusion log.

    Thresholds are inclusive: a record exactly at `min_minutes` or
    `min_market_value_m_eur` is accepted.  Each excluded record is logged
    with the first rule it failed.
    """
    accepted: list[PlayerRecord] = []
    entries: list[ExclusionEntry] = []
    for record in records:
        rule = _first_failing_rule(record, cfg)
        if rule is None:
            accepted.append(record)
        else:
            entries.append(ExclusionEntry(record.name, rule))
    return FilterResult(accepted=tuple(accepted), log=ExclusionLog(tuple(entries)))
