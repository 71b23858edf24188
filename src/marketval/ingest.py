"""CSV parsing and eligibility filtering with an auditable exclusion log."""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import EncodingError, InvalidInputError, RowParseError, SchemaError
from .features import _DTYPES, FIELD_TYPES, MAX_INT_DIGITS, PlayerRecord, PlayerTable

# The header of a player CSV: `PlayerRecord`'s fields, in order.
CSV_HEADER = tuple(FIELD_TYPES)

RULE_AGE = "age"
RULE_TRANSFER = "mid_season_transfer"
RULE_VALUE = "market_value"
RULE_MINUTES = "minutes"
# The filter rules in the order they are applied.
RULES = (RULE_AGE, RULE_TRANSFER, RULE_VALUE, RULE_MINUTES)


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
    """The excluded players in file order, column-wise: each one's name and
    the first filter rule it failed."""

    names: tuple[str, ...] = ()
    rules: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.names)

    @property
    def entries(self) -> tuple[ExclusionEntry, ...]:
        return tuple(map(ExclusionEntry, self.names, self.rules))


@dataclass(frozen=True)
class FilterResult:
    accepted: PlayerTable
    log: ExclusionLog


def _parse_int(cell: str, row: int, column: str) -> int:
    if len(cell) <= MAX_INT_DIGITS and cell.isdigit() and cell.isascii():
        return int(cell)  # the common cell: plain ASCII digits, nothing to check
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


# How each cell of a typed column is read, off `PlayerRecord`'s field types.
_READERS = {int: _parse_int, float: _parse_float, bool: _parse_flag}


def _read_column(cells: list[str], column: str, row: int) -> np.ndarray:
    """The cells of `column`, read by its `PlayerRecord` field's type into
    an array of the field's dtype.

    Text cells are stripped, into an object array of strings.  A numeric
    column is read in one conversion where its cells are plain: ints of
    ASCII digits below 10**`MAX_INT_DIGITS`, flags "0" and "1", and ASCII
    floats without "_" that `float()` reads (it ignores surrounding
    whitespace, so it reads the stripped cell).  Any other column is read
    cell by cell with the readers of `_READERS`, which raise
    `RowParseError` at `row` on a bad cell.
    """
    kind = FIELD_TYPES[column]
    n, dtype = len(cells), _DTYPES[kind]
    if kind is str:
        return np.fromiter(map(str.strip, cells), dtype=dtype, count=n)
    joined = "".join(cells)
    if joined.isascii():
        try:
            # An empty cell adds nothing to `joined`, but int("") raises.
            if kind is int and joined.isdigit():
                values = np.fromiter(map(int, cells), dtype=dtype, count=n)
                # int64 holds some 19-digit ints, which `_parse_int` rejects.
                if values.max(initial=0) < 10**MAX_INT_DIGITS:
                    return values
            elif kind is float and "_" not in joined:
                return np.fromiter(map(float, cells), dtype=dtype, count=n)
            elif kind is bool and set(cells) <= {"0", "1"}:
                return np.fromiter(map("1".__eq__, cells), dtype=dtype, count=n)
        except (ValueError, OverflowError):
            pass  # read cell by cell below
    read = _READERS[kind]
    return np.fromiter((read(cell, row, column) for cell in cells), dtype=dtype, count=n)


def _read_rows(lines: list[int], cells: list[str]) -> PlayerTable:
    """The rows that start on file lines `lines`, their cells in `cells`
    row after row, as a table.

    The rows are read a column at a time, in field order, and then checked
    by the record rules.  If any row fails, the rows are read again in
    halves, first half first, down to the first bad row, which raises
    `RowParseError` at its own line: the cell reader's error for a bad
    cell, or column "record" and the first broken rule's message.
    """
    width = len(CSV_HEADER)
    try:
        return PlayerTable({column: _read_column(cells[i::width], column, lines[0])
                            for i, column in enumerate(CSV_HEADER)})
    except InvalidInputError as exc:  # a broken rule
        if len(lines) == 1:
            raise RowParseError(lines[0], "record", str(exc)) from exc
    except RowParseError:  # a bad cell
        if len(lines) == 1:
            raise
    half = len(lines) // 2
    _read_rows(lines[:half], cells[:half * width])
    _read_rows(lines[half:], cells[half * width:])
    raise AssertionError("every check is per row, so a failing block has a failing row")


# Rows per block of the columnar read.  A block's cells are freed before the
# next block is read, so the strings of a whole file are never all held at
# once; much smaller blocks leave more of the malloc heap fragmented.
_BLOCK_ROWS = 4096


def _row_blocks(data: bytes) -> Iterator[tuple[list[int], list[str]]]:
    """The data rows of a player CSV in blocks of up to `_BLOCK_ROWS`
    rows: each block's start lines, and its cells row after row.

    Blank lines are skipped.  A ragged row, or a row the CSV reader
    rejects, ends the blocks: the rows before it are yielded first, so that
    an earlier bad row is reported first, and then it raises
    `RowParseError`.
    """
    width = len(CSV_HEADER)
    lines: list[int] = []
    cells: list[str] = []
    try:
        for line, row in _csv_rows(data):
            if len(row) == width:
                lines.append(line)
                cells += row
                if len(lines) == _BLOCK_ROWS:
                    yield lines, cells
                    lines, cells = [], []
            elif row:  # a blank line is an empty row
                raise RowParseError(line, "row", f"expected {width} cells, got {len(row)}")
    except RowParseError:
        if lines:
            yield lines, cells
        raise
    if lines:
        yield lines, cells


def _csv_rows(data: bytes) -> Iterator[tuple[int, list[str]]]:
    """The data rows of a player CSV, each with the file line it starts on.

    Decodes the bytes, skips one leading byte-order mark and checks the
    header.  Blank lines come through as empty rows.  A row the CSV reader
    rejects raises `RowParseError` with the line the row starts on.
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
    line = 1
    try:
        header = [h.strip() for h in next(reader)]
        if header != list(CSV_HEADER):
            problems = (
                ("missing", [c for c in CSV_HEADER if c not in header]),
                ("unexpected", [c for c in dict.fromkeys(header) if c not in CSV_HEADER]),
                ("duplicate", [c for c in dict.fromkeys(header) if header.count(c) > 1]),
            )
            for problem, columns in problems:
                if columns:
                    raise SchemaError(f"{problem} column(s): {', '.join(map(repr, columns))}")
            raise SchemaError("header columns are out of order")
        # A quoted cell may span lines, so a row starts one line after the
        # reader's count at the end of the previous row.
        line = reader.line_num + 1
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise RowParseError(line, "row", str(exc)) from None


def parse_players_csv(data: bytes) -> PlayerTable:
    """Parse a UTF-8 player CSV into a `PlayerTable`.

    The header must match `CSV_HEADER` exactly.  Numeric cells are parsed
    strictly: integer cells take at most 18 ASCII digits after leading
    zeros, and float cells only ASCII and no "_".  Category cells are
    whitespace-trimmed with case preserved.  Row numbers in errors are the
    1-based file line a row starts on (header = row 1), counting the lines
    inside quoted cells.  An empty file yields an empty table.  One leading
    UTF-8 byte-order mark is skipped.  Bytes that are not UTF-8 raise
    `EncodingError` with the offset of the first bad byte; a row the CSV
    reader rejects (such as a cell over its 131 072-character field limit)
    raises `RowParseError`.

    The file is decoded and run through the CSV reader once.  Its rows are
    read in blocks of `_BLOCK_ROWS`, and each block a column at a time: a
    numeric column goes through one conversion when all its cells are
    plain, and through the cell readers otherwise (see `_read_column`).
    The record rules are then checked once per column of the block by
    `PlayerTable`.  A block that fails is read again in halves down to its
    first bad row, and every check is per row, so the error is always that
    of the first bad row in the file (see `_read_rows`).  The checked blocks
    are joined without checking them again.
    """
    # A loop, not a comprehension: the last block's cells stay bound until
    # the table is built, which leaves less of the malloc heap fragmented
    # for the stages after the parse (`marketval fit` at n = 20 000 peaks
    # about 0.4 MB lower).
    tables = []
    for lines, cells in _row_blocks(data):
        tables.append(_read_rows(lines, cells))
    return PlayerTable.concatenate(tables)


def apply_filters(records: Iterable[PlayerRecord],
                  cfg: FilterConfig = FilterConfig()) -> FilterResult:
    """Split players into the accepted table and an exclusion log.

    `records` is a `PlayerTable` or any iterable of `PlayerRecord`, made a
    table by `PlayerTable.from_records`.  Each rule of `RULES` is one mask
    over the table's columns, in rule order: age window, mid-season
    transfer, market value floor, minutes floor.  Thresholds are inclusive:
    a player exactly at `min_minutes` or `min_market_value_m_eur` is
    accepted; integer thresholds beyond the int64 range compare exactly.
    Each excluded player is logged with the first rule it failed.
    """
    table = PlayerTable.from_records(records)
    fails = (
        (table.age < cfg.min_age) | (table.age > cfg.max_age),
        table.mid_season_transfer & cfg.exclude_mid_season_transfers,
        table.market_value_m_eur < cfg.min_market_value_m_eur,
        table.minutes_played < cfg.min_minutes,
    )
    # The index in RULES of each player's first failed rule; len(RULES) if none.
    first = np.full(len(table), len(RULES))
    for k in reversed(range(len(RULES))):
        first[fails[k]] = k
    excluded = first < len(RULES)
    log = ExclusionLog(tuple(table.name[excluded].tolist()),
                       tuple(map(RULES.__getitem__, first[excluded].tolist())))
    return FilterResult(accepted=table.compress(~excluded), log=log)
