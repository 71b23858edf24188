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


# How each cell of a row is read, off `PlayerRecord`'s field types: the
# positions of the text cells, which are stripped, and (position, reader,
# column) for every other cell.
_READERS = {int: _parse_int, float: _parse_float, bool: _parse_flag}
_TEXT_CELLS = tuple(i for i, kind in enumerate(FIELD_TYPES.values()) if kind is str)
_TYPED_CELLS = tuple((i, _READERS[kind], name)
                     for i, (name, kind) in enumerate(FIELD_TYPES.items()) if kind is not str)


def _read_column(cells: list[str], column: str) -> np.ndarray:
    """The cells of `column`, read by its `PlayerRecord` field's type into
    an array of the field's dtype.

    Text cells are stripped, into an object array of strings.  A numeric
    column is read in one conversion where its cells are plain: ints of
    ASCII digits, flags "0" and "1", and ASCII floats without "_" that
    `float()` reads (it ignores surrounding whitespace, so it reads the
    stripped cell).  Any other column is read cell by cell with the row
    loop's reader, which raises `RowParseError` on a bad cell (giving row
    0: the row loop finds the row).  An int of more than `MAX_INT_DIGITS`
    digits is left to `PlayerTable` to reject.
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
                return np.fromiter(map(int, cells), dtype=dtype, count=n)
            if kind is float and "_" not in joined:
                return np.fromiter(map(float, cells), dtype=dtype, count=n)
            if kind is bool and set(cells) <= {"0", "1"}:
                return np.fromiter(map("1".__eq__, cells), dtype=dtype, count=n)
        except (ValueError, OverflowError):
            pass  # read cell by cell below
    read = _READERS[kind]
    return np.fromiter((read(cell, 0, column) for cell in cells), dtype=dtype, count=n)


# Rows per block of the columnar read.  A block's cells are freed before the
# next block is read, so the strings of a whole file are never all held at
# once; much smaller blocks leave more of the malloc heap fragmented.
_BLOCK_ROWS = 4096


def _cell_blocks(data: bytes) -> Iterator[list[str] | None]:
    """The cells of the data rows, row after row, in blocks of up to
    `_BLOCK_ROWS` rows; None for a ragged row, which ends the blocks."""
    block_size = len(CSV_HEADER) * _BLOCK_ROWS
    cells: list[str] = []
    for _, row in _csv_rows(data):
        if len(row) == len(CSV_HEADER):
            cells += row
            if len(cells) == block_size:
                yield cells
                cells = []
        elif row:  # a blank line is an empty row, and is skipped
            yield None
            return
    if cells:
        yield cells


def _parse_columns(data: bytes) -> PlayerTable | None:
    """The table read a block of rows and then a column at a time, or None
    if a row is ragged or breaks a record rule; a bad cell raises
    `RowParseError`."""
    width = len(CSV_HEADER)
    blocks: list[list] = [[] for _ in CSV_HEADER]  # per column, its blocks
    for cells in _cell_blocks(data):
        if cells is None:
            return None
        for i, column in enumerate(CSV_HEADER):
            blocks[i].append(_read_column(cells[i::width], column))
    columns = {column: np.concatenate(parts) if parts else ()
               for column, parts in zip(CSV_HEADER, blocks)}
    try:
        return PlayerTable(columns)
    except InvalidInputError:
        return None


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

    The file is read in blocks of `_BLOCK_ROWS` rows, and each block a
    column at a time: a numeric column goes through one conversion when all
    its cells are plain, and through the cell readers otherwise (see
    `_read_column`).  The record rules are checked once per column of the
    whole table by `PlayerTable`.  A ragged row, a bad cell or a broken
    rule sends the whole file to the row loop, `_parse_rows`, which alone
    defines the error messages and row numbers: it reports the first bad
    row.
    """
    try:
        table = _parse_columns(data)
    except RowParseError:
        table = None  # an earlier row may hold a bad cell
    return _parse_rows(data) if table is None else table


def _parse_rows(data: bytes) -> PlayerTable:
    """`parse_players_csv` row by row, in file order, so the first bad row
    is the one reported.

    Each cell is read by its `PlayerRecord` field's type, in field order;
    an integer cell of plain ASCII digits goes straight to `int()`, any
    other through the full check.
    """
    records: list[PlayerRecord] = []
    for line, row in _csv_rows(data):
        if not row:
            continue  # tolerate blank lines
        if len(row) != len(CSV_HEADER):
            raise RowParseError(line, "row", f"expected {len(CSV_HEADER)} cells, got {len(row)}")
        for i in _TEXT_CELLS:
            row[i] = row[i].strip()
        for i, read, column in _TYPED_CELLS:
            row[i] = read(row[i], line, column)
        try:
            record = PlayerRecord(*row)
        except InvalidInputError as exc:
            raise RowParseError(line, "record", str(exc)) from exc
        records.append(record)
    return PlayerTable.from_records(records)


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
