"""Turn player records into a regression design matrix.

Ages, heights and match counts are discretized into fixed bands, the
derived per-player statistics (goal contribution, card score) are computed,
categorical attributes are one-hot encoded with one level dropped per
attribute to avoid the dummy trap, the two continuous columns are
standardized, and a bias column of ones is prepended.  The response is the
raw market value in millions of euros.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Mapping, get_type_hints

import numpy as np

from .errors import InvalidInputError, OutOfRangeError
from .numcore import Matrix, read_only

KIND_BIAS = "bias"
KIND_ENCODED = "encoded"
KIND_CONTINUOUS = "continuous"

BIAS_COLUMN_NAME = "const"


# Integers in a CSV cell or a `PlayerTable` have at most this many digits
# (after leading zeros), so every value and every derived count (a card
# score is below 6 * 10**18) fits a signed 64-bit integer: a cell of ~309
# digits overflows the float conversion in encoding, one of 4300 int().
MAX_INT_DIGITS = 18

# The count fields of `PlayerRecord`, each of which must be >= 0.
_COUNT_FIELDS = (
    "matches_played",
    "goals",
    "assists",
    "yellow_cards",
    "second_yellow_cards",
    "red_cards",
    "minutes_played",
)
_FEET = ("left", "right", "both")

# The rules every player obeys, checked in this order: (field, test, message).
# A test takes one value, or a whole column of a numeric field; the tests of
# `market_value_m_eur` are false for NaN.
_RECORD_RULES = (
    *((name, lambda v: v >= 0, f"{name} must be >= 0") for name in _COUNT_FIELDS),
    ("age", lambda v: v >= 15, "age must be >= 15"),
    ("height_cm", lambda v: (140 <= v) & (v <= 220), "height_cm must be within [140, 220]"),
    ("market_value_m_eur", lambda v: (0 < v) & (v < math.inf),
     "market_value_m_eur must be finite and > 0"),
    ("foot", _FEET.__contains__, "foot must be one of left, right, both"),
)


@dataclass(frozen=True, slots=True)
class PlayerRecord:
    """One season line for one player.

    `yellow_cards` counts yellows that were not part of a two-yellow
    dismissal; those incidents are carried separately in
    `second_yellow_cards`.
    """

    name: str
    league: str
    club: str
    age: int
    height_cm: int
    foot: str
    nationality: str
    outfitter: str
    matches_played: int
    goals: int
    assists: int
    yellow_cards: int
    second_yellow_cards: int
    red_cards: int
    minutes_played: int
    market_value_m_eur: float
    mid_season_transfer: bool

    def __post_init__(self) -> None:
        for name, valid, message in _RECORD_RULES:
            if not valid(getattr(self, name)):
                raise InvalidInputError(message)


# Each field's type, in field order, and the dtype of its column: a text
# column holds Python strs, because a "U" array drops trailing NULs.
FIELD_TYPES: Mapping[str, type] = MappingProxyType(get_type_hints(PlayerRecord))
_DTYPES = {int: np.int64, float: np.float64, bool: np.bool_, str: object}
_fields_of = attrgetter(*FIELD_TYPES)


class PlayerTable(Sequence):
    """Players held column-wise: what `parse_players_csv` returns.

    Each `PlayerRecord` field is a column, read as the attribute of the same
    name: a read-only array of the field's dtype, int64, float64, bool, or
    object for a text field, whose items are Python strings.  Every row
    obeys the `PlayerRecord` rules, checked once per column.  `len()` counts
    rows; indexing and iteration build `PlayerRecord`s of plain Python
    values.  Two tables are equal when their columns are.
    """

    def __init__(self, columns: Mapping[str, Iterable]) -> None:
        """A table of `columns` (field name -> values, any iterable).

        A column that is already an array of its dtype is taken as it is,
        without a copy, and made read-only; other values are converted.
        Raises `InvalidInputError` when the columns differ in length, a
        value does not fit its column (an integer of more than
        `MAX_INT_DIGITS` digits, as in a CSV cell), or a row breaks a
        record rule: then the message is the first broken rule's.
        """
        built = {}
        for name, kind in FIELD_TYPES.items():
            values = columns[name]
            try:
                # np.asarray makes a 0-d array of a generator.
                column = np.asarray(values if isinstance(values, np.ndarray) else list(values),
                                    dtype=_DTYPES[kind])
            except OverflowError:
                column = None
            if column is None or (kind is int and (column >= 10**MAX_INT_DIGITS).any()):
                raise InvalidInputError(f"{name} holds a value beyond its column's range "
                                        f"(at most {MAX_INT_DIGITS} digits for an integer)")
            column.setflags(write=False)
            built[name] = column
        if len(set(map(len, built.values()))) > 1:
            raise InvalidInputError("table columns must have equal lengths")
        for name, valid, message in _RECORD_RULES:
            column = built[name]
            # A text rule is tested once per distinct value.
            if not (all(map(valid, set(column))) if FIELD_TYPES[name] is str
                    else valid(column).all()):
                raise InvalidInputError(message)
        self.__dict__.update(built)

    @classmethod
    def concatenate(cls, tables: Sequence[PlayerTable]) -> PlayerTable:
        """The rows of `tables`, in order, as one table.

        Every row obeys the rules already, so none is checked again.
        """
        if not tables:
            return cls({name: () for name in FIELD_TYPES})
        table = object.__new__(cls)
        for name in FIELD_TYPES:
            column = np.concatenate([t.__dict__[name] for t in tables])
            column.setflags(write=False)
            table.__dict__[name] = column
        return table

    @classmethod
    def from_records(cls, records: Iterable[PlayerRecord]) -> PlayerTable:
        """`records` as a table; a table is returned as it is."""
        if isinstance(records, PlayerTable):
            return records
        values = list(chain.from_iterable(map(_fields_of, records)))
        width = len(FIELD_TYPES)
        return cls({name: values[i::width] for i, name in enumerate(FIELD_TYPES)})

    def _columns(self) -> list:
        return [self.__dict__[name] for name in FIELD_TYPES]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("a PlayerTable is read-only")

    def __len__(self) -> int:
        return len(self.name)

    def __getitem__(self, i: int) -> PlayerRecord:
        return PlayerRecord(*(c.item(i) for c in self._columns()))

    def __iter__(self) -> Iterator[PlayerRecord]:
        return map(PlayerRecord, *(c.tolist() for c in self._columns()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlayerTable):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"<PlayerTable of {len(self)} rows>"

    def compress(self, keep: np.ndarray) -> PlayerTable:
        """The rows where the boolean mask `keep` is true, in order."""
        return PlayerTable({name: c[keep] for name, c in zip(FIELD_TYPES, self._columns())})


class _BandError(OutOfRangeError):
    """A value below the first band, at `index` of the array checked."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


def _require_at_least(values: int | np.ndarray, start: int, message: str) -> None:
    """Raise `OutOfRangeError(message)`, formatted with the first of `values`
    (one int, or an int array) below `start`, if there is one; for an
    array, a `_BandError` that carries the value's index."""
    below = values < start
    if isinstance(below, np.ndarray):
        if below.any():
            i = int(below.argmax())
            raise _BandError(message.format(values[i]), i)
    elif below:
        raise OutOfRangeError(message.format(values))


def _clip(index: int | np.ndarray, low: int, high: int | None = None) -> int | np.ndarray:
    """`index` clipped to [low, high], for one int or elementwise over an array."""
    if isinstance(index, np.ndarray):
        return np.clip(index, low, high)
    return max(low, index if high is None else min(index, high))


def age_group(age: int | np.ndarray) -> int | np.ndarray:
    """Age band index: {20-21, 22-23, 24-25, 26-27, 28-29, 30-31, >=32} -> 0..6.

    Takes one age or an int array of ages.
    """
    _require_at_least(age, 20, "age {} is below 20, where the age bands start")
    return _clip((age - 20) // 2, 0, 6)


def height_group(height_cm: int | np.ndarray) -> int | np.ndarray:
    """Height band index: {160-164, ..., 185-189, >=190} -> 0..6, 5 cm per band.

    Takes one height or an int array of heights.
    """
    _require_at_least(height_cm, 160,
                      "height {} cm is below 160 cm, where the height bands start")
    return _clip((height_cm - 160) // 5, 0, 6)


def match_group(matches_played: int | np.ndarray) -> int | np.ndarray:
    """Match-count group: 0-15 -> 1, then +1 per 5 matches (16-20 -> 2, ...).

    Takes one count or an int array of counts.
    """
    _require_at_least(matches_played, 0, "matches_played must be >= 0")
    return _clip(2 + (matches_played - 16) // 5, 1)


def goal_contribution(goals: int | np.ndarray, assists: int | np.ndarray) -> float | np.ndarray:
    """Goals plus half of the assists (ints, or elementwise over int arrays)."""
    return goals + assists / 2.0


def card_score(yellow_cards: int | np.ndarray, second_yellow_cards: int | np.ndarray,
               red_cards: int | np.ndarray) -> int | np.ndarray:
    """Discipline score: 1 per yellow, 2 per two-yellow dismissal, 3 per red.

    Takes ints, or int arrays elementwise.
    """
    return yellow_cards + 2 * second_yellow_cards + 3 * red_cards


@dataclass(frozen=True)
class ColumnMeta:
    """Description of one design-matrix column."""

    name: str
    kind: str  # one of KIND_BIAS, KIND_ENCODED, KIND_CONTINUOUS
    source_attribute: str
    level: str | None = None


@dataclass(frozen=True)
class StandardizationParams:
    """Mean/sd used to standardize one continuous column (sd has n-1 denominator)."""

    column: str
    mean: float
    std: float
    zero_variance: bool


# Categorical attributes in design-matrix order, with their level extractors.
# An extractor reads one record, or a whole `PlayerTable` column-wise.
CATEGORICAL_ATTRIBUTES: tuple[tuple[str, Callable[[PlayerRecord | PlayerTable], object]], ...] = (
    ("league", attrgetter("league")),
    ("club", attrgetter("club")),
    ("age_group", lambda r: age_group(r.age)),
    ("height_group", lambda r: height_group(r.height_cm)),
    ("foot", attrgetter("foot")),
    ("nationality", attrgetter("nationality")),
    ("outfitter", attrgetter("outfitter")),
    ("match_group", lambda r: match_group(r.matches_played)),
)

CONTINUOUS_ATTRIBUTES: tuple[tuple[str, Callable[[PlayerRecord | PlayerTable], object]], ...] = (
    ("goal_contribution", lambda r: goal_contribution(r.goals, r.assists)),
    ("card_score", lambda r: card_score(r.yellow_cards, r.second_yellow_cards, r.red_cards)),
)


# Rows of a design that `EncodedDataset` checks at a time.
_CHECK_ROWS = 1024


@dataclass(frozen=True)
class EncodedDataset:
    """Design matrix plus the metadata needed to interpret its columns.

    `dropped_levels` records, per categorical attribute, the level whose
    dummy column was omitted; coefficients of the remaining levels are
    contrasts against it.
    """

    design: Matrix
    columns: tuple[ColumnMeta, ...]
    response: np.ndarray
    standardization_params: tuple[StandardizationParams, ...]
    dropped_levels: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.design.cols != len(self.columns):
            raise InvalidInputError("column metadata must match design width")
        if self.design.rows != len(self.response):
            raise InvalidInputError("response length must match design height")
        bias_positions = [i for i, c in enumerate(self.columns) if c.kind == KIND_BIAS]
        if len(bias_positions) > 1 or (bias_positions and bias_positions[0] != 0):
            raise InvalidInputError("at most one bias column, and it must come first")
        encoded = [i for i, c in enumerate(self.columns) if c.kind == KIND_ENCODED]
        if encoded:
            # A block of rows at a time: masks of the whole design, three
            # n x p arrays at once, raise the peak RSS of `marketval fit` on
            # synth n = 20 000 (seed 1) from 70.8 to 73.0 MB.
            a = self.design.array()
            indicator = np.ones(a.shape[1], dtype=bool)
            for start in range(0, a.shape[0], _CHECK_ROWS):
                rows = a[start:start + _CHECK_ROWS]
                indicator &= ((rows == 0.0) | (rows == 1.0)).all(axis=0)
            indicator = indicator[encoded]
            if not indicator.all():
                bad = self.columns[encoded[int(np.argmin(indicator))]]
                raise InvalidInputError(f"encoded column {bad.name!r} must be 0/1")
        object.__setattr__(self, "response", read_only(self.response))

    @cached_property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def has_bias(self) -> bool:
        return bool(self.columns) and self.columns[0].kind == KIND_BIAS

    def select_columns(self, keep: list[int] | tuple[int, ...]) -> "EncodedDataset":
        """Sub-dataset with the given column indices (must be strictly increasing)."""
        keep = list(keep)
        if not keep:
            raise InvalidInputError("cannot select zero columns")
        if any(b <= a for a, b in zip(keep, keep[1:])):
            raise InvalidInputError("column selection must be strictly increasing")
        kept_meta = tuple(self.columns[i] for i in keep)
        kept_names = {c.name for c in kept_meta}
        design = np.take(self.design.array(), keep, axis=1)
        design.setflags(write=False)
        return EncodedDataset(
            design=Matrix(design),
            columns=kept_meta,
            response=self.response,
            standardization_params=tuple(
                p for p in self.standardization_params if p.column in kept_names
            ),
            dropped_levels=self.dropped_levels,
        )


def _levels_and_positions(values: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct `values` (a text column or an int array of bands), as
    Python values in sorted order, and the position of each value among
    them."""
    values = values.tolist()
    levels = sorted(set(values))
    position = {level: i for i, level in enumerate(levels)}
    return levels, np.fromiter(map(position.__getitem__, values), dtype=np.intp, count=len(values))


def encode_dataset(records: Iterable[PlayerRecord]) -> EncodedDataset:
    """Build the design matrix and response from players.

    Column order: bias, then one-hot columns attribute by attribute in
    `CATEGORICAL_ATTRIBUTES` order (levels sorted, first level dropped),
    then the standardized continuous columns.  Each attribute is read off
    the table's columns once: a band is computed for a whole column, the
    values map to design columns by their position among the sorted
    levels, and the ones are written into one preallocated design by fancy
    indexing.

    Parameters
    ----------
    records : PlayerTable, or any iterable of PlayerRecord
        At least two players.  Records are first made a table with
        `PlayerTable.from_records`.

    Returns
    -------
    EncodedDataset

    Raises
    ------
    OutOfRangeError
        For the first attribute in `CATEGORICAL_ATTRIBUTES` order with a
        value outside its bands (an age below 20 or a height below 160),
        naming the first player with such a value.
    """
    table = PlayerTable.from_records(records)
    n = len(table)
    if n < 2:
        raise InvalidInputError("encoding needs at least 2 records")
    metas: list[ColumnMeta] = [ColumnMeta(BIAS_COLUMN_NAME, KIND_BIAS, "bias")]
    dropped: dict[str, str] = {}
    codes: list[np.ndarray] = []

    for attr, extract in CATEGORICAL_ATTRIBUTES:
        try:
            values = extract(table)
        except _BandError as exc:
            raise OutOfRangeError(f"player {table.name[exc.index]!r}: {exc}") from None
        levels, positions = _levels_and_positions(values)
        dropped[attr] = str(levels[0])
        # The dropped level maps to the bias column, which is all ones anyway.
        column_of = np.arange(len(metas) - 1, len(metas) - 1 + len(levels))
        column_of[0] = 0
        for level in levels[1:]:
            metas.append(ColumnMeta(f"{attr}={level}", KIND_ENCODED, attr, str(level)))
        codes.append(column_of[positions])

    design = np.zeros((n, len(metas) + len(CONTINUOUS_ATTRIBUTES)))
    design[:, 0] = 1.0
    rows = np.arange(n)
    for c in codes:
        design[rows, c] = 1.0

    std_params: list[StandardizationParams] = []
    for attr, extract in CONTINUOUS_ATTRIBUTES:
        v = np.asarray(extract(table), dtype=float)
        mean = float(v.mean())
        std = float(v.std(ddof=1))
        if std == 0.0:
            design[:, len(metas)] = v - mean  # all zeros; kept for auditability
            std_params.append(StandardizationParams(attr, mean, 0.0, True))
        else:
            design[:, len(metas)] = (v - mean) / std
            std_params.append(StandardizationParams(attr, mean, std, False))
        metas.append(ColumnMeta(attr, KIND_CONTINUOUS, attr))

    design.setflags(write=False)
    return EncodedDataset(
        design=Matrix(design),
        columns=tuple(metas),
        response=table.market_value_m_eur,
        standardization_params=tuple(std_params),
        dropped_levels=dropped,
    )
