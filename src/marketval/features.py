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
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidInputError, OutOfRangeError
from .numcore import Matrix, read_only

KIND_BIAS = "bias"
KIND_ENCODED = "encoded"
KIND_CONTINUOUS = "continuous"

BIAS_COLUMN_NAME = "const"


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
_counts = attrgetter(*_COUNT_FIELDS)


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
        counts = _counts(self)
        if min(counts) < 0:
            attr = next(a for a, v in zip(_COUNT_FIELDS, counts) if v < 0)
            raise InvalidInputError(f"{attr} must be >= 0")
        if self.age < 15:
            raise InvalidInputError("age must be >= 15")
        if not 140 <= self.height_cm <= 220:
            raise InvalidInputError("height_cm must be within [140, 220]")
        if not (math.isfinite(self.market_value_m_eur) and self.market_value_m_eur > 0):
            raise InvalidInputError("market_value_m_eur must be finite and > 0")
        if self.foot not in ("left", "right", "both"):
            raise InvalidInputError("foot must be one of left, right, both")


def age_group(age: int) -> int:
    """Age band index: {20-21, 22-23, 24-25, 26-27, 28-29, 30-31, >=32} -> 0..6."""
    if age < 20:
        raise OutOfRangeError(f"age {age} is below 20, where the age bands start")
    return min((age - 20) // 2, 6)


def height_group(height_cm: int) -> int:
    """Height band index: {160-164, ..., 185-189, >=190} -> 0..6, 5 cm per band."""
    if height_cm < 160:
        raise OutOfRangeError(
            f"height {height_cm} cm is below 160 cm, where the height bands start"
        )
    return min((height_cm - 160) // 5, 6)


def match_group(matches_played: int) -> int:
    """Match-count group: 0-15 -> 1, then +1 per 5 matches (16-20 -> 2, ...)."""
    if matches_played < 0:
        raise OutOfRangeError("matches_played must be >= 0")
    if matches_played <= 15:
        return 1
    return 2 + (matches_played - 16) // 5


def goal_contribution(goals: int, assists: int) -> float:
    """Goals plus half of the assists."""
    return goals + assists / 2.0


def card_score(yellow_cards: int, second_yellow_cards: int, red_cards: int) -> int:
    """Discipline score: 1 per yellow, 2 per two-yellow dismissal, 3 per red."""
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
CATEGORICAL_ATTRIBUTES: tuple[tuple[str, Callable[[PlayerRecord], object]], ...] = (
    ("league", attrgetter("league")),
    ("club", attrgetter("club")),
    ("age_group", lambda r: age_group(r.age)),
    ("height_group", lambda r: height_group(r.height_cm)),
    ("foot", attrgetter("foot")),
    ("nationality", attrgetter("nationality")),
    ("outfitter", attrgetter("outfitter")),
    ("match_group", lambda r: match_group(r.matches_played)),
)

CONTINUOUS_ATTRIBUTES: tuple[tuple[str, Callable[[PlayerRecord], float]], ...] = (
    ("goal_contribution", lambda r: goal_contribution(r.goals, r.assists)),
    ("card_score", lambda r: float(card_score(r.yellow_cards, r.second_yellow_cards, r.red_cards))),
)


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
            a = self.design.array()
            indicator = ((a == 0.0) | (a == 1.0)).all(axis=0)[encoded]
            if not indicator.all():
                bad = self.columns[encoded[int(np.argmin(indicator))]]
                raise InvalidInputError(f"encoded column {bad.name!r} must be 0/1")
        object.__setattr__(self, "response", read_only(self.response))

    @property
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


def _extract_naming_player(extract, record: PlayerRecord):
    """`extract(record)`, with a band error prefixed by the record's player."""
    try:
        return extract(record)
    except OutOfRangeError as exc:
        raise OutOfRangeError(f"player {record.name!r}: {exc}") from None


def encode_dataset(records: list[PlayerRecord]) -> EncodedDataset:
    """Build the design matrix and response from player records.

    Column order: bias, then one-hot columns attribute by attribute in
    `CATEGORICAL_ATTRIBUTES` order (levels sorted, first level dropped),
    then the standardized continuous columns.  Each attribute is read off
    the records once; its values map to design columns through a dict, and
    the ones are written into one preallocated design by fancy indexing.

    Parameters
    ----------
    records : list of PlayerRecord
        At least two records.

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
    if len(records) < 2:
        raise InvalidInputError("encoding needs at least 2 records")
    n = len(records)
    metas: list[ColumnMeta] = [ColumnMeta(BIAS_COLUMN_NAME, KIND_BIAS, "bias")]
    dropped: dict[str, str] = {}
    codes: list[np.ndarray] = []

    for attr, extract in CATEGORICAL_ATTRIBUTES:
        try:
            values = list(map(extract, records))
        except OutOfRangeError:
            # map does not say which record failed: redo it record by record to name it.
            values = [_extract_naming_player(extract, r) for r in records]
        levels = sorted(set(values))
        dropped[attr] = str(levels[0])
        # The dropped level maps to the bias column, which is all ones anyway.
        column_of = {levels[0]: 0}
        for level in levels[1:]:
            column_of[level] = len(metas)
            metas.append(ColumnMeta(f"{attr}={level}", KIND_ENCODED, attr, str(level)))
        codes.append(np.fromiter(map(column_of.__getitem__, values), dtype=np.intp, count=n))

    design = np.zeros((n, len(metas) + len(CONTINUOUS_ATTRIBUTES)))
    design[:, 0] = 1.0
    rows = np.arange(n)
    for c in codes:
        design[rows, c] = 1.0

    std_params: list[StandardizationParams] = []
    for attr, extract in CONTINUOUS_ATTRIBUTES:
        v = np.fromiter(map(extract, records), dtype=float, count=n)
        mean = float(v.mean())
        std = float(v.std(ddof=1))
        if std == 0.0:
            design[:, len(metas)] = v - mean  # all zeros; kept for auditability
            std_params.append(StandardizationParams(attr, mean, 0.0, True))
        else:
            design[:, len(metas)] = (v - mean) / std
            std_params.append(StandardizationParams(attr, mean, std, False))
        metas.append(ColumnMeta(attr, KIND_CONTINUOUS, attr))

    response = np.fromiter(map(attrgetter("market_value_m_eur"), records), dtype=float, count=n)
    design.setflags(write=False)
    return EncodedDataset(
        design=Matrix(design),
        columns=tuple(metas),
        response=response,
        standardization_params=tuple(std_params),
        dropped_levels=dropped,
    )
