"""Seeded synthetic player-data generator with published ground truth.

Market values are generated as a linear function of the encoded attributes
plus Gaussian noise, so a fit on the generated data can be checked against
the true coefficients.  Level effects are expressed in millions of euros
per level; the continuous slopes are per raw unit (per goal-contribution
point, per card-score point), with the standardization applied at encoding
time accounted for by whoever does the comparison.  Everything is drawn
from one seeded generator in a fixed order, so a given (seed, n) pair
always produces the identical dataset.
"""
from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Mapping

import numpy as np

from .errors import InvalidInputError
from .features import (
    PlayerRecord,
    age_group,
    card_score,
    goal_contribution,
    height_group,
    match_group,
)
from .ingest import CSV_HEADER

LEAGUES = ("Bundesliga", "La Liga", "Premier League", "Serie A")
CLUBS = tuple(f"Club {i:02d}" for i in range(1, 41))
NATIONALITIES = (
    "Argentina",
    "Austria",
    "Belgium",
    "Brazil",
    "Colombia",
    "Croatia",
    "Denmark",
    "Ecuador",
    "England",
    "France",
    "Gabon",
    "Germany",
    "Ghana",
    "Italy",
    "Ivory Coast",
    "Japan",
    "Mexico",
    "Morocco",
    "Netherlands",
    "Nigeria",
    "Norway",
    "Poland",
    "Portugal",
    "Senegal",
    "Serbia",
    "South Korea",
    "Spain",
    "Uruguay",
)
OUTFITTERS = ("Adidas", "Joma", "New Balance", "Nike", "Puma")
FEET = ("both", "left", "right")

# Bands the generated attribute ranges can actually reach.
_AGE_GROUPS = tuple(range(7))
_HEIGHT_GROUPS = tuple(range(7))
_MATCH_GROUPS = tuple(range(1, 8))

_NOISE_SD = 4.0


@dataclass(frozen=True)
class SynthTruth:
    """Ground truth behind one generated dataset."""

    seed: int
    n: int
    intercept: float
    noise_sd: float
    level_effects: Mapping[str, Mapping[str, float]]
    continuous_slopes: Mapping[str, float]


def _draw_level_effects(rng: np.random.Generator) -> dict[str, dict[str, float]]:
    # Small per-level effects on top of a large intercept keep every
    # generated market value comfortably above the default filter floor,
    # so value-based exclusions stay rare and selection stays unbiased.
    ranges = (
        ("league", LEAGUES, -3.0, 6.0),
        ("club", CLUBS, -4.0, 8.0),
        ("age_group", tuple(str(g) for g in _AGE_GROUPS), -4.0, 8.0),
        ("height_group", tuple(str(g) for g in _HEIGHT_GROUPS), -4.0, 8.0),
        ("foot", FEET, -2.0, 4.0),
        ("nationality", NATIONALITIES, -3.0, 6.0),
        ("outfitter", OUTFITTERS, -2.0, 4.0),
        ("match_group", tuple(str(g) for g in _MATCH_GROUPS), -4.0, 8.0),
    )
    effects: dict[str, dict[str, float]] = {}
    for attr, levels, lo, hi in ranges:
        effects[attr] = {level: float(rng.uniform(lo, hi)) for level in levels}
    return effects


def generate_players(seed: int, n: int) -> tuple[list[PlayerRecord], SynthTruth]:
    """Generate `n` synthetic forwards and the truth that produced them.

    Attribute draws are tuned so that, under the default filters, at least
    ~90% of rows survive: ages always land in range, minutes rarely fall
    under 1000, and the value floor sits far below the generated values.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if seed < 0:
        raise InvalidInputError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    effects = _draw_level_effects(rng)
    intercept = 70.0 + float(rng.uniform(0.0, 10.0))
    slope_gc = float(rng.uniform(0.5, 1.2))
    slope_cs = float(rng.uniform(-0.8, -0.2))
    truth = SynthTruth(
        seed=seed,
        n=n,
        intercept=intercept,
        noise_sd=_NOISE_SD,
        level_effects=effects,
        continuous_slopes={"goal_contribution": slope_gc, "card_score": slope_cs},
    )

    records: list[PlayerRecord] = []
    for i in range(1, n + 1):
        league = str(rng.choice(LEAGUES))
        club = str(rng.choice(CLUBS))
        nationality = str(rng.choice(NATIONALITIES))
        outfitter = str(rng.choice(OUTFITTERS))
        foot = str(rng.choice(FEET, p=[0.08, 0.30, 0.62]))
        age = int(rng.integers(20, 35))
        height = int(np.clip(round(rng.normal(181.0, 7.0)), 160, 200))
        matches = int(rng.integers(5, 43))
        goals = int(rng.poisson(7.0))
        assists = int(rng.poisson(4.0))
        yellows = int(rng.poisson(3.0))
        second_yellows = int(rng.random() < 0.12)
        reds = int(rng.random() < 0.08)
        minutes = int(rng.integers(950, 3601))
        mid_season = bool(rng.random() < 0.03)

        gc = goal_contribution(goals, assists)
        cs = card_score(yellows, second_yellows, reds)
        value = (
            intercept
            + effects["league"][league]
            + effects["club"][club]
            + effects["age_group"][str(age_group(age))]
            + effects["height_group"][str(height_group(height))]
            + effects["foot"][foot]
            + effects["nationality"][nationality]
            + effects["outfitter"][outfitter]
            + effects["match_group"][str(match_group(matches))]
            + slope_gc * gc
            + slope_cs * cs
            + float(rng.normal(0.0, _NOISE_SD))
        )
        value = round(value, 3)
        if value <= 0.0:
            raise InvalidInputError(
                f"generated market value {value} is not positive (seed {seed}, row {i})"
            )
        records.append(
            PlayerRecord(
                name=f"Player {i:03d}",
                league=league,
                club=club,
                age=age,
                height_cm=height,
                foot=foot,
                nationality=nationality,
                outfitter=outfitter,
                matches_played=matches,
                goals=goals,
                assists=assists,
                yellow_cards=yellows,
                second_yellow_cards=second_yellows,
                red_cards=reds,
                minutes_played=minutes,
                market_value_m_eur=value,
                mid_season_transfer=mid_season,
            )
        )
    return records, truth


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def records_to_csv(records: list[PlayerRecord]) -> str:
    """Render records as a schema-conformant CSV string.

    The `csv` module writes it in the dialect `parse_players_csv` reads, so
    a text cell that holds a comma, a double quote or a line feed is quoted.
    Market values are written with three decimals and flags as 0/1, so a
    value below 0.0005 would be written as 0, which the reader rejects; it
    raises `InvalidInputError`.  The writer leaves a lone carriage return
    unquoted, which the reader also rejects, so a text cell that holds one
    raises `InvalidInputError` too.
    """
    low = min(records, key=attrgetter("market_value_m_eur"), default=None)
    if low is not None and float(cell := _csv_cell(low.market_value_m_eur)) == 0:
        raise InvalidInputError(f"player {low.name!r}: column 'market_value_m_eur' holds "
                                f"{low.market_value_m_eur!r}, which is written as {cell!r}")
    fields = attrgetter(*CSV_HEADER)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(map(_csv_cell, fields(r)) for r in records)
    text = out.getvalue()
    if "\r" in text:
        record, column = next((r, c) for r in records for c in CSV_HEADER
                              if "\r" in _csv_cell(getattr(r, c)))
        raise InvalidInputError(
            f"player {record.name!r}: column {column!r} holds a carriage return"
        )
    return text


def truth_to_dict(truth: SynthTruth) -> dict:
    """JSON-ready view of the ground truth."""
    return asdict(truth)
