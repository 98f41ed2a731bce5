"""Raw player-log ingestion and feature engineering.

Input CSV schema (header required, UTF-8, comma-separated):

    player_id,day_index,playtime_hours,level,sessions,actions,purchases

One row per player per active day. Levels are non-decreasing within a
player; day indices are unique per player. Numeric formats are plain
decimals with a ``.`` separator.

Feature engineering uses a growing window that ends strictly before the
subject's event (or censoring) day, so no feature can read activity at or
after the event: recomputing features after deleting post-event rows is a
bitwise no-op.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import EventStatus, SurvivalDataset, SurvivalRecord, TimeAxis
from .errors import LogParseError, LogValidationError

EXPECTED_HEADER = ["player_id", "day_index", "playtime_hours", "level",
                   "sessions", "actions", "purchases"]

# Every engineered aggregation. Computed over the rows strictly before the
# per-player cutoff day; a player with no pre-cutoff activity gets the
# all-default vector (zeros, level 1).
FEATURE_NAMES = (
    "mean_daily_playtime",
    "max_daily_playtime",
    "std_daily_playtime",
    "total_sessions",
    "mean_actions_per_session",
    "active_day_ratio",
    "current_level",
    "level_velocity",
    "days_since_registration",
)

# The frozen default modeling set, shared by all three time axes: the
# rate-like features. Accumulation features (total sessions, current level,
# days since registration) grow with the observation span itself, so a
# model fed them largely reads back where each subject's window ended; they
# stay available for explicit selection but are excluded by default.
MODEL_FEATURES = (
    "mean_daily_playtime",
    "max_daily_playtime",
    "std_daily_playtime",
    "mean_actions_per_session",
    "active_day_ratio",
    "level_velocity",
)

DEFAULT_CHURN_WINDOW = 9


@dataclass(frozen=True)
class PlayerRow:
    day_index: int
    playtime_hours: float
    level: int
    sessions: int
    actions: int
    purchases: int


@dataclass(frozen=True)
class PlayerLog:
    """Daily activity rows for one player, sorted by day, unique per day."""

    player_id: str
    registration_day: int
    rows: tuple[PlayerRow, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise LogValidationError(
                f"player {self.player_id!r} has no activity rows", self.player_id)
        days = [r.day_index for r in rows]
        if any(b <= a for a, b in zip(days, days[1:])):
            raise LogValidationError(
                f"player {self.player_id!r} has unsorted or duplicate day rows",
                self.player_id)
        if self.registration_day > days[0]:
            raise LogValidationError(
                f"player {self.player_id!r} active before registration",
                self.player_id)
        levels = [r.level for r in rows]
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise LogValidationError(
                f"player {self.player_id!r} has a decreasing level", self.player_id)

    @property
    def last_day(self) -> int:
        return self.rows[-1].day_index

    def first_purchase_row(self) -> PlayerRow | None:
        for row in self.rows:
            if row.purchases > 0:
                return row
        return None


@dataclass(frozen=True)
class FeatureSpec:
    """Names of the engineered features plus the cutoff policy.

    The cutoff is always the subject's own event/censoring day (growing
    window); ``features`` selects and orders the engineered columns.
    """

    features: tuple[str, ...] = MODEL_FEATURES

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        unknown = [f for f in self.features if f not in FEATURE_NAMES]
        if unknown:
            raise ValueError(f"unknown features: {unknown}")

    def spec_hash(self) -> str:
        payload = json.dumps({"features": list(self.features),
                              "cutoff": "pre-event"}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _parse_int(raw: str, column: str, line: int, minimum: int = 0) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise LogParseError(
            f"line {line}: column {column!r} is not an integer: {raw!r}", line
        ) from None
    if value < minimum:
        raise LogParseError(
            f"line {line}: column {column!r} must be >= {minimum}, got {value}", line)
    return value


def _parse_float(raw: str, column: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise LogParseError(
            f"line {line}: column {column!r} is not a number: {raw!r}", line
        ) from None
    if not math.isfinite(value) or value < 0:
        raise LogParseError(
            f"line {line}: column {column!r} must be finite and >= 0", line)
    return value


def ingest_logs(path) -> list[PlayerLog]:
    """Parse and validate a player-log CSV.

    Malformed rows raise LogParseError with the 1-based line number;
    structural violations (decreasing level, duplicate days) raise
    LogValidationError naming the player. A header-only file yields [].
    """
    per_player: dict[str, list[PlayerRow]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LogParseError("empty file: missing header", 1) from None
        if [h.strip() for h in header] != EXPECTED_HEADER:
            raise LogParseError(
                f"line 1: expected header {','.join(EXPECTED_HEADER)}", 1)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(EXPECTED_HEADER):
                raise LogParseError(
                    f"line {line_no}: expected {len(EXPECTED_HEADER)} columns, "
                    f"got {len(row)}", line_no)
            pid = row[0].strip()
            if not pid:
                raise LogParseError(f"line {line_no}: empty player_id", line_no)
            parsed = PlayerRow(
                day_index=_parse_int(row[1], "day_index", line_no),
                playtime_hours=_parse_float(row[2], "playtime_hours", line_no),
                level=_parse_int(row[3], "level", line_no, minimum=1),
                sessions=_parse_int(row[4], "sessions", line_no),
                actions=_parse_int(row[5], "actions", line_no),
                purchases=_parse_int(row[6], "purchases", line_no),
            )
            per_player.setdefault(pid, []).append(parsed)

    logs = []
    for pid, rows in per_player.items():
        rows.sort(key=lambda r: r.day_index)
        days = [r.day_index for r in rows]
        if len(set(days)) != len(days):
            raise LogValidationError(
                f"player {pid!r} has duplicate day_index rows", pid)
        logs.append(PlayerLog(pid, rows[0].day_index, tuple(rows)))
    return logs


def filter_newcomers(logs: list[PlayerLog]) -> list[PlayerLog]:
    """Keep only players active on at least two distinct days."""
    return [log for log in logs if len(log.rows) >= 2]


def engineer_features(log: PlayerLog, cutoff: int,
                      spec: FeatureSpec = FeatureSpec(features=FEATURE_NAMES)
                      ) -> np.ndarray:
    """Static covariates from rows strictly before day ``cutoff``.

    Defaults to the full aggregation set; pass a FeatureSpec to select.
    With no pre-cutoff activity the vector defaults to zeros with level 1.
    Std features use the n < 2 convention of 0.
    """
    rows = [r for r in log.rows if r.day_index < cutoff]
    values = dict.fromkeys(FEATURE_NAMES, 0.0)
    values["current_level"] = 1.0
    if rows:
        playtimes = [r.playtime_hours for r in rows]
        n = len(rows)
        mean_play = sum(playtimes) / n
        values["mean_daily_playtime"] = mean_play
        values["max_daily_playtime"] = max(playtimes)
        if n >= 2:
            values["std_daily_playtime"] = math.sqrt(
                sum((p - mean_play) ** 2 for p in playtimes) / n)
        total_sessions = sum(r.sessions for r in rows)
        values["total_sessions"] = float(total_sessions)
        if total_sessions > 0:
            values["mean_actions_per_session"] = (
                sum(r.actions for r in rows) / total_sessions)
        elapsed = cutoff - log.registration_day
        values["active_day_ratio"] = n / elapsed if elapsed > 0 else 0.0
        values["current_level"] = float(rows[-1].level)
        values["level_velocity"] = (rows[-1].level - rows[0].level) / n
        values["days_since_registration"] = float(
            rows[-1].day_index - log.registration_day)
    return np.array([values[f] for f in spec.features], dtype=float)


def _event_values(log: PlayerLog, row: PlayerRow) -> dict[TimeAxis, float]:
    cum_playtime = sum(
        r.playtime_hours for r in log.rows if r.day_index <= row.day_index)
    return {
        TimeAxis.LIFETIME: float(row.day_index - log.registration_day),
        TimeAxis.LEVEL: float(row.level),
        TimeAxis.PLAYTIME: cum_playtime,
    }


def build_dataset(logs: list[PlayerLog], axis: TimeAxis, competing: bool = False,
                  spec: FeatureSpec | None = None, *,
                  churn_window: int = DEFAULT_CHURN_WINDOW,
                  data_end: int | None = None) -> SurvivalDataset:
    """Label each player and engineer covariates on the chosen axis.

    A player with a purchase converts at the first purchase day, measured
    as lifetime days, level at purchase, or cumulative hours. Without a
    purchase the player is censored at the last observed values, or (when
    ``competing`` and inactive for at least ``churn_window`` days before
    ``data_end``) churned at the last-activity values. Covariates use only
    pre-event activity.
    """
    axis = TimeAxis(axis)
    if spec is None:
        spec = FeatureSpec()
    if data_end is None:
        data_end = max((log.last_day for log in logs), default=0)
    records = []
    for log in logs:
        purchase = log.first_purchase_row()
        if purchase is not None:
            status = EventStatus.CONVERTED
            event_row = purchase
        else:
            event_row = log.rows[-1]
            inactive = data_end - event_row.day_index
            if competing and inactive >= churn_window:
                status = EventStatus.CHURNED
            else:
                status = EventStatus.CENSORED
        time = _event_values(log, event_row)[axis]
        covariates = engineer_features(log, event_row.day_index, spec)
        records.append(SurvivalRecord(
            log.player_id, time, status, tuple(covariates)))
    return SurvivalDataset(tuple(records), spec.features, axis, competing)
