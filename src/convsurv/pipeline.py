"""Raw player-log ingestion and feature engineering.

Input CSV schema (header required, UTF-8, comma-separated, fields may be
quoted):

    player_id,day_index,playtime_hours,level,sessions,actions,purchases

One row per player per active day. Levels are non-decreasing within a
player; day indices are unique per player. Numbers are ASCII without
``_``, as ``int()`` (fitting int64) and ``float()`` then read them. No
field may hold a ``"``, a line break or ``\x1c``-``\x1f`` once unquoted.

Feature engineering uses a growing window that ends strictly before the
subject's event (or censoring) day, so no feature can read activity at or
after the event: recomputing features after deleting post-event rows is a
bitwise no-op.

A cohort is held as columns (``PlayerLogs``): ingest streams the CSV into
arrays through ``np.loadtxt`` one chunk of lines at a time, and labels and
features are computed for every player at once.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import NamedTuple, NoReturn

import numpy as np

from .core import EventStatus, SurvivalDataset, TimeAxis
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

# Lines read per chunk: ingest holds one chunk of strings at a time. Small
# enough that a chunk's strings die young, before the garbage collector's
# older generations have to scan them.
_BLOCK_ROWS = 1 << 10
_INT64_MAX = int(np.iinfo(np.int64).max)
# Integers below 2**53 convert to float64 exactly, so numpy's float division
# of them rounds like Python's int / int.
_EXACT_INT = 1 << 53


class PlayerRow(NamedTuple):
    day_index: int
    playtime_hours: float
    level: int
    sessions: int
    actions: int
    purchases: int


# The rule of each numeric field, in PlayerRow order: (column, dtype, lowest
# value). A playtime must also be finite.
_FIELDS = (("day_index", np.int64, 0), ("playtime_hours", np.float64, 0),
           ("level", np.int64, 1), ("sessions", np.int64, 0),
           ("actions", np.int64, 0), ("purchases", np.int64, 0))
_COLUMNS = tuple(column for column, _, _ in _FIELDS)
_DTYPES = tuple(dtype for _, dtype, _ in _FIELDS)
# A record as np.loadtxt reads it: the player id as a str (a fixed-width
# string dtype would cut long ids), then the numeric fields.
_RECORD = np.dtype([("player_id", object)] + list(zip(_COLUMNS, _DTYPES)))
# What no field may hold once csv has unquoted it, so that each record is
# one line; numpy's number parsers would skip the separators \x1c-\x1f.
_SEPARATORS = "\x1c\x1d\x1e\x1f"
_NOT_IN_FIELDS = '"\r\n' + _SEPARATORS
_BLANK = ("\n", "\r\n", "\r")  # the lines csv and numpy skip
# Lines no longer than this hold no field past csv's limit (131072 by
# default) and no integer int() refuses as too long (640 digits at least).
_SHORT_LINE = 640


@dataclass(frozen=True)
class PlayerLog:
    """Daily activity rows for one player, a plain record.

    A ``PlayerLogs`` table checks the rows: sorted by day, unique per day,
    none before registration, levels non-decreasing.
    """

    player_id: str
    registration_day: int
    rows: tuple[PlayerRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def first_purchase_row(self) -> PlayerRow | None:
        for row in self.rows:
            if row.purchases > 0:
                return row
        return None


@dataclass(frozen=True, eq=False)
class PlayerLogs(Sequence):
    """A cohort's logs as columns, one array per ``PlayerRow`` field.

    Player ``i`` owns rows ``offsets[i]:offsets[i + 1]`` of every column,
    sorted by day. As a read-only sequence of ``PlayerLog`` it builds one
    player's log on demand.

    Construction is the one log check. The first offending player in table
    order raises LogValidationError, for the first of its faults in this
    order: no rows, a duplicate day, unsorted days, activity before
    registration, a decreasing level.
    """

    ids: tuple[str, ...]
    registration: np.ndarray  # per player
    offsets: np.ndarray  # per player, plus the row count
    day_index: np.ndarray
    playtime_hours: np.ndarray
    level: np.ndarray
    sessions: np.ndarray
    actions: np.ndarray
    purchases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        for name in ("registration", "offsets") + _COLUMNS:
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        counts = self.row_counts
        owner = np.repeat(np.arange(len(self)), counts)
        same = owner[1:] == owner[:-1]
        day, level = self.day_index, self.level
        has_rows = np.flatnonzero(counts)
        faults = (
            ("has no activity rows", np.flatnonzero(counts == 0)),
            ("has duplicate day_index rows", owner[1:][same & (day[1:] == day[:-1])]),
            ("has unsorted or duplicate day rows",
             owner[1:][same & (day[1:] < day[:-1])]),
            ("active before registration",
             has_rows[self.registration[has_rows] > day[self.offsets[has_rows]]]),
            ("has a decreasing level", owner[1:][same & (level[1:] < level[:-1])]),
        )
        first = [int(players.min(initial=len(self))) for _, players in faults]
        player = min(first)
        if player < len(self):
            pid = self.ids[player]
            raise LogValidationError(
                f"player {pid!r} {faults[first.index(player)][0]}", pid)

    @classmethod
    def from_logs(cls, logs) -> "PlayerLogs":
        """The table of a sequence of ``PlayerLog``; a table is returned as is."""
        if isinstance(logs, PlayerLogs):
            return logs
        logs = list(logs)
        rows = [row for log in logs for row in log.rows]
        columns = list(zip(*rows)) or [()] * len(_COLUMNS)
        return cls(tuple(log.player_id for log in logs),
                   np.array([log.registration_day for log in logs], dtype=np.int64),
                   np.cumsum([0] + [len(log.rows) for log in logs], dtype=np.int64),
                   *(np.array(c, dtype=t) for c, t in zip(columns, _DTYPES)))

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    @property
    def row_counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int | slice) -> PlayerLog | PlayerLogs:
        if isinstance(i, slice):
            return self.take(i)
        i = range(len(self.ids))[i]
        lo, hi = self.offsets[i], self.offsets[i + 1]
        rows = tuple(map(PlayerRow, *(c[lo:hi].tolist() for c in self.columns)))
        return PlayerLog(self.ids[i], int(self.registration[i]), rows)

    def take(self, players) -> "PlayerLogs":
        """The sub-table of ``players`` (indices or a boolean mask), in order."""
        players = np.arange(len(self))[players]
        counts = self.row_counts[players]
        offsets = np.cumsum(np.concatenate(([0], counts)), dtype=np.int64)
        rows = (np.repeat(self.offsets[players] - offsets[:-1], counts)
                + np.arange(offsets[-1]))
        return PlayerLogs(tuple(self.ids[i] for i in players.tolist()),
                          self.registration[players], offsets,
                          *(c[rows] for c in self.columns))


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


def _undecodable(cells) -> bool:
    """Whether ``cells`` hold a byte that is not UTF-8.

    Ingest decodes with errors="surrogateescape", which reads each such
    byte as a lone surrogate that no UTF-8 text decodes to.
    """
    return re.search("[\udc80-\udcff]", "".join(cells)) is not None


def _check_row(row: list[str], line: int) -> None:
    """Raise the LogParseError of one record, checking fields left to right."""
    def error(message: str) -> LogParseError:
        return LogParseError(f"line {line}: {message}", line)

    if _undecodable(row):
        raise error("file is not UTF-8 text")
    if len(row) != len(EXPECTED_HEADER):
        raise error(f"expected {len(EXPECTED_HEADER)} columns, got {len(row)}")
    if any(c in row[0] for c in _NOT_IN_FIELDS):
        raise error(f"player_id holds a quote, line break or \\x1c-\\x1f: {row[0]!r}")
    if not row[0].strip():
        raise error("empty player_id")
    for (column, dtype, lowest), raw in zip(_FIELDS, row[1:]):
        real = dtype is np.float64
        try:
            if not raw.isascii() or "_" in raw or any(c in raw for c in _NOT_IN_FIELDS):
                raise ValueError
            value = float(raw) if real else int(raw)
        except ValueError:
            what = "a number" if real else "an integer"
            raise error(f"column {column!r} is not {what}: {raw!r}") from None
        if real and not (math.isfinite(value) and value >= lowest):
            raise error(f"column {column!r} must be finite and >= {lowest}")
        if not real and value < lowest:
            raise error(f"column {column!r} must be >= {lowest}, got {value}")
        if not real and value > _INT64_MAX:
            raise error(f"column {column!r} exceeds the int64 maximum {_INT64_MAX}: {raw!r}")


def _empty_block() -> tuple:
    return tuple(np.empty(0, dtype=t) for t in (np.int64,) + _DTYPES)


def _loadtxt_block(lines: list[str], index: dict[str, int]) -> tuple | None:
    """Player codes and typed columns of ``lines``, read by ``np.loadtxt``,
    or None if a record among them, or one running on from them, is bad.

    numpy splits and unquotes fields, and skips blank lines, as csv does.
    But it keeps the spaces around an id, skips ``_SEPARATORS`` around a
    number, reads some non-ASCII characters as digits (U+01FE as 462),
    closes a quote left open at the end of its input, and has neither
    csv's field limit nor int()'s digit limit. So the answer is None on a
    ValueError, OverflowError or DeprecationWarning; one of
    ``_SEPARATORS``, or a non-ASCII character in a line's last six fields;
    a long line the row checks refuse; a value below its minimum or not
    finite; a run-head id that is empty once stripped, not UTF-8 or holds a
    ``"``; fewer records than non-blank lines; or an odd ``"`` count in the
    last non-blank line when it ends in a line break (without one it ends
    the file, where csv closes the quote too). Once no field holds a ``"``,
    each ``"`` opens or closes a quoted field, so those last two mean some
    line ends inside quotes: otherwise each line is one csv record. Ids are
    numbered in ``index`` only once every check has passed.
    """
    text = "".join(lines)
    if not text.strip("\r\n"):  # blank lines only: loadtxt would warn, find no rows
        return _empty_block()
    if (any(c in text for c in _SEPARATORS)
            or not (text.isascii()
                    or all("".join(line.rsplit(",", 6)[1:]).isascii() for line in lines))):
        return None
    try:
        if max(map(len, lines)) > _SHORT_LINE:
            for row in csv.reader(line for line in lines if len(line) > _SHORT_LINE):
                _check_row(row, 0)
        # numpy 1.23 to 1.26 reads ``1.5`` into an int column with only a
        # DeprecationWarning; raised as an error it declines the lines, as a
        # ValueError does.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines, dtype=_RECORD, delimiter=",", comments=None,
                               quotechar='"', ndmin=1)
    except (ValueError, OverflowError, DeprecationWarning, csv.Error, LogParseError):
        return None
    # copies, so that the chunk's id strings are freed with ``table``
    columns = [table[column].copy() for column in _COLUMNS]
    ids = table["player_id"]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    heads = [pid.strip() for pid in ids[starts].tolist()]
    last = next(line for line in reversed(lines) if line not in _BLANK)
    if (not all(np.all(np.isfinite(c) & (c >= lowest))
                for c, (_, _, lowest) in zip(columns, _FIELDS))
            or not all(heads) or _undecodable(heads) or '"' in "".join(heads)
            or len(ids) != len(lines) - sum(map(lines.count, _BLANK))
            or last.count('"') % 2 and last.endswith(_BLANK)):
        return None
    codes = [index.setdefault(pid, len(index)) for pid in heads]
    return np.repeat(np.array(codes, dtype=np.int64),
                     np.diff(starts, append=len(ids))), *columns


def _raise_first_error(records, line: int) -> NoReturn:
    """Raise the error of the first bad csv record in ``records`` from line ``line``."""
    try:
        for row in records:
            if row:
                _check_row(row, line)
            line += 1
    except csv.Error as exc:
        raise LogParseError(f"line {line}: {exc}", line) from None
    raise AssertionError("np.loadtxt declined records that hold no fault")


def ingest_logs(path) -> PlayerLogs:
    """Parse and validate a player-log CSV.

    Malformed rows raise LogParseError with the 1-based line number;
    structural violations (decreasing level, duplicate days) raise
    LogValidationError naming the player. A header-only file yields an
    empty table.

    After the header check, ``np.loadtxt`` reads the records in one pass,
    ``_BLOCK_ROWS`` lines at a time, so memory holds one chunk of strings
    plus the typed columns. numpy declines a chunk only if a record in it,
    or one running on from it, is bad (see ``_loadtxt_block``): from that
    chunk's first line, csv reads records and the row checks raise the
    first bad one's error. A record holding a byte that is not UTF-8 fails
    as ``line N: file is not UTF-8 text``. Line numbers count csv records,
    blank ones included.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise LogParseError("empty file: missing header", 1) from None
        except csv.Error as exc:  # e.g. an unclosed quote swallowing the file
            raise LogParseError(f"line 1: {exc}", 1) from None
        if [h.strip() for h in header] != EXPECTED_HEADER:
            message = ("file is not UTF-8 text" if _undecodable(header)
                       else f"expected header {','.join(EXPECTED_HEADER)}")
            raise LogParseError(f"line 1: {message}", 1)
        index: dict[str, int] = {}
        blocks = []
        line = 2
        while lines := list(islice(fh, _BLOCK_ROWS)):
            block = _loadtxt_block(lines, index)
            if block is None:
                _raise_first_error(csv.reader(chain(lines, fh)), line)
            blocks.append(block)
            line += len(lines)
    return _sorted_logs(tuple(index), blocks)


def _sorted_logs(ids: tuple[str, ...], blocks: list[tuple]) -> PlayerLogs:
    """The table of parsed blocks, each player's rows sorted by day.

    The table's check names the first player in file order with a
    duplicate day or a decreasing level.
    """
    code, *columns = (np.concatenate(parts)
                      for parts in zip(_empty_block(), *blocks))
    order = np.lexsort((columns[0], code))
    code = code[order]
    columns = [c[order] for c in columns]
    offsets = np.searchsorted(code, np.arange(len(ids) + 1))
    return PlayerLogs(ids, columns[0][offsets[:-1]], offsets, *columns)


def filter_newcomers(logs) -> PlayerLogs:
    """Keep only players active on at least two distinct days."""
    logs = PlayerLogs.from_logs(logs)
    return logs.take(logs.row_counts >= 2)


def _fold_rows(values: np.ndarray, starts: np.ndarray, n: np.ndarray,
               step, initial: float) -> np.ndarray:
    """Fold each player's first ``n`` rows left to right, ``acc = step(acc, row)``.

    One vectorized step per row position, so float sums accumulate in the
    order of Python's ``sum``. A sum past the float range becomes inf
    quietly: build_dataset reports the player.
    """
    acc = np.full(n.size, initial)
    with np.errstate(over="ignore"):
        for k in range(n.max(initial=0)):
            live = n > k
            acc[live] = step(acc[live], values[starts[live] + k])
    return acc


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` where ``den > 0``, else 0.0, as floats."""
    positive = den > 0
    return np.where(positive, num / np.where(positive, den, 1), 0.0).astype(float)


def _window_features(logs: PlayerLogs, cutoff: np.ndarray) -> tuple[dict, np.ndarray]:
    """Every feature of each player's rows strictly before its ``cutoff``.

    Returns ({feature name: per-player values}, per-player window playtime
    sums). Equal bit for bit to the row-wise definition: float sums run
    left to right like Python's ``sum``, squares use libm ``pow`` like
    ``x ** 2``, and integer totals and ratios are exact.
    """
    starts = logs.offsets[:-1]
    owner = np.repeat(np.arange(len(logs)), logs.row_counts)
    in_window = logs.day_index < cutoff[owner]
    n = np.bincount(owner[in_window], minlength=len(logs))
    seen = n > 0
    first, last = starts, starts + np.maximum(n, 1) - 1
    ints = [logs.day_index, logs.level, logs.sessions, logs.actions,
            logs.registration, n] + ([cutoff] if cutoff.dtype.kind == "i" else [])
    wide = any(max(-int(a.min(initial=0)), int(a.max(initial=0))) * max(a.size, 1)
               >= _EXACT_INT for a in ints)

    def exact(a: np.ndarray) -> np.ndarray:
        """``a`` as Python ints where int64 totals could overflow or round."""
        return a.astype(object) if wide and a.dtype.kind == "i" else a

    day, level, registration, n_exact = (
        exact(a) for a in (logs.day_index, logs.level, logs.registration, n))

    def window_total(column: np.ndarray) -> np.ndarray:
        total = np.concatenate(([0], np.cumsum(exact(column))))
        return total[starts + n] - total[starts]

    playtime = logs.playtime_hours
    play_sum = _fold_rows(playtime, starts, n, np.add, 0.0)
    play_max = _fold_rows(playtime, starts, n,
                          lambda acc, v: np.where(v > acc, v, acc), -np.inf)
    mean = _ratio(play_sum, n)
    deviation = (playtime - mean[owner])[in_window]
    # pow raises OverflowError past the float maximum; an infinite square
    # instead lets build_dataset name the player
    deviation[np.abs(deviation) >= 2.0 ** 512] = np.inf
    squares = np.zeros(playtime.size)
    squares[in_window] = np.fromiter(map(math.pow, deviation.tolist(), repeat(2.0)),
                                     np.float64, deviation.size)
    sessions = window_total(logs.sessions)
    elapsed = exact(cutoff) - registration
    values = {
        "mean_daily_playtime": mean,
        "max_daily_playtime": np.where(seen, play_max, 0.0),
        "std_daily_playtime": np.where(
            n >= 2, np.sqrt(_ratio(_fold_rows(squares, starts, n, np.add, 0.0), n)),
            0.0),
        "total_sessions": sessions.astype(float),
        "mean_actions_per_session": _ratio(window_total(logs.actions), sessions),
        "active_day_ratio": _ratio(n_exact, np.where(seen, elapsed, 0)),
        "current_level": np.where(seen, level[last], 1).astype(float),
        "level_velocity": _ratio(level[last] - level[first], n_exact),
        "days_since_registration": np.where(
            seen, day[last] - registration, 0).astype(float),
    }
    return values, play_sum


def engineer_features(log: PlayerLog, cutoff: int,
                      spec: FeatureSpec = FeatureSpec(features=FEATURE_NAMES)
                      ) -> np.ndarray:
    """Static covariates from rows strictly before day ``cutoff``.

    Defaults to the full aggregation set; pass a FeatureSpec to select.
    With no pre-cutoff activity the vector defaults to zeros with level 1.
    Std features use the n < 2 convention of 0.
    """
    values, _ = _window_features(PlayerLogs.from_logs([log]), np.array([cutoff]))
    return np.array([values[f][0] for f in spec.features], dtype=float)


def build_dataset(logs, axis: TimeAxis, competing: bool = False,
                  spec: FeatureSpec | None = None, *,
                  churn_window: int = DEFAULT_CHURN_WINDOW,
                  data_end: int | None = None) -> SurvivalDataset:
    """Label each player and engineer covariates on the chosen axis.

    A player with a purchase converts at the first purchase day, measured
    as lifetime days, level at purchase, or cumulative hours. Without a
    purchase the player is censored at the last observed values, or (when
    ``competing`` and inactive for at least ``churn_window`` days before
    ``data_end``) churned at the last-activity values. Covariates use only
    pre-event activity. ``logs`` is a ``PlayerLogs`` table or a sequence
    of ``PlayerLog``.
    """
    axis = TimeAxis(axis)
    if spec is None:
        spec = FeatureSpec()
    logs = PlayerLogs.from_logs(logs)
    day = logs.day_index
    last_row = logs.offsets[1:] - 1
    if data_end is None:
        data_end = int(day[last_row].max(initial=0))
    event_row = last_row.copy()
    bought = np.flatnonzero(logs.purchases > 0)
    buyers, first_buy = np.unique(
        np.searchsorted(logs.offsets, bought, side="right") - 1, return_index=True)
    event_row[buyers] = bought[first_buy]
    status = np.full(len(logs), int(EventStatus.CENSORED))
    if competing:
        status[data_end - day[last_row] >= churn_window] = int(EventStatus.CHURNED)
    status[buyers] = int(EventStatus.CONVERTED)
    values, play_sum = _window_features(logs, day[event_row])
    if axis == TimeAxis.LIFETIME:
        times = (day[event_row] - logs.registration).astype(float)
    elif axis == TimeAxis.LEVEL:
        times = logs.level[event_row].astype(float)
    else:
        with np.errstate(over="ignore"):
            times = play_sum + logs.playtime_hours[event_row]
    covariates = np.column_stack(
        [values[f] for f in spec.features] or [np.empty((len(logs), 0))])
    overflow = ~(np.isfinite(times) & np.isfinite(covariates).all(axis=1))
    if overflow.any():
        pid = logs.ids[int(np.argmax(overflow))]
        raise LogValidationError(
            f"player {pid!r}: playtime_hours sum or square overflows the float range",
            pid)
    return SurvivalDataset(logs.ids, times, status, covariates, spec.features,
                           axis, competing)
