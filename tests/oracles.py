"""Independent brute-force reference implementations for the estimators.

Everything here evaluates the defining formulas directly with fresh counts
per time point (no risk tables, no cumulative tricks, no code shared with
the library), deliberately O(n^2), so library bugs cannot cancel out. The
log-pipeline reference at the end shares only the exception types.
"""

import csv
import math
from collections import namedtuple

import numpy as np

from convsurv.errors import LogParseError, LogValidationError


def _distinct_event_times(times, event_mask):
    return sorted(set(float(t) for t, e in zip(times, event_mask) if e))


def km_survival_at(times, event_mask, t):
    """Product-limit survival: prod over event times s <= t of (1 - d/Q)."""
    prod = 1.0
    for s in _distinct_event_times(times, event_mask):
        if s > t:
            break
        d = sum(1 for ti, e in zip(times, event_mask) if e and ti == s)
        q = sum(1 for ti in times if ti >= s)
        prod *= 1.0 - d / q
    return prod


def na_cumhaz_at(times, event_mask, t):
    """Cumulative hazard: sum over event times s <= t of d/Q."""
    total = 0.0
    for s in _distinct_event_times(times, event_mask):
        if s > t:
            break
        d = sum(1 for ti, e in zip(times, event_mask) if e and ti == s)
        q = sum(1 for ti in times if ti >= s)
        total += d / q
    return total


def cif_at(times, statuses, cause, t):
    """Cumulative incidence: sum over event times s <= t of S(s-) d_j/Q.

    ``statuses`` are integer codes (0 censored); ``cause`` the event code
    of interest; S(s-) is the all-cause product-limit just before s.
    """
    any_event = [st != 0 for st in statuses]
    total = 0.0
    for s in _distinct_event_times(times, any_event):
        if s > t:
            break
        surv_before = 1.0
        for u in _distinct_event_times(times, any_event):
            if u >= s:
                break
            d_all = sum(1 for ti, st in zip(times, statuses) if st != 0 and ti == u)
            q_u = sum(1 for ti in times if ti >= u)
            surv_before *= 1.0 - d_all / q_u
        d_cause = sum(1 for ti, st in zip(times, statuses)
                      if st == cause and ti == s)
        q = sum(1 for ti in times if ti >= s)
        total += surv_before * d_cause / q
    return total


def cox_partial_loglik(beta, times, event_mask, x):
    """Breslow partial log-likelihood, direct double loop."""
    n = len(times)
    loglik = 0.0
    for s in _distinct_event_times(times, event_mask):
        d = 0
        eta_sum = 0.0
        for i in range(n):
            if event_mask[i] and times[i] == s:
                d += 1
                eta_sum += float(np.dot(beta, x[i]))
        risk = sum(math.exp(float(np.dot(beta, x[i])))
                   for i in range(n) if times[i] >= s)
        loglik += eta_sum - d * math.log(risk)
    return loglik


def grid_partial_loglik(grid, times, event_mask, x_col):
    """Single-covariate partial log-likelihood on a coefficient grid.

    Vectorized over the grid but assembled straight from the formula:
    sum over event times of (sum of events' beta*x minus d * log of the
    risk-set sum of exp(beta*x)).
    """
    grid = np.asarray(grid, dtype=float)
    out = np.zeros(grid.size)
    for s in _distinct_event_times(times, event_mask):
        at_t = [i for i in range(len(times)) if event_mask[i] and times[i] == s]
        risk = [i for i in range(len(times)) if times[i] >= s]
        s_x = sum(x_col[i] for i in at_t)
        eta = np.outer(grid, [x_col[i] for i in risk])
        out += grid * s_x - len(at_t) * np.log(np.exp(eta).sum(axis=1))
    return out


# ---------------------------------------------------------------------------
# Row-wise reference for the log pipeline: the per-player ingest, labelling
# and feature code that the columnar pipeline replaced, kept as it was
# written. Logs are (player_id, registration_day, rows) with rows sorted by
# day; datasets are (ids, times, status codes, covariate rows).

REFERENCE_HEADER = ["player_id", "day_index", "playtime_hours", "level",
                    "sessions", "actions", "purchases"]
REFERENCE_FEATURES = (
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

Row = namedtuple("Row", "day_index playtime_hours level sessions actions purchases")


def _parse_int(raw, column, line, minimum=0):
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


def _parse_float(raw, column, line):
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


def reference_ingest(path):
    per_player = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LogParseError("empty file: missing header", 1) from None
        if [h.strip() for h in header] != REFERENCE_HEADER:
            raise LogParseError(
                f"line 1: expected header {','.join(REFERENCE_HEADER)}", 1)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(REFERENCE_HEADER):
                raise LogParseError(
                    f"line {line_no}: expected {len(REFERENCE_HEADER)} columns, "
                    f"got {len(row)}", line_no)
            pid = row[0].strip()
            if not pid:
                raise LogParseError(f"line {line_no}: empty player_id", line_no)
            parsed = Row(
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
        levels = [r.level for r in rows]
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise LogValidationError(f"player {pid!r} has a decreasing level", pid)
        logs.append((pid, rows[0].day_index, tuple(rows)))
    return logs


def reference_features(rows, registration_day, cutoff):
    """All nine features, in REFERENCE_FEATURES order."""
    rows = [r for r in rows if r.day_index < cutoff]
    values = dict.fromkeys(REFERENCE_FEATURES, 0.0)
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
        elapsed = cutoff - registration_day
        values["active_day_ratio"] = n / elapsed if elapsed > 0 else 0.0
        values["current_level"] = float(rows[-1].level)
        values["level_velocity"] = (rows[-1].level - rows[0].level) / n
        values["days_since_registration"] = float(
            rows[-1].day_index - registration_day)
    return [values[f] for f in REFERENCE_FEATURES]


def reference_dataset(logs, axis, competing, features, churn_window, data_end=None):
    """Label and featurize (player_id, registration_day, rows) logs.

    ``axis`` is "lifetime", "level" or "playtime"; status codes are
    0 censored, 1 converted, 2 churned.
    """
    if data_end is None:
        data_end = max((rows[-1].day_index for _, _, rows in logs), default=0)
    ids, times, status, covariates = [], [], [], []
    for pid, registration_day, rows in logs:
        purchase = next((r for r in rows if r.purchases > 0), None)
        if purchase is not None:
            code = 1
            event_row = purchase
        else:
            event_row = rows[-1]
            inactive = data_end - event_row.day_index
            code = 2 if competing and inactive >= churn_window else 0
        time = {
            "lifetime": float(event_row.day_index - registration_day),
            "level": float(event_row.level),
            "playtime": sum(r.playtime_hours for r in rows
                            if r.day_index <= event_row.day_index),
        }[axis]
        values = dict(zip(REFERENCE_FEATURES, reference_features(
            rows, registration_day, event_row.day_index)))
        ids.append(pid)
        times.append(float(time))
        status.append(code)
        covariates.append([values[f] for f in features])
    return ids, times, status, covariates
