"""Independent brute-force reference implementations for the estimators.

Everything here evaluates the defining formulas directly with fresh counts
per time point (no risk tables, no cumulative tricks, no code shared with
the library), deliberately O(n^2), so library bugs cannot cancel out. The
record-based dataset reference shares ``SurvivalRecord`` and the exception
types; the log-pipeline reference shares only the exception types and
states the input rule itself. The record-by-record ingest reference
shares the row checks and the table types: it judges the np.loadtxt
pass, not the input rule. The split-rule reference is the per-feature tree-growth code that the
per-node hoist replaced, on float columns as before rank codes; it shares
the forest's bin-count and permutation-test helpers. The routing reference
at the end is the level walk the child-table route replaced.
"""

import csv
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from convsurv.core import EventStatus, SurvivalRecord, TimeAxis
from convsurv.errors import (
    EmptyInputError,
    LogParseError,
    LogValidationError,
    ShapeMismatchError,
    StratificationError,
)
from convsurv.forest import _bin_matrix, _feature_pvalues, _score_moments
from convsurv.pipeline import PlayerLog, PlayerLogs, PlayerRow, _check_row


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
# Record-based reference for the dataset container: the SurvivalDataset and
# stratified split that the columnar dataset replaced, kept as they were
# written. Records are the library's SurvivalRecord, which keeps its checks.

@dataclass(frozen=True)
class ReferenceDataset:
    records: tuple
    feature_names: tuple
    axis: TimeAxis
    competing_risks: bool = False

    def __post_init__(self):
        records = tuple(self.records)
        names = tuple(self.feature_names)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "axis", TimeAxis(self.axis))
        p = len(names)
        seen = set()
        for r in records:
            if len(r.covariates) != p:
                raise ShapeMismatchError(
                    f"record {r.subject_id!r} has {len(r.covariates)} covariates, expected {p}"
                )
            if r.subject_id in seen:
                raise ValueError(f"duplicate subject_id {r.subject_id!r}")
            seen.add(r.subject_id)
            if not self.competing_risks and r.status == EventStatus.CHURNED:
                raise ValueError(
                    f"record {r.subject_id!r} is CHURNED in a single-risk dataset"
                )

    def __len__(self):
        return len(self.records)

    @property
    def times(self):
        arr = np.asarray([r.time for r in self.records], dtype=float)
        arr.setflags(write=False)
        return arr

    @property
    def status_codes(self):
        arr = np.asarray([int(r.status) for r in self.records], dtype=np.int8)
        arr.setflags(write=False)
        return arr

    @property
    def covariate_matrix(self):
        if not self.records:
            arr = np.empty((0, len(self.feature_names)), dtype=float)
        else:
            arr = np.asarray([r.covariates for r in self.records], dtype=float)
        arr.setflags(write=False)
        return arr

    def n_events(self, status=EventStatus.CONVERTED):
        return int(np.sum(self.status_codes == int(status)))

    def recode_competing_as_censored(self):
        if not self.competing_risks:
            return self
        recoded = tuple(
            SurvivalRecord(r.subject_id, r.time, EventStatus.CENSORED, r.covariates)
            if r.status == EventStatus.CHURNED
            else r
            for r in self.records
        )
        return ReferenceDataset(recoded, self.feature_names, self.axis, False)

    def subset(self, indices):
        recs = tuple(self.records[i] for i in indices)
        return ReferenceDataset(recs, self.feature_names, self.axis, self.competing_risks)


def reference_split(data, spec):
    """Converter-stratified (train, test) of a ReferenceDataset."""
    n = len(data)
    if n == 0:
        raise EmptyInputError("cannot split an empty dataset")
    conv_mask = data.status_codes == int(EventStatus.CONVERTED)
    rng = np.random.default_rng(spec.seed)
    conv_idx = np.nonzero(conv_mask)[0]
    other_idx = np.nonzero(~conv_mask)[0]
    if conv_idx.size == 0 or other_idx.size == 0:
        raise StratificationError(
            "stratified split needs at least one converter and one non-converter")
    groups = [conv_idx, other_idx]
    train_idx = []
    for group in groups:
        perm = rng.permutation(group)
        train_idx.extend(perm[:int(math.floor(group.size * spec.train_fraction + 0.5))])
    train_set = set(train_idx)
    train = data.subset(sorted(train_set))
    test = data.subset([i for i in range(n) if i not in train_set])
    return train, test


# ---------------------------------------------------------------------------
# Row-wise reference for the log pipeline: the per-player ingest, log
# checks, labelling and feature code that the columnar pipeline replaced,
# kept as it was written except for the log check's split day-order
# message. Logs are (player_id, registration_day, rows) with rows sorted by
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


# What no field may hold once csv has unquoted it.
_BANNED = '"\r\n\x1c\x1d\x1e\x1f'


def _plain_number(raw):
    """Refuse what int() and float() read but the input rule does not:
    non-ASCII text, ``_`` and the banned characters."""
    if not raw.isascii() or "_" in raw or any(c in raw for c in _BANNED):
        raise ValueError(raw)
    return raw


def _parse_int(raw, column, line, minimum=0):
    try:
        value = int(_plain_number(raw))
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
        value = float(_plain_number(raw))
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
            if any(c in row[0] for c in _BANNED):
                raise LogParseError(
                    f"line {line_no}: player_id holds a quote, line break or "
                    f"\\x1c-\\x1f: {row[0]!r}", line_no)
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


def record_ingest(path):
    """``ingest_logs`` one record at a time: csv reads each record, the row
    checks judge it, then ``int()`` and ``float()`` convert it. Raises the
    first bad record's LogParseError, else the table's own check."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LogParseError("empty file: missing header", 1) from None
        except csv.Error as exc:
            raise LogParseError(f"line 1: {exc}", 1) from None
        if [h.strip() for h in header] != REFERENCE_HEADER:
            undecodable = any("\udc80" <= c <= "\udcff" for c in "".join(header))
            raise LogParseError("line 1: " + ("file is not UTF-8 text" if undecodable else
                                f"expected header {','.join(REFERENCE_HEADER)}"), 1)
        per_player = {}
        line = 2
        try:
            for row in reader:
                if row:
                    _check_row(row, line)
                    per_player.setdefault(row[0].strip(), []).append(
                        PlayerRow(int(row[1]), float(row[2]), *map(int, row[3:])))
                line += 1
        except csv.Error as exc:
            raise LogParseError(f"line {line}: {exc}", line) from None
    logs = [sorted(rows, key=lambda r: r.day_index) for rows in per_player.values()]
    return PlayerLogs.from_logs([PlayerLog(pid, rows[0].day_index, rows)
                                 for pid, rows in zip(per_player, logs)])


def reference_log_check(logs):
    """The per-log checks ``PlayerLog`` once ran on construction, applied to
    (player_id, registration_day, rows) logs in order.

    Equal neighbouring days read as ingest's duplicate; a day below its
    predecessor reads as unsorted.
    """
    for pid, registration_day, rows in logs:
        if not rows:
            raise LogValidationError(f"player {pid!r} has no activity rows", pid)
        days = [r.day_index for r in rows]
        if any(b == a for a, b in zip(days, days[1:])):
            raise LogValidationError(
                f"player {pid!r} has duplicate day_index rows", pid)
        if any(b < a for a, b in zip(days, days[1:])):
            raise LogValidationError(
                f"player {pid!r} has unsorted or duplicate day rows", pid)
        if registration_day > days[0]:
            raise LogValidationError(
                f"player {pid!r} active before registration", pid)
        levels = [r.level for r in rows]
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise LogValidationError(
                f"player {pid!r} has a decreasing level", pid)


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


# ---------------------------------------------------------------------------
# Split-rule reference: the log-rank and two-sample cut scans as they were
# before each node's feature-independent terms were computed once. Every
# candidate feature recomputes the node's event times, risk-set bins and
# Nelson-Aalen hazard.

def _candidate_thresholds(x, cap):
    """Midpoints between consecutive distinct values, quantile-thinned to cap."""
    u = np.unique(x)
    if u.size < 2:
        return np.empty(0)
    mids = (u[:-1] + u[1:]) / 2.0
    if mids.size > cap:
        pick = np.unique(np.round(np.linspace(0, mids.size - 1, cap)).astype(int))
        mids = mids[pick]
    return mids


def _admissible_mask(tb, any_event, n_thr, min_events):
    ev_left = np.bincount(tb[any_event], minlength=n_thr + 1).cumsum()[:n_thr]
    total = int(any_event.sum())
    return (ev_left >= min_events) & (total - ev_left >= min_events)


def reference_cuts(x, any_event, min_events, cap):
    """(thresholds, row bins, admissible mask) of one float column's cuts."""
    thresholds = _candidate_thresholds(x, cap)
    tb = np.searchsorted(thresholds, x, side="left")
    return thresholds, tb, _admissible_mask(tb, any_event, thresholds.size,
                                            min_events)


def reference_logrank_scan(x, times, cause_event, any_event, min_events, cap):
    thresholds = _candidate_thresholds(x, cap)
    c = thresholds.size
    if c == 0:
        return thresholds, np.empty(0)
    ets = np.unique(times[cause_event])
    k = ets.size
    stats = np.full(c, -np.inf)
    adm = _admissible_mask(np.searchsorted(thresholds, x, side="left"),
                           any_event, c, min_events)
    if k == 0 or not adm.any():
        return thresholds, stats

    tb = np.searchsorted(thresholds, x, side="left")
    rb = np.searchsorted(ets, times, side="right")
    h_all = _bin_matrix(rb, tb, k + 1, c + 1)
    suffix = np.cumsum(h_all[::-1], axis=0)[::-1]
    ql = np.cumsum(suffix[1:k + 1], axis=1)[:, :c]
    q = suffix[1:k + 1].sum(axis=1)

    de = np.searchsorted(ets, times[cause_event])
    h_ev = _bin_matrix(de, tb[cause_event], k, c + 1)
    dl = np.cumsum(h_ev, axis=1)[:, :c]
    d = h_ev.sum(axis=1)

    frac = ql / q[:, None]
    oe = (dl - d[:, None] * frac).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vterm = d[:, None] * frac * (1.0 - frac) * ((q - d) / (q - 1.0))[:, None]
    vterm[q <= 1.0] = 0.0
    v = vterm.sum(axis=0)
    ok = adm & (v > 0.0)
    stats[ok] = np.abs(oe[ok]) / np.sqrt(v[ok])
    return thresholds, stats


def reference_logrank_scores(times, events):
    ets = np.unique(times[events])
    if ets.size == 0:
        return np.zeros(times.size)
    sorted_t = np.sort(times)
    q = times.size - np.searchsorted(sorted_t, ets, side="left")
    d = np.bincount(np.searchsorted(ets, times[events]), minlength=ets.size)
    cumhaz = np.concatenate(([0.0], np.cumsum(d / q)))
    idx = np.searchsorted(ets, times, side="right")
    return events.astype(float) - cumhaz[idx]


def reference_two_sample_scan(x, a, any_event, min_events, cap):
    thresholds = _candidate_thresholds(x, cap)
    c = thresholds.size
    if c == 0:
        return thresholds, np.empty(0)
    n = a.size
    tb = np.searchsorted(thresholds, x, side="left")
    stats = np.full(c, -np.inf)
    adm = _admissible_mask(tb, any_event, c, min_events)
    if not adm.any() or n < 2:
        return thresholds, stats
    sum_left = np.bincount(tb, weights=a, minlength=c + 1).cumsum()[:c]
    n_left = np.bincount(tb, minlength=c + 1).cumsum()[:c]
    _, var_a = _score_moments(a)
    expected = n_left * a.mean()
    v = var_a * n_left * (n - n_left) / (n - 1.0)
    ok = adm & (v > 0.0)
    stats[ok] = np.abs(sum_left[ok] - expected[ok]) / np.sqrt(v[ok])
    return thresholds, stats


def reference_best_split_rsf(x_node, t_node, s_node, candidates, min_events, cap):
    """(feature, threshold) of the largest log-rank statistic, or None."""
    cause = s_node == int(EventStatus.CONVERTED)
    any_ev = s_node != int(EventStatus.CENSORED)
    best = (-np.inf, -1, np.nan)
    for f in candidates:
        thr, stats = reference_logrank_scan(x_node[:, f], t_node, cause, any_ev,
                                            min_events, cap)
        if stats.size == 0:
            continue
        j = int(np.argmax(stats))
        if stats[j] > best[0]:
            best = (float(stats[j]), int(f), float(thr[j]))
    if not np.isfinite(best[0]):
        return None
    return best[1], best[2]


def reference_best_split_conditional(x_node, t_node, s_node, candidates,
                                     min_events, cap, alpha):
    """Two-step conditional-inference split (feature test, then cutpoint)."""
    events = s_node == int(EventStatus.CONVERTED)
    scores = reference_logrank_scores(t_node, events)
    pvals = _feature_pvalues(x_node[:, candidates], scores)
    testable = pvals < 1.0
    n_tests = int(testable.sum())
    if n_tests == 0:
        return None
    best_i = int(np.argmin(pvals))
    adjusted = min(1.0, pvals[best_i] * n_tests)
    if adjusted > alpha:
        return None
    f = int(candidates[best_i])
    any_ev = s_node != int(EventStatus.CENSORED)
    thr, stats = reference_two_sample_scan(x_node[:, f], scores, any_ev,
                                           min_events, cap)
    if stats.size == 0 or not np.isfinite(stats.max()):
        return None
    j = int(np.argmax(stats))
    return f, float(thr[j])


# ---------------------------------------------------------------------------
# Routing reference: the level walk over the rows still at inner nodes.

def reference_route(tree, x):
    """Leaf index (into tree.leaves) for every row of ``x``."""
    cur = np.zeros(x.shape[0], dtype=np.int32)
    while True:
        feat = tree.feature[cur]
        active = feat >= 0
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        nodes = cur[rows]
        go_left = x[rows, tree.feature[nodes]] <= tree.threshold[nodes]
        cur[rows] = np.where(go_left, tree.left[nodes], tree.right[nodes])
    return tree.leaf_index[cur]
