"""Core domain types: censored observations, time axes and step functions.

Everything in this module is immutable after construction and safe to share
across workers; the operations are pure functions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import EmptyInputError, InvalidCurveError, ShapeMismatchError


class TimeAxis(enum.Enum):
    """The "time" scale a dataset is measured on.

    All records in one dataset share a single axis: days of lifetime since
    registration, in-game level reached, or cumulative hours played.
    """

    LIFETIME = "lifetime"
    LEVEL = "level"
    PLAYTIME = "playtime"


class EventStatus(enum.IntEnum):
    """Outcome label for one subject.

    CHURNED is the competing event and may only appear in datasets flagged
    as competing-risks datasets.
    """

    CENSORED = 0
    CONVERTED = 1
    CHURNED = 2


def _as_readonly(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function over time.

    ``f(t)`` is the value at the largest knot ``<= t``, or ``left_value``
    when ``t`` lies below the first knot. Knots must be strictly increasing.

    Survival curves use ``left_value=1`` with non-increasing values in
    [0, 1]; cumulative hazards and cumulative incidence use ``left_value=0``
    with non-decreasing, non-negative values.
    """

    knots: np.ndarray
    values: np.ndarray
    left_value: float

    def __post_init__(self):
        knots = _as_readonly(self.knots)
        values = _as_readonly(self.values)
        if knots.ndim != 1 or values.ndim != 1:
            raise InvalidCurveError("knots and values must be 1-dimensional")
        if knots.shape != values.shape:
            raise InvalidCurveError("knots and values must have equal length")
        if knots.size and not np.all(np.isfinite(knots)):
            raise InvalidCurveError("knots must be finite")
        if knots.size > 1 and not np.all(np.diff(knots) > 0):
            raise InvalidCurveError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "left_value", float(self.left_value))

    def __call__(self, t):
        """Evaluate at scalar or array ``t``; total over all finite t."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.knots, t_arr, side="right")
        padded = np.concatenate(([self.left_value], self.values))
        out = padded[idx]
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(out)
        return out


def evaluate_step(f: StepFunction, t) -> float:
    """Value of the right-continuous step function at ``t``."""
    return f(t)


def _direction(f: StepFunction) -> int:
    """+1 for non-decreasing, -1 for non-increasing, 0 if constant.

    The left value participates in the scan, so a curve that jumps once at
    its first knot is still directional. Raises on non-monotone input.
    """
    seq = np.concatenate(([f.left_value], f.values))
    diffs = np.diff(seq)
    up = bool(np.any(diffs > 0))
    down = bool(np.any(diffs < 0))
    if up and down:
        raise InvalidCurveError("curve is not monotone")
    if up:
        return 1
    if down:
        return -1
    return 0


def median_crossing(f: StepFunction, threshold: float) -> float | None:
    """First knot where a monotone curve crosses ``threshold``.

    For non-increasing curves (survival) this is the smallest knot with
    value <= threshold; for non-decreasing curves (incidence, hazards) the
    smallest knot with value >= threshold. Returns None when the curve
    never crosses.
    """
    if not 0.0 < threshold < 1.0:
        raise InvalidCurveError("threshold must lie in (0, 1)")
    direction = _direction(f)
    if f.knots.size == 0:
        return None
    if direction == 1:
        hits = np.nonzero(f.values >= threshold)[0]
    else:
        # constant curves are treated like survival curves
        hits = np.nonzero(f.values <= threshold)[0]
    if hits.size == 0:
        return None
    return float(f.knots[hits[0]])


def complement(f: StepFunction) -> StepFunction:
    """Pointwise ``1 - f``: survival curve to cumulative incidence and back.

    The input must be a valid monotone curve with all values (and the left
    value) inside [0, 1]; applying the complement twice is the identity.
    """
    _direction(f)  # raises on non-monotone input
    vals = np.concatenate(([f.left_value], f.values))
    if vals.size and (np.min(vals) < 0.0 or np.max(vals) > 1.0):
        raise InvalidCurveError("curve values must lie in [0, 1]")
    return StepFunction(f.knots, 1.0 - f.values, 1.0 - f.left_value)


# Alias under the spec-level operation name: converting a survival curve to
# the cumulative incidence of its event is exactly the complement.
survival_to_incidence = complement


@dataclass(frozen=True)
class SurvivalRecord:
    """One subject's observation: (time, status, covariates).

    ``time`` is non-negative and finite on the dataset's axis; covariates
    are a fixed-length numeric vector with no missing entries.
    """

    subject_id: str
    time: float
    status: EventStatus
    covariates: tuple[float, ...]

    def __post_init__(self):
        time = float(self.time)
        if not math.isfinite(time) or time < 0:
            raise ValueError(f"time must be finite and >= 0, got {self.time!r}")
        cov = tuple(map(float, self.covariates))
        if not all(map(math.isfinite, cov)):
            raise ValueError(f"covariates contain non-finite entries: {self.subject_id}")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "status", EventStatus(self.status))
        object.__setattr__(self, "covariates", cov)


@dataclass(frozen=True, eq=False)
class SurvivalDataset:
    """Immutable columnar dataset: one row per subject, one time axis.

    ``times`` (float64), ``status_codes`` (int8) and ``covariate_matrix``
    (float64, n x p) are read-only copies aligned with ``subject_ids``.
    Subject ids are unique, and when ``competing_risks`` is False no
    subject may be CHURNED.
    """

    subject_ids: tuple[str, ...]
    times: np.ndarray
    status_codes: np.ndarray
    covariate_matrix: np.ndarray
    feature_names: tuple[str, ...]
    axis: TimeAxis
    competing_risks: bool = False

    def __post_init__(self):
        ids = tuple(self.subject_ids)
        names = tuple(self.feature_names)
        times = np.array(self.times, dtype=float)
        codes = np.asarray(self.status_codes)
        x = np.array(self.covariate_matrix, dtype=float)
        n = len(ids)
        if times.shape != (n,) or codes.shape != (n,) or x.ndim != 2 or len(x) != n:
            raise ShapeMismatchError(
                f"{n} subject ids need {n} times, status codes and covariate rows")

        def reject(bad: np.ndarray, problem: str) -> None:
            if bad.any():
                raise ValueError(f"subject {ids[int(np.argmax(bad))]!r}: {problem}")

        reject(~(np.isfinite(times) & (times >= 0)), "time must be finite and >= 0")
        reject(~np.isin(codes, list(EventStatus)), "status is not an EventStatus code")
        reject(~np.isfinite(x).all(axis=1), "covariates contain non-finite entries")
        if x.shape[1] != len(names):
            raise ShapeMismatchError(
                f"covariate matrix has {x.shape[1]} columns, expected {len(names)}")
        seen = set()
        for sid in ids:
            if sid in seen:
                raise ValueError(f"duplicate subject_id {sid!r}")
            seen.add(sid)
        codes = codes.astype(np.int8)
        if not self.competing_risks:
            reject(codes == EventStatus.CHURNED, "CHURNED in a single-risk dataset")
        for arr in (times, codes, x):
            arr.setflags(write=False)
        for name, value in (("subject_ids", ids), ("times", times),
                            ("status_codes", codes), ("covariate_matrix", x),
                            ("feature_names", names), ("axis", TimeAxis(self.axis))):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.subject_ids)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @cached_property
    def records(self) -> tuple[SurvivalRecord, ...]:
        """The rows as ``SurvivalRecord``s, built on first access."""
        return tuple(map(SurvivalRecord, self.subject_ids, self.times.tolist(),
                         self.status_codes.tolist(), self.covariate_matrix.tolist()))

    def n_events(self, status: EventStatus = EventStatus.CONVERTED) -> int:
        return int(np.sum(self.status_codes == int(status)))

    def recode_competing_as_censored(self) -> "SurvivalDataset":
        """Single-risk view of a competing-risks dataset (CHURNED -> CENSORED)."""
        if not self.competing_risks:
            return self
        codes = np.where(self.status_codes == EventStatus.CHURNED,
                         EventStatus.CENSORED, self.status_codes)
        return replace(self, status_codes=codes, competing_risks=False)

    def subset(self, indices) -> "SurvivalDataset":
        """The rows at ``indices`` (a sequence or array of ints), in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        ids = self.subject_ids
        return replace(self, subject_ids=tuple(ids[i] for i in idx.tolist()),
                       times=self.times[idx], status_codes=self.status_codes[idx],
                       covariate_matrix=self.covariate_matrix[idx])


def require_nonempty(data: SurvivalDataset, what: str = "dataset") -> None:
    if len(data) == 0:
        raise EmptyInputError(f"{what} is empty")
