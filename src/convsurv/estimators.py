"""Nonparametric baseline estimators for censored conversion data.

Provides the product-limit survival estimator, the cumulative-hazard
estimator, the competing-risks cumulative incidence estimator and
Greenwood-style confidence bands. All estimators emit right-continuous step
functions with knots at observed event times only, and all are pure
functions of the dataset (invariant under record permutation).

Tie convention: at a time carrying both events and censorings, censorings
are treated as occurring after the events, so they remain in the risk set
for that event time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EventStatus, StepFunction, SurvivalDataset, require_nonempty
from .errors import EmptyInputError, InvalidEventError, WrongEstimatorError


@dataclass(frozen=True)
class RiskTable:
    """Per-event-time counts underlying every estimator.

    ``event_times`` are the distinct times with at least one event (of any
    type). ``at_risk[k]`` counts subjects with observed time >= t_k.
    ``censored`` has length K+1: slot 0 counts censorings strictly before
    the first event time, slot k censorings in [t_k, t_{k+1}).
    """

    event_times: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    events_converted: np.ndarray
    events_churned: np.ndarray
    censored: np.ndarray

    def __post_init__(self):
        for name in ("event_times", "at_risk", "events", "events_converted",
                     "events_churned", "censored"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.at_risk.size > 1 and np.any(np.diff(self.at_risk) > 0):
            raise ValueError("at_risk must be non-increasing")
        if np.any(self.events > self.at_risk):
            raise ValueError("events cannot exceed the number at risk")


def event_counts(times: np.ndarray, status: np.ndarray, grid=None) -> tuple:
    """Risk-set counts at the distinct event times (of any type).

    Returns (event_times, at_risk, d_conv, d_churn, at_risk_grid), where
    ``at_risk_grid`` counts subjects with observed time >= each point of
    ``grid`` (None without a grid). The kernel behind ``risk_table`` and
    the forests' leaf tables.
    """
    sorted_times = np.sort(times)
    event_times = np.unique(times[status != int(EventStatus.CENSORED)])

    def _at_risk(points: np.ndarray) -> np.ndarray:
        return times.size - np.searchsorted(sorted_times, points, side="left")

    def _events(code: EventStatus) -> np.ndarray:
        idx = np.searchsorted(event_times, times[status == int(code)])
        return np.bincount(idx, minlength=event_times.size)

    return (event_times, _at_risk(event_times),
            _events(EventStatus.CONVERTED), _events(EventStatus.CHURNED),
            None if grid is None else _at_risk(grid))


def risk_table(data: SurvivalDataset) -> RiskTable:
    """Count events, censorings and subjects at risk per distinct event time."""
    require_nonempty(data)
    times = data.times
    status = data.status_codes
    event_times, at_risk, d_conv, d_churn, _ = event_counts(times, status)

    cens_times = times[status == int(EventStatus.CENSORED)]
    cens_idx = np.searchsorted(event_times, cens_times, side="right")
    censored = np.bincount(cens_idx, minlength=event_times.size + 1)

    return RiskTable(
        event_times=event_times,
        at_risk=at_risk,
        events=d_conv + d_churn,
        events_converted=d_conv,
        events_churned=d_churn,
        censored=censored,
    )


# --- count kernels -----------------------------------------------------
# Shared by the pooled estimators here and by the per-leaf estimators in
# the forest models, which apply the same formulas to node-local counts.
# Each runs along the last axis, so a matrix holds one count table per row.

def km_values_from_counts(at_risk: np.ndarray, events: np.ndarray) -> np.ndarray:
    """Product-limit survival values S(t_k) = prod(1 - d/Q)."""
    if len(at_risk) == 0:
        return np.zeros(0)
    return np.cumprod(1.0 - events / at_risk, axis=-1)


def na_values_from_counts(at_risk: np.ndarray, events: np.ndarray) -> np.ndarray:
    """Cumulative-hazard values H(t_k) = sum(d/Q)."""
    if len(at_risk) == 0:
        return np.zeros(0)
    return np.cumsum(events / at_risk, axis=-1)


def cif_values_from_counts(at_risk: np.ndarray, events_total: np.ndarray,
                           events_cause: np.ndarray) -> np.ndarray:
    """Cause-specific cumulative incidence CIF(t_k) = cumsum(S(t_{k-1}) d_j/Q).

    ``S`` is the all-cause product-limit survival evaluated just before each
    event time; with that choice S(t) + sum_j CIF_j(t) = 1 at every knot.
    """
    if len(at_risk) == 0:
        return np.zeros(0)
    surv = km_values_from_counts(at_risk, events_total)
    surv_lag = np.ones_like(surv)
    surv_lag[..., 1:] = surv[..., :-1]
    return np.cumsum(surv_lag * events_cause / at_risk, axis=-1)


# curve name -> (its values at the event times from the counts (at_risk,
# d_conv, d_churn), its value before the first event time). Churn counts
# as an event in every curve; single-risk counts have none.
COUNT_CURVES = {
    "cumhaz": (lambda q, dc, dh: na_values_from_counts(q, dc + dh), 0.0),
    "survival": (lambda q, dc, dh: km_values_from_counts(q, dc + dh), 1.0),
    "cif_conv": (lambda q, dc, dh: cif_values_from_counts(q, dc + dh, dc), 0.0),
    "cif_churn": (lambda q, dc, dh: cif_values_from_counts(q, dc + dh, dh), 0.0),
}


# --- estimators --------------------------------------------------------

def _count_curve(data: SurvivalDataset, curve: str) -> StepFunction:
    """One ``COUNT_CURVES`` curve of the whole dataset's risk table."""
    table = risk_table(data)
    values_at_knots, left_value = COUNT_CURVES[curve]
    return StepFunction(table.event_times, values_at_knots(
        table.at_risk, table.events_converted, table.events_churned), left_value)


def _single_risk_curve(data: SurvivalDataset, curve: str, estimator: str) -> StepFunction:
    """``curve`` of a single-risk dataset; the error names ``estimator``."""
    require_nonempty(data)
    if data.competing_risks:
        raise WrongEstimatorError(
            f"{estimator} requires a single-risk dataset; recode churn first")
    return _count_curve(data, curve)


def kaplan_meier(data: SurvivalDataset) -> StepFunction:
    """Product-limit estimate of the survival function.

    With no censoring this equals the empirical survival function exactly.
    """
    return _single_risk_curve(data, "survival", "kaplan_meier")


def nelson_aalen(data: SurvivalDataset) -> StepFunction:
    """Nonparametric estimate of the cumulative hazard H(t)."""
    return _single_risk_curve(data, "cumhaz", "nelson_aalen")


def all_cause_survival(data: SurvivalDataset) -> StepFunction:
    """Product-limit survival counting every event type as an event.

    This is the survival that pairs with the cumulative incidences:
    all_cause_survival + sum of aalen_johansen over event types = 1.
    """
    require_nonempty(data)
    return _count_curve(data, "survival")


def aalen_johansen(data: SurvivalDataset, event: EventStatus) -> StepFunction:
    """Cumulative incidence of one event type under competing risks.

    Knots are the distinct all-cause event times; together with the
    all-cause survival the incidences conserve total probability:
    S(t) + CIF_converted(t) + CIF_churned(t) = 1 at every knot.
    """
    require_nonempty(data)
    event = EventStatus(event)
    if event == EventStatus.CENSORED:
        raise InvalidEventError("cumulative incidence is defined for event types only")
    if not data.competing_risks:
        raise WrongEstimatorError(
            "aalen_johansen requires a competing-risks dataset"
        )
    return _count_curve(data, "cif_conv" if event == EventStatus.CONVERTED
                        else "cif_churn")


def km_confidence_band(data: SurvivalDataset, level: float = 0.95
                       ) -> tuple[StepFunction, StepFunction]:
    """Pointwise Greenwood band for the survival estimate, log transform.

    The band is S * exp(+-z * se(log S)) with the Greenwood variance of
    log S, clipped to [0, 1]. Where the estimate reaches exactly 0 the
    variance degenerates and both limits are reported as 0.
    """
    # imported here so that importing the package does not load scipy.special
    from scipy.special import ndtri

    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    if len(data) == 0:
        raise EmptyInputError("dataset is empty")
    surv = kaplan_meier(data)  # raises on competing-risks input
    table = risk_table(data)
    s = surv.values
    q = table.at_risk.astype(float)
    d = table.events.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > d, d / (q * (q - d)), np.inf)
        se_log = np.sqrt(np.cumsum(terms))
    z = ndtri(0.5 + level / 2.0)
    with np.errstate(invalid="ignore", over="ignore"):
        lower = s * np.exp(-z * se_log)
        upper = s * np.exp(z * se_log)
    dead = s <= 0.0
    lower[dead] = 0.0
    upper[dead] = 0.0
    lower = np.clip(np.nan_to_num(lower, nan=0.0), 0.0, 1.0)
    upper = np.clip(np.nan_to_num(upper, nan=1.0), 0.0, 1.0)
    return (
        StepFunction(table.event_times, lower, 1.0),
        StepFunction(table.event_times, upper, 1.0),
    )


def cif_confidence_band(data: SurvivalDataset, event: EventStatus,
                        level: float = 0.95
                        ) -> tuple[StepFunction, StepFunction]:
    """Greenwood-style band around a cumulative incidence curve.

    Uses the plug-in variance sum S(t_{k-1})^2 d_j (Q - d_j) / Q^3 with a
    plain normal approximation, clipped to [0, 1]. This is the curve-export
    band for population incidence plots; the point estimate always lies
    inside the band.
    """
    # imported here so that importing the package does not load scipy.special
    from scipy.special import ndtri

    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    require_nonempty(data)
    cif = aalen_johansen(data, event)
    table = risk_table(data)
    d_cause = (table.events_converted if EventStatus(event) == EventStatus.CONVERTED
               else table.events_churned).astype(float)
    q = table.at_risk.astype(float)
    surv_lag = np.concatenate(([1.0], km_values_from_counts(q, table.events)[:-1]))
    var = np.cumsum(surv_lag**2 * d_cause * np.maximum(q - d_cause, 0.0) / q**3)
    z = ndtri(0.5 + level / 2.0)
    half = z * np.sqrt(var)
    lower = np.clip(cif.values - half, 0.0, 1.0)
    upper = np.clip(cif.values + half, 0.0, 1.0)
    return (
        StepFunction(table.event_times, lower, 0.0),
        StepFunction(table.event_times, upper, 0.0),
    )
