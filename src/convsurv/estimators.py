"""Nonparametric baseline estimators for censored conversion data.

Provides the product-limit survival estimator, the cumulative-hazard
estimator, the competing-risks cumulative incidence estimator,
Greenwood-style confidence bands and the two-sided normal p-value of the
conditional ensemble's variable test. All estimators emit right-continuous
step functions with knots at observed event times only, and all are pure
functions of the dataset (invariant under record permutation).

Tie convention: at a time carrying both events and censorings, censorings
are treated as occurring after the events, so they remain in the risk set
for that event time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EventStatus, StepFunction, SurvivalDataset, require_nonempty
from .errors import InvalidEventError, WrongEstimatorError


@dataclass(frozen=True)
class RiskTable:
    """Per-event-time counts underlying every estimator.

    ``event_times`` are the distinct times with at least one event (of any
    type). ``at_risk[k]`` counts subjects with observed time >= t_k.
    """

    event_times: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray
    events_converted: np.ndarray
    events_churned: np.ndarray

    def __post_init__(self):
        for name in ("event_times", "at_risk", "events", "events_converted",
                     "events_churned"):
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
    """Count events and subjects at risk per distinct event time."""
    require_nonempty(data)
    event_times, at_risk, d_conv, d_churn, _ = event_counts(data.times, data.status_codes)
    return RiskTable(event_times=event_times, at_risk=at_risk, events=d_conv + d_churn,
                     events_converted=d_conv, events_churned=d_churn)


# --- count kernels -----------------------------------------------------
# Shared by the pooled estimators here and by the per-leaf estimators in
# the forest models, which apply the same formulas to node-local counts.
# Each runs along the last axis, so a matrix holds one count table per row.

def km_values_from_counts(at_risk: np.ndarray, events: np.ndarray) -> np.ndarray:
    """Product-limit survival values S(t_k) = prod(1 - d/Q)."""
    return np.cumprod(1.0 - events / at_risk, axis=-1)


def na_values_from_counts(at_risk: np.ndarray, events: np.ndarray) -> np.ndarray:
    """Cumulative-hazard values H(t_k) = sum(d/Q)."""
    return np.cumsum(events / at_risk, axis=-1)


def cif_values_from_counts(at_risk: np.ndarray, events_total: np.ndarray,
                           events_cause: np.ndarray) -> np.ndarray:
    """Cause-specific cumulative incidence CIF(t_k) = cumsum(S(t_{k-1}) d_j/Q).

    ``S`` is the all-cause product-limit survival evaluated just before each
    event time; with that choice S(t) + sum_j CIF_j(t) = 1 at every knot.
    """
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

def _count_curve(table: RiskTable, curve: str) -> StepFunction:
    """One ``COUNT_CURVES`` curve of a risk table."""
    values_at_knots, left_value = COUNT_CURVES[curve]
    return StepFunction(table.event_times, values_at_knots(
        table.at_risk, table.events_converted, table.events_churned), left_value)


def _single_risk_table(data: SurvivalDataset, estimator: str) -> RiskTable:
    """The risk table of a single-risk dataset; the error names ``estimator``."""
    require_nonempty(data)
    if data.competing_risks:
        raise WrongEstimatorError(
            f"{estimator} requires a single-risk dataset; recode churn first")
    return risk_table(data)


def _incidence_table(data: SurvivalDataset, event: EventStatus) -> tuple[RiskTable, str]:
    """The risk table of a competing-risks dataset and the ``COUNT_CURVES``
    name of ``event``'s cumulative incidence."""
    require_nonempty(data)
    event = EventStatus(event)
    if event == EventStatus.CENSORED:
        raise InvalidEventError("cumulative incidence is defined for event types only")
    if not data.competing_risks:
        raise WrongEstimatorError("aalen_johansen requires a competing-risks dataset")
    return risk_table(data), ("cif_conv" if event == EventStatus.CONVERTED
                              else "cif_churn")


def kaplan_meier(data: SurvivalDataset) -> StepFunction:
    """Product-limit estimate of the survival function.

    With no censoring this equals the empirical survival function exactly.
    """
    return _count_curve(_single_risk_table(data, "kaplan_meier"), "survival")


def nelson_aalen(data: SurvivalDataset) -> StepFunction:
    """Nonparametric estimate of the cumulative hazard H(t)."""
    return _count_curve(_single_risk_table(data, "nelson_aalen"), "cumhaz")


def all_cause_survival(data: SurvivalDataset) -> StepFunction:
    """Product-limit survival counting every event type as an event.

    This is the survival that pairs with the cumulative incidences:
    all_cause_survival + sum of aalen_johansen over event types = 1.
    """
    return _count_curve(risk_table(data), "survival")


def aalen_johansen(data: SurvivalDataset, event: EventStatus) -> StepFunction:
    """Cumulative incidence of one event type under competing risks.

    Knots are the distinct all-cause event times; together with the
    all-cause survival the incidences conserve total probability:
    S(t) + CIF_converted(t) + CIF_churned(t) = 1 at every knot.
    """
    return _count_curve(*_incidence_table(data, event))


def km_confidence_band(data: SurvivalDataset, level: float = 0.95
                       ) -> tuple[StepFunction, StepFunction]:
    """Pointwise Greenwood band for the survival estimate, log transform.

    The band is S * exp(+-z * se(log S)) with the Greenwood variance of
    log S, clipped to [0, 1]. Where the estimate reaches exactly 0 the
    variance degenerates and both limits are reported as 0.
    """
    z = _critical_value(level)
    table = _single_risk_table(data, "kaplan_meier")
    s = km_values_from_counts(table.at_risk, table.events)
    q = table.at_risk.astype(float)
    d = table.events.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > d, d / (q * (q - d)), np.inf)
        se_log = np.sqrt(np.cumsum(terms))
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
    z = _critical_value(level)
    table, curve = _incidence_table(data, event)
    cif = _count_curve(table, curve)
    d_cause = (table.events_converted if curve == "cif_conv"
               else table.events_churned).astype(float)
    q = table.at_risk.astype(float)
    surv_lag = np.concatenate(([1.0], km_values_from_counts(q, table.events)[:-1]))
    var = np.cumsum(surv_lag**2 * d_cause * np.maximum(q - d_cause, 0.0) / q**3)
    half = z * np.sqrt(var)
    lower = np.clip(cif.values - half, 0.0, 1.0)
    upper = np.clip(cif.values + half, 0.0, 1.0)
    return (
        StepFunction(table.event_times, lower, 0.0),
        StepFunction(table.event_times, upper, 0.0),
    )


# --- normal tail -------------------------------------------------------
# Cephes' ndtr, erf and erfc rational approximations, the ones scipy.special
# uses, ported for c >= 0 in cephes' expression order so every result equals
# 2 * scipy.special.ndtr(-c) bit for bit, subnormal tail, inf and nan
# included. Scalar libm math.exp: np.exp need not round as libm does.

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
# leading coefficient first; a leading 1.0 stands for cephes' p1evl
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner(x: float, coef: tuple) -> float:
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _erf(x: float) -> float:
    """erf(x) for 0 <= x < 1."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U)


def _erfc(x: float) -> float:
    """erfc(x) for x >= 1/sqrt(2), inf and nan."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    return (math.exp(z) * _horner(x, p)) / _horner(x, q)


def two_sided_normal_pvalue(c: float) -> float:
    """2 * Phi(-c), the two-sided p-value of a standard normal statistic
    |Z| = c >= 0; nan stays nan."""
    z = c * _SQRT1_2
    if z < _SQRT1_2:
        return 2.0 * (0.5 + 0.5 * -_erf(z))
    return 2.0 * (0.5 * _erfc(z))


def _critical_value(level: float) -> float:
    """z with P(|Z| <= z) = ``level`` for a standard normal Z.

    The lower tail (1 - level) / 2 is exact for level >= 0.5, where the
    upper 0.5 + level / 2 rounds to 1 at the largest level below 1.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    # imported here so that only the bands load the statistics module
    from statistics import NormalDist
    return -NormalDist().inv_cdf((1.0 - level) / 2.0)
