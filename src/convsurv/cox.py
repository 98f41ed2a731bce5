"""Semi-parametric proportional-hazards regression.

Fits the multiplicative-hazard model S(t|x) = exp(-H0(t) exp(beta' x)) by
maximizing the Breslow-tie partial likelihood with damped Newton steps, and
recovers the baseline cumulative hazard with the Breslow estimator.

Covariates are centered and scaled internally for conditioning (and so the
ridge penalty is comparable across features); both transforms are folded
back into the stored coefficients and baseline, so predictions use raw
covariates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EventStatus, StepFunction, SurvivalDataset, covariate_rows, first_crossing
from .estimators import event_counts
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateFitError,
    MonotoneLikelihoodError,
    ShapeMismatchError,
    WrongEstimatorError,
)

_BETA_GUARD = 50.0  # |beta|_inf beyond this without ridge means separation


@dataclass(frozen=True)
class ConvergenceInfo:
    iterations: int
    gradient_norm: float
    log_partial_likelihood: float


@dataclass(frozen=True)
class CoxFit:
    """Fitted proportional-hazards model on raw (uncentered) covariates."""

    beta: np.ndarray
    baseline_cum_hazard: StepFunction
    feature_names: tuple[str, ...]
    convergence: ConvergenceInfo

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta must be finite")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))


def _event_groups(times: np.ndarray, events: np.ndarray):
    """Distinct event times, their risk-set suffix index and event counts.

    Assumes ``times`` sorted ascending, so a risk set of ``at_risk``
    subjects starts at index ``times.size - at_risk``.
    """
    etimes, at_risk, counts, _, _ = event_counts(times, events.astype(np.int8))
    return etimes, times.size - at_risk, counts.astype(float)


def partial_loglik_grad_hess(beta: np.ndarray, times: np.ndarray,
                             events: np.ndarray, x: np.ndarray):
    """Breslow partial log-likelihood with analytic gradient and Hessian.

    ``times`` must be sorted ascending; ``events`` is boolean. The risk set
    at an event time contains every subject with observed time >= that time
    (censorings tied with events stay at risk).
    """
    n, p = x.shape
    eta = x @ beta
    # guard against overflow: shift eta by its max (cancels in all ratios,
    # contributes a known additive term to the log-likelihood)
    shift = np.max(eta) if n else 0.0
    w = np.exp(eta - shift)
    wx = w[:, None] * x
    wxx = wx[:, :, None] * x[:, None, :]
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum(wx[::-1], axis=0)[::-1]
    s2 = np.cumsum(wxx[::-1], axis=0)[::-1]

    etimes, first, d = _event_groups(times, events)
    ev_order = np.nonzero(events)[0]
    group_start = np.searchsorted(times[ev_order], etimes, side="left")
    s_groups = np.add.reduceat(x[ev_order], group_start, axis=0) if len(etimes) else np.zeros((0, p))

    mu = s1[first] / s0[first, None]
    loglik = float(eta[events].sum() - d @ (np.log(s0[first]) + shift))
    grad = s_groups.sum(axis=0) - (d[:, None] * mu).sum(axis=0)
    hess = -(
        (d[:, None, None] * s2[first] / s0[first, None, None]).sum(axis=0)
        - np.einsum("k,ki,kj->ij", d, mu, mu)
    )
    return loglik, grad, hess


def _penalized(beta, times, events, x, ridge):
    ll, g, h = partial_loglik_grad_hess(beta, times, events, x)
    if ridge > 0.0:
        ll -= 0.5 * ridge * float(beta @ beta)
        g = g - ridge * beta
        h = h - ridge * np.eye(len(beta))
    return ll, g, h


def fit_cox(data: SurvivalDataset, *, max_iter: int = 100, tol: float = 1e-8,
            ridge: float = 1e-6) -> CoxFit:
    """Fit the proportional-hazards model by damped Newton iteration.

    The optimizer accepts a step only when the (penalized) log partial
    likelihood increases, halving the step as needed, so the likelihood is
    non-decreasing across accepted iterations. Raises ConvergenceError
    (carrying the last iterate) when ``max_iter`` is exhausted, and
    MonotoneLikelihoodError when ``ridge`` is zero and a coefficient runs
    past the separation guard, the signature of a perfectly separating
    covariate. (A separating covariate whose scale keeps the diverging
    coefficient below the guard converges instead to a large finite value
    of order -ln(tol) over the group gap; any positive ridge removes the
    issue entirely.) Raises DegenerateFitError when the baseline hazard
    leaves float range, and ConfigError unless ``ridge`` is finite and >= 0.
    """
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise ConfigError(f"ridge must be finite and >= 0, got {ridge!r}")
    if data.competing_risks:
        raise WrongEstimatorError("fit_cox requires a single-risk dataset")
    events_all = data.status_codes == int(EventStatus.CONVERTED)
    if not np.any(events_all):
        raise DegenerateFitError("cannot fit a Cox model with zero events")

    order = np.argsort(data.times, kind="stable")
    times = data.times[order]
    events = events_all[order]
    x_raw = data.covariate_matrix[order]
    center = x_raw.mean(axis=0)
    # standardize for conditioning; the ridge then penalizes coefficients
    # on a comparable per-feature scale. Folded back out below.
    scale_sd = x_raw.std(axis=0)
    scale_sd[scale_sd == 0.0] = 1.0
    x = (x_raw - center) / scale_sd
    p = x.shape[1]

    beta = np.zeros(p)
    loglik, grad, hess = _penalized(beta, times, events, x, ridge)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        gnorm = float(np.max(np.abs(grad))) if p else 0.0
        if gnorm <= tol:
            iterations -= 1
            break
        info = -hess
        try:
            delta = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(info, grad, rcond=None)[0]
        step = 1.0
        improved = False
        noise = 1e-9 * (1.0 + abs(loglik))
        while step >= 2.0**-30:
            cand = beta + step * delta
            # a far step can empty late risk sets; its NaN likelihood fails below
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                cand_ll, cand_g, cand_h = _penalized(cand, times, events, x, ridge)
            # near the optimum the likelihood gain falls below float
            # resolution while the gradient still shrinks quadratically;
            # accept those terminal Newton steps too
            acceptable = np.isfinite(cand_ll) and (
                cand_ll > loglik
                or (cand_ll >= loglik - noise
                    and np.max(np.abs(cand_g)) < gnorm)
            )
            if acceptable:
                beta, loglik, grad, hess = cand, cand_ll, cand_g, cand_h
                improved = True
                break
            step /= 2.0
        if ridge == 0.0 and np.max(np.abs(beta / scale_sd)) > _BETA_GUARD:
            raise MonotoneLikelihoodError(
                "a coefficient exceeded the separation guard; "
                "refit with ridge > 0"
            )
        if not improved:
            break

    gnorm = float(np.max(np.abs(grad))) if p else 0.0
    unpenalized_ll = partial_loglik_grad_hess(beta, times, events, x)[0]
    beta_raw = beta / scale_sd
    try:  # diverging coefficients can take the baseline out of float range
        with np.errstate(all="raise", under="ignore"):
            baseline = _breslow_baseline(beta, times, events, x)
            # fold standardization back out: predictions use raw covariates
            values = baseline.values * float(np.exp(-(beta_raw @ center)))
    except FloatingPointError:
        raise DegenerateFitError("the Cox baseline hazard overflows: the coefficients "
                                 "diverge; refit with a larger ridge") from None
    fit = CoxFit(
        beta=beta_raw,
        baseline_cum_hazard=StepFunction(baseline.knots, values, 0.0),
        feature_names=data.feature_names,
        convergence=ConvergenceInfo(iterations, gnorm, float(unpenalized_ll)),
    )
    if gnorm > tol:
        raise ConvergenceError(
            f"Newton iteration did not reach tol={tol} in {max_iter} steps "
            f"(|grad|={gnorm:.3e})",
            last_fit=fit,
        )
    return fit


def _breslow_baseline(beta, times, events, x) -> StepFunction:
    """Breslow cumulative baseline hazard at the fitted coefficients."""
    eta = x @ beta
    shift = np.max(eta) if len(eta) else 0.0
    w = np.exp(eta - shift)
    s0 = np.cumsum(w[::-1])[::-1]
    etimes, first, d = _event_groups(times, events)
    increments = d / (s0[first] * np.exp(shift))
    return StepFunction(etimes, np.cumsum(increments), 0.0)


def predict_cox_survival(fit: CoxFit, x) -> StepFunction:
    """Subject survival curve S(t) = exp(-H0(t) exp(beta' x))."""
    x = np.asarray(x, dtype=float)
    if x.shape != fit.beta.shape:
        raise ShapeMismatchError(
            f"covariate vector has shape {x.shape}, expected {fit.beta.shape}"
        )
    h0 = fit.baseline_cum_hazard
    with np.errstate(over="ignore", invalid="ignore"):  # as in predict_median_batch
        return StepFunction(h0.knots, np.exp(-h0.values * np.exp(fit.beta @ x)), 1.0)


def predict_median_batch(fit: CoxFit, x) -> np.ndarray:
    """Vectorized medians for a covariate matrix; NaN where never crossed.

    The baseline is non-decreasing, so survival falls along the knots, and
    core.first_crossing bisects them in a few row-length vectors.
    """
    x = covariate_rows(x, fit.beta.shape[0])
    h0 = fit.baseline_cum_hazard
    # a huge beta' x overflows to an infinite risk, which times a zero
    # baseline hazard is NaN: that row has not crossed at such a knot
    with np.errstate(over="ignore", invalid="ignore"):
        risk = np.exp(x @ fit.beta)
        first = first_crossing(x.shape[0], h0.knots.size,
                               lambda k: np.exp(-(risk * h0.values[k])) <= 0.5)
    return np.append(h0.knots, np.nan)[first]  # NaN where no knot crosses
