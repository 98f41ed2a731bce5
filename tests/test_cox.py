"""Proportional-hazards fitting against oracles, identities and guards."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convsurv.core import EventStatus, StepFunction
from convsurv.cox import (
    ConvergenceInfo,
    CoxFit,
    fit_cox,
    partial_loglik_grad_hess,
    predict_cox_median,
    predict_cox_survival,
    predict_median_batch,
)
from convsurv.errors import (
    ConfigError,
    ConvergenceError,
    DegenerateFitError,
    MonotoneLikelihoodError,
    ShapeMismatchError,
)
from convsurv.estimators import nelson_aalen

import oracles
from conftest import make_dataset

CONV = EventStatus.CONVERTED
CENS = EventStatus.CENSORED


def ph_dataset(rng, n, beta, shape=1.5, scale=10.0, censor_mean=12.0):
    """Weibull proportional-hazards data with exponential censoring."""
    beta = np.asarray(beta, dtype=float)
    x = rng.standard_normal((n, beta.size))
    u = rng.random(n)
    t_event = scale * (-np.log(u) / np.exp(x @ beta)) ** (1.0 / shape)
    c = rng.exponential(censor_mean, n)
    times = np.minimum(t_event, c)
    statuses = np.where(t_event <= c, CONV, CENS)
    return make_dataset(times, statuses, x)


def small_binary_dataset():
    """n=8, one binary covariate, mixed censoring, no separation."""
    times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    statuses = [CONV, CONV, CENS, CONV, CONV, CENS, CONV, CONV]
    x = [(1.0,), (0.0,), (1.0,), (1.0,), (0.0,), (0.0,), (1.0,), (0.0,)]
    return make_dataset(times, statuses, x)


class TestFitCox:
    def test_grid_search_oracle(self):
        """beta matches a 1e-4 grid maximizing the brute-force likelihood."""
        data = small_binary_dataset()
        fit = fit_cox(data, ridge=0.0)
        order = np.argsort(data.times, kind="stable")
        times = data.times[order]
        events = (data.status_codes == 1)[order]
        x = data.covariate_matrix[order]
        grid = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
        # vectorized but formula-direct: evaluate the explicit likelihood
        lls = np.array([oracles.cox_partial_loglik(np.array([b]), times, events, x)
                        for b in grid[::100]])
        coarse = grid[::100][np.argmax(lls)]
        fine = coarse + np.arange(-0.02, 0.02 + 1e-9, 1e-4)
        lls_fine = np.array([oracles.cox_partial_loglik(np.array([b]), times, events, x)
                             for b in fine])
        best = fine[np.argmax(lls_fine)]
        assert abs(float(fit.beta[0]) - best) < 1e-3

    def test_recovers_known_coefficients(self, rng):
        data = ph_dataset(rng, 2000, [1.0, -0.5])
        fit = fit_cox(data)
        assert_allclose(fit.beta, [1.0, -0.5], atol=0.1)

    def test_constant_column_gets_zero_coefficient(self):
        times = [1, 2, 3, 4, 5]
        statuses = [CONV, CONV, CENS, CONV, CONV]
        x = [(2.5,)] * 5
        fit = fit_cox(make_dataset(times, statuses, x))
        assert fit.beta[0] == 0.0
        # with beta = 0 the Breslow baseline is the plain cumulative hazard
        na = nelson_aalen(make_dataset(times, statuses, x))
        assert_allclose(fit.baseline_cum_hazard.values, na.values, atol=1e-12)

    def test_likelihood_nondecreasing_and_converged(self, rng):
        data = ph_dataset(rng, 300, [0.8])
        fit = fit_cox(data)
        assert fit.convergence.gradient_norm <= 1e-8
        assert fit.convergence.iterations <= 100

    def test_no_events_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_cox(make_dataset([1, 2], [CENS, CENS], x=[(1.0,), (0.0,)]))

    def test_non_convergence_carries_last_iterate(self, rng):
        data = ph_dataset(rng, 200, [1.5])
        with pytest.raises(ConvergenceError) as exc_info:
            fit_cox(data, max_iter=1, tol=1e-12)
        assert isinstance(exc_info.value.last_fit, CoxFit)

    def test_separation_detected_without_ridge(self):
        # x=0.1 subjects all convert before any x=0 subject; the separating
        # coefficient diverges past the guard of 50 and is reported
        times = [1, 2, 3, 4, 10, 11, 12, 13]
        statuses = [CONV] * 8
        x = [(0.1,)] * 4 + [(0.0,)] * 4
        with pytest.raises(MonotoneLikelihoodError):
            fit_cox(make_dataset(times, statuses, x), ridge=0.0, max_iter=500)

    def test_ridge_makes_separation_finite(self):
        times = [1, 2, 3, 4, 10, 11, 12, 13]
        statuses = [CONV] * 8
        x = [(1.0,)] * 4 + [(0.0,)] * 4
        fit = fit_cox(make_dataset(times, statuses, x), ridge=0.1)
        assert np.isfinite(fit.beta).all()

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        # a negative or NaN ridge used to fit the unpenalized model silently
        data = make_dataset([1, 2, 3, 4], [CONV, CENS, CONV, CENS],
                            [(0.0,), (1.0,), (0.5,), (2.0,)])
        with pytest.raises(ConfigError, match="ridge"):
            fit_cox(data, ridge=ridge)


class TestDerivatives:
    def test_gradient_and_hessian_match_finite_differences(self, rng):
        """Central differences at step 1e-5, relative tolerance 1e-6."""
        for _ in range(5):
            n = int(rng.integers(8, 25))
            data = ph_dataset(rng, n, rng.normal(0, 0.5, 2))
            order = np.argsort(data.times, kind="stable")
            times = data.times[order]
            events = (data.status_codes == 1)[order]
            x = data.covariate_matrix[order]
            if not events.any():
                continue
            beta = rng.normal(0, 0.5, 2)
            ll, grad, hess = partial_loglik_grad_hess(beta, times, events, x)
            h = 1e-5
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                lp = partial_loglik_grad_hess(beta + e, times, events, x)
                lm = partial_loglik_grad_hess(beta - e, times, events, x)
                fd_grad = (lp[0] - lm[0]) / (2 * h)
                scale = max(1.0, abs(grad[j]))
                assert abs(grad[j] - fd_grad) / scale < 1e-6
                fd_hess_col = (lp[1] - lm[1]) / (2 * h)
                scale_h = np.maximum(1.0, np.abs(hess[:, j]))
                assert np.all(np.abs(hess[:, j] - fd_hess_col) / scale_h < 1e-6)


class TestInvariances:
    def test_rank_invariance_under_time_scaling(self, rng):
        """The partial likelihood sees only the order of times."""
        data = ph_dataset(rng, 120, [0.7, -0.3])
        fit1 = fit_cox(data)
        scaled = make_dataset(
            [r.time * 37.5 for r in data.records],
            [r.status for r in data.records],
            [r.covariates for r in data.records])
        fit2 = fit_cox(scaled)
        assert_allclose(fit1.beta, fit2.beta, atol=1e-10)

    def test_covariate_translation_absorbed_by_baseline(self, rng):
        data = ph_dataset(rng, 150, [0.6])
        fit1 = fit_cox(data)
        shifted = make_dataset(
            [r.time for r in data.records],
            [r.status for r in data.records],
            [(r.covariates[0] + 5.0,) for r in data.records])
        fit2 = fit_cox(shifted)
        for r in data.records[:20]:
            s1 = predict_cox_survival(fit1, np.array(r.covariates))
            s2 = predict_cox_survival(fit2, np.array(r.covariates) + 5.0)
            assert_allclose(s1.values, s2.values, atol=1e-8)

    def test_deterministic_given_data_order(self, rng):
        data = ph_dataset(rng, 100, [0.5])
        f1, f2 = fit_cox(data), fit_cox(data)
        assert np.array_equal(f1.beta, f2.beta)
        assert np.array_equal(f1.baseline_cum_hazard.values,
                              f2.baseline_cum_hazard.values)


class TestPrediction:
    def test_zero_covariates_give_baseline_survival(self, rng):
        fit = fit_cox(ph_dataset(rng, 120, [0.5, 0.5]))
        s = predict_cox_survival(fit, np.zeros(2))
        assert_allclose(
            s.values, np.exp(-fit.baseline_cum_hazard.values), rtol=0, atol=0)

    def test_doubled_risk_squares_survival(self, rng):
        fit = fit_cox(ph_dataset(rng, 120, [0.8]))
        b = float(fit.beta[0])
        x1 = np.array([0.3])
        x2 = x1 + np.log(2.0) / b
        s1 = predict_cox_survival(fit, x1)
        s2 = predict_cox_survival(fit, x2)
        assert_allclose(s2.values, s1.values ** 2, rtol=1e-10)

    def test_curve_is_valid_survival(self, rng):
        fit = fit_cox(ph_dataset(rng, 80, [1.0]))
        s = predict_cox_survival(fit, np.array([2.0]))
        assert s.left_value == 1.0
        assert np.all(np.diff(s.values) <= 1e-15)
        assert np.all((s.values >= 0) & (s.values <= 1))

    def test_dimension_mismatch(self, rng):
        fit = fit_cox(ph_dataset(rng, 50, [1.0]))
        with pytest.raises(ShapeMismatchError):
            predict_cox_survival(fit, np.zeros(3))


class TestMedian:
    def test_baseline_crossing_by_hand(self):
        """H0 crosses -ln(0.5) at t=10, so the x=0 median is 10."""
        fit = CoxFit(
            beta=np.zeros(1),
            baseline_cum_hazard=StepFunction(
                np.array([5.0, 10.0]), np.array([0.3, 0.8]), 0.0),
            feature_names=("f0",),
            convergence=ConvergenceInfo(0, 0.0, 0.0),
        )
        assert predict_cox_median(fit, np.zeros(1)) == 10.0

    def test_never_crossing_is_absent(self, rng):
        # heavy censoring keeps the curve above 0.5 for low-risk subjects
        fit = CoxFit(
            beta=np.array([1.0]),
            baseline_cum_hazard=StepFunction(
                np.array([1.0, 2.0]), np.array([0.01, 0.02]), 0.0),
            feature_names=("f0",),
            convergence=ConvergenceInfo(0, 0.0, 0.0),
        )
        assert predict_cox_median(fit, np.array([0.0])) is None

    def test_median_monotone_in_risk(self, rng):
        fit = fit_cox(ph_dataset(rng, 400, [1.0]))
        b = float(fit.beta[0])
        xs = np.linspace(-2, 2, 9)[:, None] * np.sign(b)
        meds = predict_median_batch(fit, xs)
        present = ~np.isnan(meds)
        vals = meds[present]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_batch_matches_scalar(self, rng):
        data = ph_dataset(rng, 150, [1.2])
        fit = fit_cox(data)
        x = data.covariate_matrix[:25]
        batch = predict_median_batch(fit, x)
        for i in range(25):
            scalar = predict_cox_median(fit, x[i])
            if scalar is None:
                assert np.isnan(batch[i])
            else:
                assert batch[i] == scalar
