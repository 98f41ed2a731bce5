"""Nonparametric estimators against hand counts and brute-force oracles."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtr, ndtri

from convsurv.core import EventStatus
from convsurv.errors import EmptyInputError, InvalidEventError, WrongEstimatorError
from convsurv.estimators import (
    _MAXLOG,
    _SQRT1_2,
    _critical_value,
    aalen_johansen,
    all_cause_survival,
    cif_confidence_band,
    cif_values_from_counts,
    kaplan_meier,
    km_confidence_band,
    km_values_from_counts,
    na_values_from_counts,
    nelson_aalen,
    risk_table,
    two_sided_normal_pvalue,
)
from convsurv.forest import _feature_pvalues

import oracles
from conftest import make_dataset, random_dataset

CONV = EventStatus.CONVERTED
CENS = EventStatus.CENSORED
CHURN = EventStatus.CHURNED


def every_estimate(d) -> dict:
    """Each estimator's output on competing-risks data ``d``; the
    single-risk ones see churn as censoring."""
    single = d.recode_competing_as_censored()
    out = {"risk_table": risk_table(d), "all_cause_survival": all_cause_survival(d),
           "kaplan_meier": kaplan_meier(single), "nelson_aalen": nelson_aalen(single),
           "km_confidence_band": km_confidence_band(single)}
    for event in (CONV, CHURN):
        out[f"aalen_johansen {event.name}"] = aalen_johansen(d, event)
        out[f"cif_confidence_band {event.name}"] = cif_confidence_band(d, event)
    return out


def fields(result) -> list:
    """Every field of a step function or risk table, or of a pair of them."""
    if isinstance(result, tuple):
        return [a for part in result for a in fields(part)]
    return [np.asarray(getattr(result, f.name)) for f in dataclasses.fields(result)]


def three_mixed():
    # events at 1 and 3, censoring at 2
    return make_dataset([1, 2, 3], [CONV, CENS, CONV])


class TestRiskTable:
    def test_hand_count(self):
        t = risk_table(three_mixed())
        assert_allclose(t.event_times, [1, 3])
        assert_allclose(t.at_risk, [3, 1])
        assert_allclose(t.events, [1, 1])

    def test_all_censored_no_event_times(self):
        t = risk_table(make_dataset([1, 2, 3], [CENS, CENS, CENS]))
        assert t.event_times.size == 0
        assert t.events.sum() == 0

    def test_tied_events(self):
        t = risk_table(make_dataset([2, 2, 2], [CONV, CONV, CONV]))
        assert_allclose(t.event_times, [2])
        assert_allclose(t.at_risk, [3])
        assert_allclose(t.events, [3])

    def test_counts_are_exhaustive(self, rng):
        for _ in range(20):
            d = random_dataset(rng, int(rng.integers(1, 20)), competing=True)
            t = risk_table(d)
            assert t.events.sum() + d.n_events(CENS) == len(d)

    def test_empty_dataset(self):
        with pytest.raises(EmptyInputError):
            risk_table(make_dataset([], []))


class TestKaplanMeier:
    def test_no_censoring_is_empirical_survival(self):
        s = kaplan_meier(make_dataset([1, 2, 3], [CONV, CONV, CONV]))
        assert_allclose(s.values, [2 / 3, 1 / 3, 0.0])

    def test_product_limit_by_hand(self):
        # (1 - 1/3) * (1 - 1/1)
        s = kaplan_meier(three_mixed())
        assert_allclose(s(1), 2 / 3)
        assert_allclose(s(3), 0.0)

    def test_all_censored_is_one(self):
        s = kaplan_meier(make_dataset([1, 2], [CENS, CENS]))
        assert s.knots.size == 0
        assert s(100.0) == 1.0

    def test_empirical_survival_property(self, rng):
        """With no censoring, S(t) equals the empirical survival exactly."""
        for _ in range(10):
            n = int(rng.integers(2, 25))
            times = rng.integers(1, 10, n).astype(float)
            d = make_dataset(times, [CONV] * n)
            s = kaplan_meier(d)
            for t in np.unique(times):
                assert_allclose(s(t), np.mean(times > t), atol=1e-15)

    def test_competing_dataset_rejected(self):
        d = make_dataset([1, 2], [CONV, CHURN], competing=True)
        with pytest.raises(WrongEstimatorError):
            kaplan_meier(d)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            kaplan_meier(make_dataset([], []))


class TestNelsonAalen:
    def test_hand_sum_no_censoring(self):
        h = nelson_aalen(make_dataset([1, 2, 3], [CONV, CONV, CONV]))
        assert_allclose(h.values, [1 / 3, 1 / 3 + 1 / 2, 1 / 3 + 1 / 2 + 1])

    def test_hand_sum_with_censoring(self):
        h = nelson_aalen(three_mixed())
        assert_allclose(h(1), 1 / 3)
        assert_allclose(h(3), 4 / 3)

    def test_all_censored_is_zero(self):
        h = nelson_aalen(make_dataset([1, 2], [CENS, CENS]))
        assert h(50.0) == 0.0

    def test_exp_neg_na_dominates_km(self, rng):
        """exp(-H) >= S pointwise, the classical inequality."""
        for _ in range(20):
            d = random_dataset(rng, int(rng.integers(2, 25)))
            s = kaplan_meier(d)
            h = nelson_aalen(d)
            assert np.all(np.exp(-h.values) >= s.values - 1e-12)


class TestAalenJohansen:
    def test_hand_competing_example(self):
        d = make_dataset([1, 2, 3], [CONV, CHURN, CENS], competing=True)
        conv = aalen_johansen(d, CONV)
        churn = aalen_johansen(d, CHURN)
        assert_allclose(conv(10), 1 / 3)
        assert_allclose(churn(10), 1 / 3)

    def test_single_risk_degeneracy(self):
        """No churn events: CIF equals 1 - KM on the recoded dataset."""
        d = make_dataset([1, 2, 3, 4], [CONV, CENS, CONV, CENS], competing=True)
        cif = aalen_johansen(d, CONV)
        s = kaplan_meier(d.recode_competing_as_censored())
        assert_allclose(cif.values, 1.0 - s(cif.knots), atol=1e-12)

    def test_all_censored(self):
        d = make_dataset([1, 2], [CENS, CENS], competing=True)
        assert aalen_johansen(d, CONV)(99) == 0.0
        assert aalen_johansen(d, CHURN)(99) == 0.0

    def test_conservation(self, rng):
        """All-cause S(t) + CIF_conv(t) + CIF_churn(t) = 1 at every knot."""
        for _ in range(30):
            d = random_dataset(rng, int(rng.integers(2, 25)), competing=True)
            conv = aalen_johansen(d, CONV)
            churn = aalen_johansen(d, CHURN)
            s = all_cause_survival(d)
            total = s(conv.knots) + conv.values + churn.values
            assert_allclose(total, 1.0, atol=1e-9)

    def test_invalid_event(self):
        d = make_dataset([1], [CONV], competing=True)
        with pytest.raises(InvalidEventError):
            aalen_johansen(d, CENS)

    def test_single_risk_dataset_rejected(self):
        with pytest.raises(WrongEstimatorError):
            aalen_johansen(make_dataset([1], [CONV]), CONV)


class TestCountKernels:
    """The kernels that turn per-knot counts into curve values."""

    KERNELS = {
        "km": lambda q, d: km_values_from_counts(q, d),
        "na": lambda q, d: na_values_from_counts(q, d),
        "cif": lambda q, d: cif_values_from_counts(q, d, d // 2),
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_empty_counts_give_empty_float_values(self, kernel):
        empty = np.zeros(0, dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.KERNELS[kernel](empty, empty)
        assert out.dtype == np.float64 and out.shape == (0,)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_stacked_rows_match_each_row_alone(self, kernel, rng):
        at_risk = rng.integers(5, 40, size=(4, 6))
        events = rng.integers(0, 5, size=(4, 6))
        stacked = self.KERNELS[kernel](at_risk, events)
        for row in range(4):
            assert np.array_equal(
                stacked[row], self.KERNELS[kernel](at_risk[row], events[row]))


class TestOracleAgreement:
    """Spot checks against the brute-force formulas (full sweep is in the
    acceptance suite)."""

    def test_km_and_na_match_oracle(self, rng):
        for _ in range(15):
            d = random_dataset(rng, int(rng.integers(1, 15)))
            ev = [s == CONV for s in d.status_codes == 1]
            s = kaplan_meier(d)
            h = nelson_aalen(d)
            for t in list(d.times) + [0.0, 1e6]:
                assert_allclose(s(t), oracles.km_survival_at(d.times, ev, t),
                                atol=1e-12)
                assert_allclose(h(t), oracles.na_cumhaz_at(d.times, ev, t),
                                atol=1e-12)

    def test_cif_matches_oracle(self, rng):
        for _ in range(15):
            d = random_dataset(rng, int(rng.integers(1, 15)), competing=True)
            statuses = [int(s) for s in d.status_codes]
            conv = aalen_johansen(d, CONV)
            for t in list(d.times) + [1e6]:
                assert_allclose(conv(t),
                                oracles.cif_at(d.times, statuses, 1, t),
                                atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_permutation_invariance(self, data):
        """Shuffling the records leaves every estimator's output
        bit-identical, on data with tied times and churn."""
        records = data.draw(st.lists(st.tuples(
            st.sampled_from([1.0, 2.0, 2.5, 7.0]) | st.floats(0.01, 50.0).map(
                lambda t: round(t, 2)),
            st.sampled_from([CENS, CONV, CHURN])), min_size=1, max_size=40))
        times, statuses = zip(*records)
        d = make_dataset(times, statuses, competing=True)
        shuffled = d.subset(data.draw(st.permutations(range(len(d)))))
        want, got = every_estimate(d), every_estimate(shuffled)
        for name in want:
            a, b = fields(want[name]), fields(got[name])
            assert len(a) == len(b) and all(
                np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b)), name


class TestConfidenceBand:
    def test_contains_point_estimate(self, rng):
        for _ in range(10):
            d = random_dataset(rng, int(rng.integers(2, 30)))
            s = kaplan_meier(d)
            lo, hi = km_confidence_band(d, 0.95)
            assert np.all(lo.values <= s.values + 1e-12)
            assert np.all(hi.values >= s.values - 1e-12)

    def test_single_event_degenerate_lower(self):
        """One subject, one event: S hits 0 and the band collapses to 0."""
        lo, hi = km_confidence_band(make_dataset([5], [CONV]), 0.95)
        assert lo(5) == 0.0
        assert hi(5) == 0.0

    def test_width_monotone_in_level(self, rng):
        d = random_dataset(rng, 25)
        lo90, hi90 = km_confidence_band(d, 0.90)
        lo99, hi99 = km_confidence_band(d, 0.99)
        w90 = hi90.values - lo90.values
        w99 = hi99.values - lo99.values
        assert np.all(w99 >= w90 - 1e-12)

    def test_level_validated(self):
        with pytest.raises(ValueError, match="level"):
            km_confidence_band(make_dataset([1], [CONV]), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            km_confidence_band(make_dataset([], []), 0.95)

    def test_cif_band_contains_estimate(self, rng):
        for _ in range(10):
            d = random_dataset(rng, int(rng.integers(3, 30)), competing=True)
            cif = aalen_johansen(d, CONV)
            lo, hi = cif_confidence_band(d, CONV, 0.95)
            assert np.all(lo.values <= cif.values + 1e-12)
            assert np.all(hi.values >= cif.values - 1e-12)


# c where the port changes branch: ndtr's erf/erfc switch, erfc's 1 - erf
# switch, its P/Q to R/S switch and its underflow to 0; each one ulp
# either side too
BRANCH_EDGES = [math.nextafter(z / _SQRT1_2, toward)
                for z in (_SQRT1_2, 1.0, 8.0, math.sqrt(_MAXLOG))
                for toward in (0.0, z / _SQRT1_2, math.inf)]
# 2 * ndtr(-c) is subnormal from about c = 37.5 up to the underflow edge
SUBNORMAL_TAIL = [37.5, 37.55, 37.6, 37.65, 37.67, 38.0, 38.6]


def scipy_pvalue(c):
    return 2.0 * ndtr(-c)


def with_examples(values):
    """One hypothesis ``@example(c=v)`` per value."""
    def decorate(test):
        for v in values:
            test = example(c=v)(test)
        return test
    return decorate


class TestTwoSidedNormalPvalue:
    """The cephes port equals 2 * scipy.special.ndtr(-c) bit for bit."""

    @settings(max_examples=2000, deadline=None)
    @given(c=st.floats(0.0, 40.0) | st.floats(min_value=0.0) | st.just(math.nan))
    @with_examples(BRANCH_EDGES + SUBNORMAL_TAIL
                   + [0.0, 5e-324, 2.2250738585072014e-308, math.inf, math.nan])
    def test_equals_scipy(self, c):
        got, want = two_sided_normal_pvalue(c), float(scipy_pvalue(c))
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_seeded_sweep(self):
        rng = np.random.default_rng(22)
        c = np.concatenate([rng.uniform(0.0, 40.0, 50_000),
                            np.exp(rng.uniform(-745.0, 4.0, 50_000))])
        got = np.array([two_sided_normal_pvalue(v) for v in c.tolist()])
        assert np.array_equal(got, scipy_pvalue(c))

    def test_feature_pvalues_match_scipy_formula(self):
        """The forest's variable test on random nodes, constant and tied
        columns and one-row nodes included."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            n, p = int(rng.integers(1, 60)), int(rng.integers(1, 6))
            x = rng.integers(0, int(rng.integers(1, 8)), (n, p)).astype(float)
            x[:, rng.random(p) < 0.3] *= rng.normal(size=n)[:, None]
            # scores tied to the first column give small p-values too
            a = rng.normal(size=n) * (rng.random(n) < 0.8) + rng.exponential(2.0) * x[:, 0]
            assert np.array_equal(_feature_pvalues(x, a),
                                  oracles.reference_feature_pvalues(x, a))


class TestCriticalValue:
    """The bands' z from the standard library against scipy's ndtri."""

    @settings(max_examples=2000, deadline=None)
    @given(level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(level=1e-300)
    @example(level=0.5)
    @example(level=0.95)
    @example(level=0.9999999999999999)
    def test_matches_scipy_ndtri(self, level):
        z = _critical_value(level)
        assert math.isclose(z, -float(ndtri((1 - level) / 2)), rel_tol=4e-15)

    def test_largest_level_below_one_is_finite(self):
        assert 8.2 < _critical_value(math.nextafter(1.0, 0.0)) < 8.3
