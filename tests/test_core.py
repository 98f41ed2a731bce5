"""Step functions, crossing search and the core dataset containers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from convsurv.core import (
    EventStatus,
    StepFunction,
    SurvivalDataset,
    SurvivalRecord,
    TimeAxis,
    complement,
    evaluate_step,
    median_crossing,
    survival_to_incidence,
)
from convsurv.errors import InvalidCurveError, ShapeMismatchError
from convsurv.evaluation import SplitSpec, stratified_split

from conftest import make_dataset
from oracles import ReferenceDataset, reference_split


def survival_f():
    return StepFunction(np.array([1.0, 2.0]), np.array([0.5, 0.25]), 1.0)


class TestStepFunction:
    def test_below_first_knot(self):
        assert evaluate_step(survival_f(), 0.5) == 1.0

    def test_right_continuous_at_knot(self):
        assert evaluate_step(survival_f(), 1) == 0.5

    def test_beyond_last_knot_holds_last_value(self):
        assert evaluate_step(survival_f(), 10) == 0.25

    def test_array_evaluation(self):
        out = survival_f()(np.array([0.0, 1.0, 1.5, 2.0, 3.0]))
        assert_allclose(out, [1.0, 0.5, 0.5, 0.25, 0.25])

    def test_knots_must_increase(self):
        with pytest.raises(InvalidCurveError, match="increasing"):
            StepFunction(np.array([2.0, 1.0]), np.array([0.5, 0.2]), 1.0)

    def test_length_mismatch(self):
        with pytest.raises(InvalidCurveError, match="equal length"):
            StepFunction(np.array([1.0]), np.array([0.5, 0.2]), 1.0)

    def test_refinement_never_changes_evaluations(self, rng):
        """Inserting knots that duplicate the current value is a no-op."""
        for _ in range(25):
            k = np.sort(rng.choice(np.arange(1, 50), size=5, replace=False)).astype(float)
            v = np.sort(rng.random(5))[::-1]
            f = StepFunction(k, v, 1.0)
            # refine: add a knot between each pair carrying the left value
            new_k = [0.5]
            new_v = [1.0]
            for i, knot in enumerate(k):
                new_k.append(knot)
                new_v.append(v[i])
                new_k.append(knot + 0.25)
                new_v.append(v[i])
            g = StepFunction(np.array(new_k), np.array(new_v), 1.0)
            ts = rng.random(40) * 60
            assert_allclose(g(ts), f(ts), rtol=0, atol=0)


class TestMedianCrossing:
    def test_survival_first_knot_at_or_below(self):
        f = StepFunction(np.array([3.0, 7.0]), np.array([0.6, 0.4]), 1.0)
        assert median_crossing(f, 0.5) == 7.0

    def test_survival_never_crosses(self):
        f = StepFunction(np.array([3.0, 7.0]), np.array([0.9, 0.8]), 1.0)
        assert median_crossing(f, 0.5) is None

    def test_incidence_upward_crossing(self):
        f = StepFunction(np.array([2.0, 5.0]), np.array([0.3, 0.55]), 0.0)
        assert median_crossing(f, 0.5) == 5.0

    def test_result_is_a_knot(self, rng):
        for _ in range(30):
            k = np.sort(rng.choice(np.arange(1, 100), size=8, replace=False)).astype(float)
            v = np.sort(rng.random(8))[::-1]
            f = StepFunction(k, v, 1.0)
            m = median_crossing(f, 0.5)
            if m is not None:
                assert m in k

    def test_non_monotone_rejected(self):
        f = StepFunction(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.7, 0.4]), 1.0)
        with pytest.raises(InvalidCurveError, match="monotone"):
            median_crossing(f, 0.5)

    def test_threshold_domain(self):
        with pytest.raises(InvalidCurveError, match="threshold"):
            median_crossing(survival_f(), 1.5)

    def test_constant_survival_never_crosses(self):
        f = StepFunction(np.zeros(0), np.zeros(0), 1.0)
        assert median_crossing(f, 0.5) is None


class TestComplement:
    def test_pointwise_complement(self):
        s = StepFunction(np.array([1.0, 2.0]), np.array([0.75, 0.5]), 1.0)
        inc = survival_to_incidence(s)
        assert_allclose(inc.values, [0.25, 0.5])
        assert inc.left_value == 0.0

    def test_no_events(self):
        s = StepFunction(np.zeros(0), np.zeros(0), 1.0)
        inc = complement(s)
        assert inc.left_value == 0.0
        assert inc(123.0) == 0.0

    def test_certain_event(self):
        s = StepFunction(np.array([1.0]), np.array([0.0]), 1.0)
        inc = complement(s)
        assert inc(1.0) == 1.0
        assert inc(0.5) == 0.0

    def test_involution(self, rng):
        """complement(complement(f)) == f on valid survival curves."""
        for _ in range(20):
            k = np.sort(rng.choice(np.arange(1, 40), size=6, replace=False)).astype(float)
            v = np.sort(rng.random(6))[::-1]
            f = StepFunction(k, v, 1.0)
            g = complement(complement(f))
            assert_allclose(g.values, f.values, rtol=0, atol=0)
            assert g.left_value == f.left_value

    def test_rejects_values_outside_unit_interval(self):
        f = StepFunction(np.array([1.0]), np.array([1.5]), 0.0)
        with pytest.raises(InvalidCurveError, match=r"\[0, 1\]"):
            complement(f)

    def test_rejects_non_monotone(self):
        f = StepFunction(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.7, 0.4]), 1.0)
        with pytest.raises(InvalidCurveError, match="monotone"):
            complement(f)


class TestRecordsAndDataset:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SurvivalRecord("a", -1.0, EventStatus.CENSORED, (0.0,))

    def test_non_finite_covariates_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SurvivalRecord("a", 1.0, EventStatus.CENSORED, (float("nan"),))

    def test_churned_requires_competing_flag(self):
        with pytest.raises(ValueError, match="CHURNED"):
            make_dataset([1.0], [EventStatus.CHURNED])

    def test_duplicate_subject_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SurvivalDataset(("a", "a"), [1.0, 1.0], [0, 0], [[0.0], [0.0]],
                            ("f0",), TimeAxis.LIFETIME, False)

    def test_covariate_dimension_checked(self):
        with pytest.raises(ShapeMismatchError):
            SurvivalDataset(("a", "b"), [1.0, 1.0], [0, 0], [[0.0, 1.0], [0.0, 1.0]],
                            ("f0",), TimeAxis.LIFETIME, False)

    def test_recode_competing_as_censored(self):
        d = make_dataset([1, 2, 3],
                         [EventStatus.CONVERTED, EventStatus.CHURNED,
                          EventStatus.CENSORED], competing=True)
        single = d.recode_competing_as_censored()
        assert not single.competing_risks
        assert [r.status for r in single.records] == [
            EventStatus.CONVERTED, EventStatus.CENSORED, EventStatus.CENSORED]
        assert_allclose(single.times, d.times)

    def test_matrix_shape(self):
        d = make_dataset([1, 2], [1, 0], x=[(1.0, 2.0), (3.0, 4.0)])
        assert d.covariate_matrix.shape == (2, 2)
        assert d.n_features == 2


# --- columnar dataset against the record-based reference --------------------

FAULTS = ("negative-time", "nan-time", "inf-time", "nan-covariate",
          "unknown-status", "churned-single-risk", "duplicate-id",
          "wide-covariates")


def make_case(times, codes, x, p, competing, fault=None, where=0):
    """Parallel subject columns, with ``fault`` injected at row ``where``."""
    n = len(times)
    ids = [f"s{i}" for i in range(n)]
    times, codes, x = list(times), list(codes), [list(row) for row in x]
    if fault == "negative-time":
        times[where] = -1.0
    elif fault == "nan-time":
        times[where] = float("nan")
    elif fault == "inf-time":
        times[where] = float("inf")
    elif fault == "nan-covariate" and p:
        x[where][0] = float("nan")
    elif fault == "unknown-status":
        codes[where] = 3
    elif fault == "churned-single-risk":
        codes[where], competing = 2, False
    elif fault == "duplicate-id" and n > 1:
        ids[where] = ids[where - 1]
    elif fault == "wide-covariates":
        x = [row + [0.0] for row in x]
    return ids, times, codes, x, p, competing


@st.composite
def subject_cases(draw):
    n = draw(st.integers(0, 10))
    p = draw(st.integers(0, 3))
    competing = draw(st.booleans())
    times = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0, 50),
                          min_size=n, max_size=n))
    codes = draw(st.lists(st.sampled_from([0, 1, 2] if competing else [0, 1]),
                          min_size=n, max_size=n))
    x = draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=p, max_size=p),
                      min_size=n, max_size=n))
    fault = draw(st.sampled_from((None,) + FAULTS)) if n else None
    where = draw(st.integers(0, max(n - 1, 0)))
    return make_case(times, codes, x, p, competing, fault, where)


def outcome(build):
    """(result, None) or (None, the exception type) of ``build()``."""
    try:
        return build(), None
    except Exception as exc:  # the type is what gets compared
        return None, type(exc)


def build_both(case):
    ids, times, codes, x, p, competing = case
    names = tuple(f"f{j}" for j in range(p))
    width = len(x[0]) if x else p
    columnar = outcome(lambda: SurvivalDataset(
        tuple(ids), times, codes, np.array(x, dtype=float).reshape(len(ids), width),
        names, TimeAxis.LEVEL, competing))
    reference = outcome(lambda: ReferenceDataset(
        tuple(SurvivalRecord(*row) for row in zip(ids, times, codes, x)),
        names, TimeAxis.LEVEL, competing))
    return columnar, reference


def assert_same(col, ref):
    assert col.subject_ids == tuple(r.subject_id for r in ref.records)
    for name in ("times", "status_codes", "covariate_matrix"):
        got, want = getattr(col, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert col.records == ref.records
    assert len(col) == len(ref) and col.competing_risks == ref.competing_risks
    assert all(col.n_events(s) == ref.n_events(s) for s in EventStatus)


class TestColumnarDataset:
    @settings(max_examples=300, deadline=None)
    @given(case=subject_cases(), data=st.data())
    def test_matches_record_reference(self, case, data):
        (col, col_err), (ref, ref_err) = build_both(case)
        assert col_err is ref_err
        if ref is None:
            return
        assert_same(col, ref)
        assert_same(col.recode_competing_as_censored(), ref.recode_competing_as_censored())
        n = len(ref)
        indices = data.draw(st.lists(st.integers(-n, n - 1), max_size=12) if n
                            else st.just([]))
        (sub, sub_err), (ref_sub, ref_sub_err) = (
            outcome(lambda: col.subset(indices)), outcome(lambda: ref.subset(indices)))
        assert sub_err is ref_sub_err
        if ref_sub is not None:
            assert_same(sub, ref_sub)
        spec = SplitSpec(train_fraction=data.draw(st.sampled_from([0.3, 0.5, 0.7])),
                         stratify_on_converter=data.draw(st.booleans()),
                         seed=data.draw(st.integers(0, 5)))
        (split, split_err), (ref_split, ref_split_err) = (
            outcome(lambda: stratified_split(col, spec)),
            outcome(lambda: reference_split(ref, spec)))
        assert split_err is ref_split_err
        if ref_split is not None:
            for got, want in zip(split, ref_split):
                assert_same(got, want)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_every_fault_is_rejected_like_the_reference(self, fault):
        case = make_case([1.0, 2.0, 3.0], [1, 0, 1], [[0.5], [1.5], [2.5]], 1,
                         True, fault, where=1)
        (_, col_err), (_, ref_err) = build_both(case)
        assert ref_err is not None and col_err is ref_err
