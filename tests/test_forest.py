"""Tree ensembles: splitting behavior, aggregation identities, determinism."""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from convsurv import core, forest
from convsurv.core import EventStatus, TimeAxis
from convsurv.errors import (
    ConfigError,
    DegenerateFitError,
    InvalidModelError,
    ShapeMismatchError,
    WrongEstimatorError,
)
from convsurv.estimators import aalen_johansen, kaplan_meier, nelson_aalen
from convsurv.forest import (
    ForestConfig,
    ForestKind,
    ForestModel,
    Leaf,
    SurvivalTree,
    _leaf_curve_matrix,
    _route,
    fit_conditional_ensemble,
    fit_rsf,
    fit_rsf_competing,
    predict_forest_incidence,
    predict_forest_median,
    predict_forest_survival,
    predict_incidence_matrix,
    predict_median_batch,
    predict_survival_matrix,
)

import oracles
from conftest import make_dataset

CONV = EventStatus.CONVERTED
CENS = EventStatus.CENSORED
CHURN = EventStatus.CHURNED


def separable_dataset(rng, n=200):
    """Feature 0 separates early converters from late/never ones."""
    flag = rng.random(n) < 0.5
    times = np.where(flag, rng.integers(1, 5, n), rng.integers(20, 40, n))
    statuses = np.where(rng.random(n) < 0.85, CONV, CENS)
    x = np.column_stack([flag.astype(float), rng.standard_normal(n)])
    return make_dataset(times.astype(float), statuses, x)


def generic_dataset(rng, n=250, p=3):
    x = rng.standard_normal((n, p))
    t_event = rng.exponential(np.exp(1.5 - x[:, 0]), n)
    c = rng.exponential(8.0, n)
    times = np.round(np.minimum(t_event, c), 2)
    statuses = np.where(t_event <= c, CONV, CENS)
    return make_dataset(times, statuses, x)


def competing_dataset(rng, n=250):
    x = rng.standard_normal((n, 3))
    t_conv = rng.exponential(np.exp(1.0 - x[:, 0]), n)
    t_churn = rng.exponential(np.exp(1.0 + x[:, 0]), n)
    c = rng.exponential(10.0, n)
    times = np.round(np.minimum(np.minimum(t_conv, t_churn), c), 2)
    statuses = np.where(t_conv <= np.minimum(t_churn, c), CONV,
                        np.where(t_churn <= c, CHURN, CENS))
    return make_dataset(times, statuses, x, competing=True)


def stump_config(n, **kw):
    return ForestConfig(n_trees=1, bootstrap=False, min_node_events=n + 1,
                        seed=3, **kw)


class TestForestConfig:
    def test_defaults(self):
        cfg = ForestConfig()
        assert cfg.n_trees == 900
        assert cfg.min_node_events == 15
        assert cfg.alpha == 0.05
        assert cfg.aggregate == "pooled"

    @pytest.mark.parametrize("kwargs", [
        {"n_trees": 0}, {"alpha": 0.0}, {"aggregate": "median"},
        {"min_node_events": 0}, {"mtry": 0}, {"max_candidates": 0}, {"seed": -1},
        {"max_depth": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ForestConfig(**kwargs)

    def test_mtry_cannot_exceed_feature_count(self, rng):
        d = generic_dataset(rng, 60, p=2)
        with pytest.raises(ConfigError):
            fit_rsf(d, ForestConfig(n_trees=2, mtry=5, seed=1))


class TestRsf:
    def test_stump_collapses_to_pooled_nelson_aalen(self, rng):
        d = generic_dataset(rng, 120)
        m = fit_rsf(d, stump_config(120))
        s = predict_forest_survival(m, np.zeros(3))
        h = nelson_aalen(d)
        assert_allclose(s.values, np.exp(-h(s.knots)), rtol=0, atol=0)

    def test_separating_feature_dominates_root(self, rng):
        d = separable_dataset(rng)
        m = fit_rsf(d, ForestConfig(n_trees=60, mtry=2, min_node_events=10, seed=11))
        roots = [t.feature[0] for t in m.trees]
        assert np.mean([r == 0 for r in roots]) >= 0.95

    def test_identical_seed_identical_forest(self, rng):
        d = generic_dataset(rng, 150)
        cfg = ForestConfig(n_trees=20, seed=42, min_node_events=8)
        m1, m2 = fit_rsf(d, cfg), fit_rsf(d, cfg)
        x = rng.standard_normal((10, 3))
        assert np.array_equal(predict_survival_matrix(m1, x),
                              predict_survival_matrix(m2, x))

    def test_feature_permutation_with_full_mtry(self, rng):
        """With mtry=p and continuous data, permuting feature columns
        relabels splits but leaves every prediction bit-identical."""
        d = generic_dataset(rng, 150, p=3)
        perm = [2, 0, 1]
        d_perm = make_dataset(
            [r.time for r in d.records],
            [r.status for r in d.records],
            [tuple(r.covariates[j] for j in perm) for r in d.records])
        cfg = ForestConfig(n_trees=12, mtry=3, min_node_events=8, seed=5)
        m1 = fit_rsf(d, cfg)
        m2 = fit_rsf(d_perm, cfg)
        x = rng.standard_normal((20, 3))
        x_perm = x[:, perm]
        assert np.array_equal(predict_survival_matrix(m1, x),
                              predict_survival_matrix(m2, x_perm))

    def test_structural_identity_neg_log_equals_mean_hazard(self, rng):
        """-ln(ensemble survival) is the mean of per-tree leaf hazards."""
        d = generic_dataset(rng, 200)
        m = fit_rsf(d, ForestConfig(n_trees=10, min_node_events=8, seed=2))
        x = rng.standard_normal((15, 3))
        surv = predict_survival_matrix(m, x)
        acc = np.zeros_like(surv)
        for tree in m.trees:
            assign = _route(tree, x)
            acc += _leaf_curve_matrix(tree, m.grid, "cumhaz")[assign]
        assert_allclose(-np.log(surv), acc / len(m.trees), atol=1e-9)

    def test_leaf_event_floor(self, rng):
        """Every leaf below a split carries >= min_node_events events."""
        d = generic_dataset(rng, 300)
        m = fit_rsf(d, ForestConfig(n_trees=15, min_node_events=12, seed=8))
        for tree in m.trees:
            if tree.feature[0] < 0:
                continue  # unsplittable root
            for leaf in tree.leaves:
                assert leaf.d_total.sum() >= 12

    def test_single_risk_required(self, rng):
        with pytest.raises(WrongEstimatorError):
            fit_rsf(competing_dataset(rng), ForestConfig(n_trees=1, seed=0))

    def test_zero_events_rejected(self):
        d = make_dataset([1.0, 2.0], [CENS, CENS], x=[(0.0,), (1.0,)])
        with pytest.raises(DegenerateFitError):
            fit_rsf(d, ForestConfig(n_trees=1, seed=0))


class TestConditionalEnsemble:
    def test_stump_collapses_to_pooled_km(self, rng):
        d = generic_dataset(rng, 120)
        m = fit_conditional_ensemble(d, stump_config(120))
        s = predict_forest_survival(m, np.zeros(3))
        km = kaplan_meier(d)
        assert_allclose(s.values, km(s.knots), rtol=0, atol=0)

    def test_noise_features_mostly_stop_at_root(self, rng):
        """Pure noise with alpha=0.05: the vast majority of trees are
        single leaves and the ensemble tracks the pooled estimate."""
        n = 150
        times = np.round(rng.exponential(5.0, n), 2)
        statuses = np.where(rng.random(n) < 0.7, CONV, CENS)
        x = rng.standard_normal((n, 3))
        d = make_dataset(times, statuses, x)
        m = fit_conditional_ensemble(
            d, ForestConfig(n_trees=100, min_node_events=5, seed=17))
        stumps = sum(1 for t in m.trees if t.feature[0] < 0)
        assert stumps >= 80
        s = predict_forest_survival(m, np.zeros(3))
        km = kaplan_meier(d)
        assert np.max(np.abs(s.values - km(s.knots))) < 0.08

    def test_informative_feature_is_used(self, rng):
        d = separable_dataset(rng)
        m = fit_conditional_ensemble(
            d, ForestConfig(n_trees=40, mtry=2, min_node_events=10, seed=19))
        roots = [t.feature[0] for t in m.trees]
        assert np.mean([r == 0 for r in roots]) >= 0.9

    def test_bootstrap_disabled_determinism(self, rng):
        d = separable_dataset(rng, 150)
        cfg = ForestConfig(n_trees=4, bootstrap=False, min_node_events=10,
                           seed=23, mtry=2)
        m1 = fit_conditional_ensemble(d, cfg)
        m2 = fit_conditional_ensemble(d, cfg)
        for t1, t2 in zip(m1.trees, m2.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)

    def test_duplicated_feature_column_is_noise_level(self, rng):
        """Adding a copy of an existing column moves curves < 0.02."""
        d = generic_dataset(rng, 300, p=2)
        dup = make_dataset(
            [r.time for r in d.records],
            [r.status for r in d.records],
            [r.covariates + (r.covariates[0],) for r in d.records])
        cfg = ForestConfig(n_trees=900, min_node_events=10, seed=31)
        m1 = fit_conditional_ensemble(d, cfg)
        m2 = fit_conditional_ensemble(dup, cfg)
        x = rng.standard_normal((25, 2))
        x_dup = np.column_stack([x, x[:, 0]])
        s1 = predict_survival_matrix(m1, x)
        s2 = predict_survival_matrix(m2, x_dup)
        assert np.mean(np.abs(s1 - s2)) < 0.02

    def test_pooled_and_mean_agree_without_bootstrap_stumps(self, rng):
        d = generic_dataset(rng, 100)
        n = len(d)
        m_pooled = fit_conditional_ensemble(
            d, ForestConfig(n_trees=5, bootstrap=False, min_node_events=n + 1,
                            seed=1, aggregate="pooled"))
        m_mean = fit_conditional_ensemble(
            d, ForestConfig(n_trees=5, bootstrap=False, min_node_events=n + 1,
                            seed=1, aggregate="mean"))
        x = np.zeros((1, 3))
        assert_allclose(predict_survival_matrix(m_pooled, x),
                        predict_survival_matrix(m_mean, x), atol=1e-12)


class TestCompetingForest:
    def test_conservation(self, rng):
        d = competing_dataset(rng)
        m = fit_rsf_competing(d, ForestConfig(n_trees=30, min_node_events=10, seed=3))
        x = rng.standard_normal((12, 3))
        total = (predict_survival_matrix(m, x)
                 + predict_incidence_matrix(m, x, CONV)
                 + predict_incidence_matrix(m, x, CHURN))
        assert_allclose(total, 1.0, atol=1e-6)

    def test_stump_collapses_to_aalen_johansen(self, rng):
        d = competing_dataset(rng, 150)
        m = fit_rsf_competing(d, stump_config(150))
        inc = predict_forest_incidence(m, np.zeros(3), CONV)
        aj = aalen_johansen(d, CONV)
        assert_allclose(inc.values, aj(inc.knots), rtol=0, atol=0)

    def test_zero_churn_degenerates_to_rsf_trees(self, rng):
        """Without churn rows the competing forest grows the same trees as
        the single-risk forest under the same seeds."""
        d = generic_dataset(rng, 200)
        d_cr = make_dataset([r.time for r in d.records],
                            [r.status for r in d.records],
                            [r.covariates for r in d.records], competing=True)
        cfg = ForestConfig(n_trees=10, min_node_events=8, seed=77)
        m_rsf = fit_rsf(d, cfg)
        m_cr = fit_rsf_competing(d_cr, cfg)
        for t1, t2 in zip(m_rsf.trees, m_cr.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)
            for l1, l2 in zip(t1.leaves, t2.leaves):
                assert np.array_equal(l1.times, l2.times)
                assert np.array_equal(l1.at_risk, l2.at_risk)
                assert np.array_equal(l1.d_total, l2.d_total)
                assert l2.d_churn.sum() == 0
        # with no churn the conversion incidence is exactly the complement
        # of the all-cause survival
        x = rng.standard_normal((10, 3))
        s2 = predict_survival_matrix(m_cr, x)
        inc = predict_incidence_matrix(m_cr, x, CONV)
        assert np.max(np.abs(inc - (1.0 - s2))) < 1e-12

    def test_churn_separating_feature_dominates_root(self, rng):
        n = 240
        flag = rng.random(n) < 0.5
        t_conv = np.where(flag, rng.integers(1, 4, n), rng.integers(30, 40, n))
        t_churn = np.where(flag, rng.integers(30, 40, n), rng.integers(1, 4, n))
        statuses = np.where(t_conv < t_churn, CONV, CHURN)
        times = np.minimum(t_conv, t_churn).astype(float)
        x = np.column_stack([flag.astype(float), rng.standard_normal(n)])
        d = make_dataset(times, statuses, x, competing=True)
        m = fit_rsf_competing(
            d, ForestConfig(n_trees=40, mtry=2, min_node_events=10, seed=13))
        roots = [t.feature[0] for t in m.trees]
        assert np.mean([r == 0 for r in roots]) >= 0.9

    def test_requires_competing_dataset(self, rng):
        with pytest.raises(WrongEstimatorError):
            fit_rsf_competing(generic_dataset(rng, 50),
                              ForestConfig(n_trees=1, seed=0))

    def test_requires_conversion_events(self):
        d = make_dataset([1.0, 2.0], [CHURN, CENS], x=[(0.0,), (1.0,)],
                         competing=True)
        with pytest.raises(DegenerateFitError):
            fit_rsf_competing(d, ForestConfig(n_trees=1, seed=0))


class TestPrediction:
    def test_single_tree_reduces_to_leaf_curve(self, rng):
        d = generic_dataset(rng, 100)
        m = fit_rsf(d, stump_config(100))
        s = predict_forest_survival(m, np.zeros(3))
        tree = m.trees[0]
        leaf = tree.leaves[0]
        expect = np.exp(-_leaf_curve_matrix(tree, m.grid, "cumhaz")[0])
        assert_allclose(s.values, expect, rtol=0, atol=0)
        assert len(tree.leaves) == 1

    def test_curves_valid_for_random_inputs(self, rng):
        d = generic_dataset(rng, 200)
        m = fit_rsf(d, ForestConfig(n_trees=25, min_node_events=10, seed=4))
        x = rng.standard_normal((1000, 3))
        s = predict_survival_matrix(m, x)
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.all(np.diff(s, axis=1) <= 1e-12)

    def test_incidence_requires_competing_model(self, rng):
        d = generic_dataset(rng, 80)
        m = fit_rsf(d, ForestConfig(n_trees=2, min_node_events=10, seed=1))
        with pytest.raises(InvalidModelError):
            predict_forest_incidence(m, np.zeros(3), CONV)

    def test_dimension_mismatch(self, rng):
        d = generic_dataset(rng, 80)
        m = fit_rsf(d, ForestConfig(n_trees=2, min_node_events=10, seed=1))
        with pytest.raises(ShapeMismatchError):
            predict_forest_survival(m, np.zeros(5))

    def test_median_absent_when_never_crossing(self, rng):
        n = 100
        times = rng.integers(1, 50, n).astype(float)
        statuses = [CONV if i < 5 else CENS for i in range(n)]  # rare events
        d = make_dataset(times, statuses, x=rng.standard_normal((n, 2)))
        m = fit_rsf(d, stump_config(n))
        assert predict_forest_median(m, np.zeros(2)) is None

    def test_stump_median_matches_estimator_crossing(self, rng):
        from convsurv.core import median_crossing, StepFunction
        d = generic_dataset(rng, 120)
        m = fit_rsf(d, stump_config(120))
        h = nelson_aalen(d)
        pooled = StepFunction(h.knots, np.exp(-h.values), 1.0)
        assert predict_forest_median(m, np.zeros(3)) == median_crossing(pooled, 0.5)

    def test_median_batch_matches_scalar(self, rng):
        d = competing_dataset(rng, 200)
        m = fit_rsf_competing(d, ForestConfig(n_trees=15, min_node_events=10, seed=9))
        x = rng.standard_normal((30, 3))
        batch = predict_median_batch(m, x)
        for i in range(30):
            scalar = predict_forest_median(m, x[i])
            if scalar is None:
                assert np.isnan(batch[i])
            else:
                assert batch[i] == scalar

    def test_monotone_response_to_accelerating_feature(self, rng):
        """Increasing the conversion-accelerating feature never raises the
        predicted median on a monotone dataset."""
        n = 400
        x0 = rng.uniform(-2, 2, n)
        t_event = np.maximum(0.5, 20.0 - 6.0 * x0 + rng.normal(0, 0.5, n))
        times = np.round(t_event, 1)
        d = make_dataset(times, [CONV] * n,
                         x=np.column_stack([x0, rng.standard_normal(n)]))
        m = fit_rsf(d, ForestConfig(n_trees=40, min_node_events=15, seed=21))
        grid_x = np.column_stack([np.linspace(-1.5, 1.5, 13), np.zeros(13)])
        meds = predict_median_batch(m, grid_x)
        assert not np.isnan(meds).any()
        assert np.all(np.diff(meds) <= 1e-9)


def handmade_stump(at_risk, d_conv, d_churn=(0, 0)):
    """One-leaf tree whose leaf has events at times 1 and 2, the grid of
    ``handmade_model``, so its at-risk counts on the grid are ``at_risk``."""
    leaf = Leaf(times=np.array([1.0, 2.0]),
                at_risk=np.array(at_risk),
                d_conv=np.array(d_conv),
                d_churn=np.array(d_churn),
                at_risk_grid=np.array(at_risk))
    return SurvivalTree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([np.nan]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        leaf_index=np.array([0], dtype=np.int32),
        leaves=[leaf])


def handmade_model(kind, *trees, aggregate="pooled"):
    return ForestModel(kind=kind, trees=trees,
                       config=ForestConfig(n_trees=len(trees), seed=0,
                                           aggregate=aggregate),
                       feature_names=("f0",), axis=TimeAxis.LIFETIME,
                       grid=np.array([1.0, 2.0]))


class TestHandmadeEnsemble:
    def test_two_tree_hazard_average_by_hand(self):
        """Leaf hazards 0.2t and 0.4t at integer knots: S(1) = exp(-0.3)."""
        slow = handmade_stump([10, 5], [2, 1])   # hazard increments 0.2, 0.2
        fast = handmade_stump([10, 5], [4, 2])   # hazard increments 0.4, 0.4
        model = handmade_model(ForestKind.RSF, slow, fast)
        s = predict_forest_survival(model, np.zeros(1))
        assert s(1.0) == pytest.approx(np.exp(-0.3), rel=1e-12)
        assert s(2.0) == pytest.approx(np.exp(-0.6), rel=1e-12)

    def test_competing_median_absent_without_conversions(self):
        """A leaf with churn but no conversion events has a flat zero
        conversion incidence: no median, in the scalar and the batch."""
        model = handmade_model(ForestKind.COMPETING,
                               handmade_stump([10, 5], [0, 0], [2, 1]))
        assert np.all(predict_incidence_matrix(model, np.zeros((1, 1)), CONV) == 0.0)
        assert np.isnan(predict_median_batch(model, np.zeros((1, 1)))[0])
        assert predict_forest_median(model, np.zeros(1)) is None


def scan_medians(model, x):
    """Oracle: the first grid point where the full predicted curve crosses."""
    if model.kind == ForestKind.COMPETING:
        crossed = predict_incidence_matrix(model, x, CONV) >= 0.5
    else:
        crossed = predict_survival_matrix(model, x) <= 0.5
    out = np.full(len(x), np.nan)
    for i, row in enumerate(crossed):
        hits = np.nonzero(row)[0]
        if hits.size:
            out[i] = model.grid[hits[0]]
    return out


def censored_region_dataset(rng, competing, n=400):
    """Events are fast for large x0; for x0 < -0.5 they are so slow that
    censoring hides most of them, and rows there never reach a median."""
    x = rng.standard_normal((n, 3))
    scale = np.where(x[:, 0] < -0.5, 200.0, np.exp(1.0 - x[:, 0]))
    t_event = rng.exponential(scale, n)
    c = rng.exponential(12.0, n)
    times = np.round(np.minimum(t_event, c), 2) + 0.01
    statuses = np.where(t_event <= c, CONV, CENS)
    if competing:
        statuses = np.where((statuses == CONV) & (rng.random(n) < 0.3),
                            CHURN, statuses)
    return make_dataset(times, statuses, x, competing=competing)


@functools.cache
def median_models():
    """Fitted forests of every kind plus handmade stumps whose ensemble
    curve lands exactly on 0.5 at the first grid time."""
    rng = np.random.default_rng(99)
    single = censored_region_dataset(rng, competing=False)
    competing = censored_region_dataset(rng, competing=True)
    cfg = dict(n_trees=7, min_node_events=6, seed=4)
    return [
        fit_rsf(single, ForestConfig(**cfg)),
        fit_conditional_ensemble(single, ForestConfig(**cfg, alpha=0.5)),
        fit_conditional_ensemble(single, ForestConfig(**cfg, alpha=0.5,
                                                      aggregate="mean")),
        fit_rsf_competing(competing, ForestConfig(**cfg)),
        # survival 1 - 2/4 = 0.5, and the mean of 0.25 and 0.75
        handmade_model(ForestKind.CONDITIONAL, handmade_stump([4, 2], [2, 0])),
        handmade_model(ForestKind.CONDITIONAL, handmade_stump([4, 2], [3, 0]),
                       handmade_stump([4, 2], [1, 0]), aggregate="mean"),
        # conversion incidence 2/4 = 0.5, and the mean of 0.25 and 0.75
        handmade_model(ForestKind.COMPETING, handmade_stump([4, 2], [2, 0], [1, 0])),
        handmade_model(ForestKind.COMPETING, handmade_stump([4, 2], [1, 0], [2, 0]),
                       handmade_stump([4, 2], [3, 0])),
    ]


class TestMedianBisection:
    @settings(max_examples=120, deadline=None)
    @given(which=st.integers(0, 7), n=st.integers(1, 40),
           chunk_rows=st.integers(1, 45), bisect=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_linear_scan(self, which, n, chunk_rows, bisect, seed):
        """Medians, bisected or scanned per chunk, equal the first crossing
        of the full curve, for row counts above and below the chunk size."""
        model = median_models()[which]
        x = np.random.default_rng(seed).standard_normal((n, model.n_features)) * 2
        expect = scan_medians(model, x)
        chunk_bytes = chunk_rows * 8 * model.grid.size
        with mock.patch.object(core, "CHUNK_BYTES", chunk_bytes), \
                mock.patch.object(forest, "_BISECT_MIN_GRID", 0 if bisect else 10**9):
            got = predict_median_batch(model, x)
        assert np.array_equal(got, expect, equal_nan=True)

    def test_oracle_sees_every_case(self):
        """The models above give crossing and never-crossing rows, and the
        handmade stumps cross exactly at 0.5."""
        x = np.random.default_rng(0).standard_normal((400, 3)) * 2
        for model in median_models()[:4]:
            medians = scan_medians(model, x)
            assert np.isnan(medians).any() and not np.isnan(medians).all()
        for model in median_models()[4:]:
            assert scan_medians(model, np.zeros((1, 1)))[0] == 1.0

    def test_memory_does_not_grow_with_rows(self):
        """Peak traced memory of a competing-risks median batch over a
        grid of over 2k points, which bisects it, stays near the model's
        size as rows grow."""
        rng = np.random.default_rng(6)
        n = 3000
        x = rng.standard_normal((n, 3))
        t_conv = rng.exponential(np.exp(1.0 - x[:, 0]), n)
        t_churn = rng.exponential(np.exp(1.5 + x[:, 0]), n)
        c = rng.exponential(10.0, n)
        statuses = np.where(t_conv <= np.minimum(t_churn, c), CONV,
                            np.where(t_churn <= c, CHURN, CENS))
        d = make_dataset(np.minimum(np.minimum(t_conv, t_churn), c), statuses,
                         x, competing=True)
        model = fit_rsf_competing(d, ForestConfig(n_trees=4, min_node_events=30,
                                                  seed=1))
        assert model.grid.size >= max(1000, forest._BISECT_MIN_GRID)

        def peak(rows):
            xs = rng.standard_normal((rows, 3))
            tracemalloc.start()
            try:
                predict_median_batch(model, xs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20000) < 2 * peak(2000)


# P(censored, converted, churned) per node; the last two hold no conversion
STATUS_MIXES = ((0.4, 0.6, 0.0), (0.3, 0.4, 0.3), (0.1, 0.9, 0.0),
                (1.0, 0.0, 0.0), (0.5, 0.0, 0.5))


def random_node(rng):
    """A tree node for the split rules: tied or distinct times, a status
    mix that may hold churn or no conversion, constant, two-valued, tied or
    continuous features, and ``min_events`` and ``cap`` from 1 to past n."""
    n = int(rng.integers(2, 61))
    pool = np.round(rng.exponential(5.0, int(rng.choice([1, 3, n]))), 2) + 0.01
    times = rng.choice(pool, size=n)
    mix = STATUS_MIXES[rng.integers(len(STATUS_MIXES))]
    status = rng.choice(3, size=n, p=mix).astype(np.int8)
    columns = {
        "constant": lambda: np.full(n, 1.5),
        "two-valued": lambda: rng.integers(0, 2, n).astype(float),
        "tied": lambda: rng.integers(0, 5, n).astype(float),
        "continuous": lambda: rng.standard_normal(n),
    }
    p = int(rng.integers(1, 5))
    x = np.column_stack([columns[k]() for k in rng.choice(list(columns), size=p)])
    candidates = np.sort(rng.choice(p, size=int(rng.integers(1, p + 1)),
                                    replace=False))
    min_events = int(rng.integers(1, rng.choice([4, n + 1])))
    return x, times, status, candidates, min_events, int(rng.integers(1, n + 2))


def split_choices(node, alpha, rules):
    """(rsf, conditional) splits of ``node`` under forest-like ``rules``.

    The conditional rule sees churn as censoring, as in single-risk trees.
    """
    x, times, status, candidates, min_events, cap = node
    single = np.where(status == int(CHURN), int(CENS), status).astype(np.int8)
    best_rsf, best_conditional = rules
    return (best_rsf(x, times, status, candidates, min_events, cap),
            best_conditional(x, times, single, candidates, min_events, cap, alpha))


REFERENCE_RULES = (oracles.reference_best_split_rsf,
                   oracles.reference_best_split_conditional)


class TestSplitRules:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.05, 0.5, 1.0]))
    def test_split_choice_matches_reference(self, seed, alpha):
        """Both rules pick the reference's (feature, threshold), or both
        find no split."""
        node = random_node(np.random.default_rng(seed))
        rules = (forest._best_split_rsf, forest._best_split_conditional)
        assert split_choices(node, alpha, rules) == split_choices(
            node, alpha, REFERENCE_RULES)

    def test_reference_sees_every_case(self):
        """Seeded nodes give splits and no splits under both rules, and
        nodes without a conversion."""
        outcomes = set()
        for seed in range(200):
            node = random_node(np.random.default_rng(seed))
            splits = split_choices(node, 1.0, REFERENCE_RULES)
            outcomes.update((rule, split is None) for rule, split in enumerate(splits))
            outcomes.add(("no conversion", not np.any(node[2] == int(CONV))))
        assert len(outcomes) == 6


def assert_same_trees(m1, m2):
    """Node arrays and leaf counts equal in value and dtype, tree by tree."""
    assert len(m1.trees) == len(m2.trees)
    for t1, t2 in zip(m1.trees, m2.trees):
        pairs = [(getattr(t1, f), getattr(t2, f))
                 for f in ("feature", "threshold", "left", "right", "leaf_index")]
        assert len(t1.leaves) == len(t2.leaves)
        for l1, l2 in zip(t1.leaves, t2.leaves):
            pairs += [(getattr(l1, f), getattr(l2, f))
                      for f in ("times", "at_risk", "d_conv", "d_churn")]
            assert (l1.at_risk_grid is None) == (l2.at_risk_grid is None)
            if l1.at_risk_grid is not None:
                pairs.append((l1.at_risk_grid, l2.at_risk_grid))
        for a, b in pairs:
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


class TestParallelism:
    @pytest.mark.parametrize("fit, competing", [
        (fit_rsf, False), (fit_conditional_ensemble, False), (fit_rsf_competing, True),
    ], ids=["rsf", "cif", "rsf-cr"])
    def test_thread_count_does_not_change_results(self, fit, competing, rng,
                                                  monkeypatch):
        d = competing_dataset(rng, 150) if competing else generic_dataset(rng, 150)
        cfg = ForestConfig(n_trees=16, min_node_events=10, seed=12, alpha=0.5)
        monkeypatch.delenv("CONVSURV_THREADS", raising=False)
        m1 = fit(d, cfg, n_jobs=1)
        m2 = fit(d, cfg, n_jobs=2)
        assert max(len(t.leaves) for t in m1.trees) > 1
        assert_same_trees(m1, m2)
        x = rng.standard_normal((20, 3))
        assert np.array_equal(predict_survival_matrix(m1, x),
                              predict_survival_matrix(m2, x))

    def test_env_caps_jobs(self, monkeypatch):
        from convsurv.forest import resolve_jobs
        monkeypatch.setenv("CONVSURV_THREADS", "2")
        assert resolve_jobs(8) == 2
        assert resolve_jobs(None) == 2
        monkeypatch.delenv("CONVSURV_THREADS")
        assert resolve_jobs(None) == 1
        assert resolve_jobs(4) == 4
