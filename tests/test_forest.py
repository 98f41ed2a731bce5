"""Tree ensembles: splitting behavior, aggregation identities, determinism."""

import concurrent.futures
import dataclasses
import functools
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    SurvivalTree,
    _knot_lookup,
    _knot_table,
    _leaf_counts,
    _leaf_curve_matrix,
    _leaf_keys,
    _route,
    fit_conditional_ensemble,
    fit_rsf,
    fit_rsf_competing,
    predict_forest_incidence,
    predict_forest_survival,
    predict_incidence_matrix,
    predict_median_batch,
    predict_survival_matrix,
    resolve_jobs,
)

import oracles
from conftest import make_dataset, make_leaves, make_tree

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
        rows = oracles.records(d)
        d_perm = make_dataset(
            [r.time for r in rows],
            [r.status for r in rows],
            [tuple(r.covariates[j] for j in perm) for r in rows])
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
            leaves = tree.leaves
            events = np.cumsum([0, *(leaves.d_conv + leaves.d_churn)])
            assert np.all(np.diff(events[leaves.offsets]) >= 12)

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
        rows = oracles.records(d)
        dup = make_dataset(
            [r.time for r in rows],
            [r.status for r in rows],
            [r.covariates + (r.covariates[0],) for r in rows])
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
        rows = oracles.records(d)
        d_cr = make_dataset([r.time for r in rows], [r.status for r in rows],
                            [r.covariates for r in rows], competing=True)
        cfg = ForestConfig(n_trees=10, min_node_events=8, seed=77)
        m_rsf = fit_rsf(d, cfg)
        m_cr = fit_rsf_competing(d_cr, cfg)
        for t1, t2 in zip(m_rsf.trees, m_cr.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)
            l1, l2 = t1.leaves, t2.leaves
            assert np.array_equal(l1.offsets, l2.offsets)
            assert np.array_equal(l1.times, l2.times)
            assert np.array_equal(l1.at_risk, l2.at_risk)
            assert np.array_equal(l1.d_conv + l1.d_churn, l2.d_conv + l2.d_churn)
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
        assert np.isnan(predict_median_batch(m, np.zeros((1, 2)))[0])

    def test_stump_median_matches_estimator_crossing(self, rng):
        from convsurv.core import StepFunction
        d = generic_dataset(rng, 120)
        m = fit_rsf(d, stump_config(120))
        h = nelson_aalen(d)
        pooled = StepFunction(h.knots, np.exp(-h.values), 1.0)
        assert predict_median_batch(m, np.zeros((1, 3)))[0] == \
            oracles.median_crossing(pooled, 0.5)

    def test_median_batch_matches_scalar(self, rng):
        d = competing_dataset(rng, 200)
        m = fit_rsf_competing(d, ForestConfig(n_trees=15, min_node_events=10, seed=9))
        x = rng.standard_normal((30, 3))
        batch = predict_median_batch(m, x)
        for i in range(30):
            row = predict_median_batch(m, x[i:i + 1])
            assert np.array_equal(batch[i:i + 1], row, equal_nan=True)

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
    return make_tree([([1.0, 2.0], at_risk, d_conv, d_churn, at_risk)])


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
        conversion incidence: no median."""
        model = handmade_model(ForestKind.COMPETING,
                               handmade_stump([10, 5], [0, 0], [2, 1]))
        assert np.all(predict_incidence_matrix(model, np.zeros((1, 1)), CONV) == 0.0)
        assert np.isnan(predict_median_batch(model, np.zeros((1, 1)))[0])


MEAN_CURVES = ("cumhaz", "survival", "cif_conv", "cif_churn")
# (grid index, conversions, churns, censorings) of one leaf's knots
LEAF_KNOTS = st.lists(st.tuples(st.integers(0, 39), st.integers(0, 3),
                                st.integers(0, 3), st.integers(0, 2)), max_size=8)


def knot_tree(n_grid, leaves):
    """(tree, grid) whose leaves hold the given knots, each at the grid
    index it names modulo the grid size (repeats dropped), with the
    number at risk counting down from one more than the leaf's removals.
    Only the leaves are read by the tables."""
    grid = np.arange(1, n_grid + 1) * 0.5
    built = []
    for knots in leaves:
        kept = {}
        for index, conv, churn, cens in knots:
            kept.setdefault(index % n_grid, (conv, churn, cens))
        ranks = np.array(sorted(kept), dtype=int)
        conv, churn, cens = np.array([kept[r] for r in ranks], dtype=int).reshape(-1, 3).T
        at_risk = 1 + np.cumsum((conv + churn + cens)[::-1])[::-1]
        built.append((grid[ranks], at_risk, conv, churn))
    return dataclasses.replace(handmade_stump([1, 1], [0, 0]), leaves=make_leaves(built)), grid


class TestDenseTables:
    @settings(max_examples=200, deadline=None)
    @given(n_grid=st.integers(1, 40), leaves=st.lists(LEAF_KNOTS, min_size=1, max_size=6),
           curve=st.sampled_from(MEAN_CURVES))
    @example(n_grid=5, leaves=[[(1, 1, 0, 1), (3, 0, 1, 0)]], curve="cif_conv")
    @example(n_grid=6, leaves=[[(0, 2, 1, 0)], [(2, 1, 0, 2), (4, 0, 1, 1)]],
             curve="survival")
    @example(n_grid=4, leaves=[[(3, 1, 1, 1)], [(0, 1, 0, 0), (3, 2, 0, 0)], []],
             curve="cumhaz")
    @example(n_grid=1, leaves=[[(0, 1, 2, 0)], []], curve="cif_churn")
    def test_forward_fill_matches_knot_lookup(self, n_grid, leaves, curve):
        """Every leaf's dense curve and its knot-table lookup both equal the
        leaf-by-leaf recurrence at every grid index: one-leaf trees, leaves
        without knots, knots on the grid's first and last points."""
        tree, grid = knot_tree(n_grid, leaves)
        want = oracles.reference_leaf_curve_matrix(tree, grid, curve)
        queries = _leaf_keys(np.arange(len(leaves)), grid)[:, None] + np.arange(n_grid)
        looked_up = _knot_lookup(_knot_table(tree, grid, curve), queries)
        dense = _leaf_curve_matrix(tree, grid, curve)
        assert want.shape == (len(leaves), n_grid)
        assert np.array_equal(dense, want) and np.array_equal(looked_up, want)

    @settings(max_examples=200, deadline=None)
    @given(n_grid=st.integers(1, 40), leaves=st.lists(LEAF_KNOTS, min_size=1, max_size=6))
    @example(n_grid=3, leaves=[[]])
    @example(n_grid=4, leaves=[[(2, 1, 0, 0), (0, 0, 1, 1)]])
    @example(n_grid=5, leaves=[[], [(4, 1, 1, 0)], [], [(0, 2, 0, 1), (1, 0, 1, 0)]])
    def test_leaf_counts_match_leaf_by_leaf_padding(self, n_grid, leaves):
        """The padded count rows read from the leaf table's offsets equal
        each leaf's own slice padded on its own, in value and dtype: one-leaf
        trees, leaves without knots, and empty leaves between full ones."""
        tree, grid = knot_tree(n_grid, leaves)
        got = _leaf_counts(tree, grid)
        want = oracles.reference_leaf_counts(tree, grid)
        assert len(got) == len(want) == 5
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


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
           chunk_rows=st.integers(1, 45), seed=st.integers(0, 2**32 - 1))
    def test_matches_linear_scan(self, which, n, chunk_rows, seed):
        """Medians, bisected (mean kinds) or scanned (pooled cif) per chunk,
        equal the first crossing of the full curve, for row counts above
        and below the chunk size."""
        model = median_models()[which]
        x = np.random.default_rng(seed).standard_normal((n, model.n_features)) * 2
        expect = scan_medians(model, x)
        chunk_bytes = chunk_rows * 8 * model.grid.size
        with mock.patch.object(core, "CHUNK_BYTES", chunk_bytes):
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

    def test_every_mean_kind_bisects(self):
        """rsf, rsf-cr and mean-aggregated cif bisect on any grid, the
        2-point grid of the handmade stumps included; pooled cif, whose
        survival is a running product, always scans."""
        for model in median_models():
            pooled = (model.kind == ForestKind.CONDITIONAL
                      and model.config.aggregate == "pooled")
            spy = mock.Mock(wraps=forest._bisect_crossing)
            with mock.patch.object(forest, "_bisect_crossing", spy):
                predict_median_batch(model, np.zeros((3, model.n_features)))
            assert spy.call_count == (0 if pooled else 1)
        assert [m.grid.size for m in median_models()[4:]] == [2] * 4

    @pytest.mark.parametrize("which", [0, 2, 3, 5, 7])
    def test_dense_tables_only_within_the_budget(self, which):
        """Bisection gathers from dense tables when all of them fit
        CHUNK_BYTES exactly and searches knot tables one byte below; both
        give the full curve's first crossing."""
        model = median_models()[which]
        x = np.random.default_rng(5).standard_normal((60, model.n_features)) * 2
        expect = scan_medians(model, x)
        dense = 8 * (model.grid.size + 2) * sum(len(t.leaves) for t in model.trees)
        for chunk_bytes, knot_tables in ((dense, 0), (dense - 1, len(model.trees))):
            spy = mock.Mock(wraps=forest._knot_table)
            with mock.patch.object(core, "CHUNK_BYTES", chunk_bytes), \
                    mock.patch.object(forest, "_knot_table", spy):
                got = predict_median_batch(model, x)
            assert spy.call_count == knot_tables
            assert np.array_equal(got, expect, equal_nan=True)

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
        assert model.grid.size >= 1000

        def peak(rows):
            xs = rng.standard_normal((rows, 3))
            tracemalloc.start()
            try:
                predict_median_batch(model, xs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20000) < 2 * peak(2000)

    def test_chunks_bound_the_leaf_key_block(self):
        """A 40-tree model on a grid shorter than its tree count bisects in
        row chunks whose rows x trees block of int64 leaf keys fits
        CHUNK_BYTES, and its medians equal the unchunked ones."""
        model = forty_tree_model()
        n_trees = len(model.trees)
        x = np.random.default_rng(12).standard_normal((50, 3)) * 2
        assert model.grid.size < n_trees
        whole = predict_median_batch(model, x)
        chunk_bytes = 7 * n_trees * 8
        seen = []

        def spy(n, width):
            chunks = core.row_chunks(n, width)
            seen.extend(len(range(n)[rows]) for rows in chunks)
            return chunks

        with mock.patch.object(core, "CHUNK_BYTES", chunk_bytes), \
                mock.patch.object(forest, "row_chunks", spy):
            chunked = predict_median_batch(model, x)
        assert len(seen) > 1 and sum(seen) == len(x)
        assert all(rows * n_trees * 8 <= chunk_bytes for rows in seen)
        assert np.array_equal(chunked, whole, equal_nan=True)

    def test_one_chunk_of_leaf_keys_at_a_time(self):
        """Over four row chunks, traced memory peaks below the dense tables
        plus two chunks: one chunk's leaf keys are freed before the next
        chunk's are built."""
        model = forty_tree_model()
        rows = 2000
        chunk_bytes = rows * len(model.trees) * 8
        tables = 8 * (model.grid.size + 2) * sum(len(t.leaves) for t in model.trees)
        x = np.random.default_rng(13).standard_normal((4 * rows, 3))
        with mock.patch.object(core, "CHUNK_BYTES", chunk_bytes):
            tracemalloc.start()
            try:
                predict_median_batch(model, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < tables + 2 * chunk_bytes


@functools.cache
def forty_tree_model():
    """A 40-tree competing-risks forest on a grid of under 40 points."""
    rng = np.random.default_rng(11)
    n = 300
    x = rng.standard_normal((n, 3))
    times = rng.integers(1, 16, n) * (1.0 + (x[:, 0] < 0))
    d = make_dataset(times, rng.choice([CENS, CONV, CHURN], n), x, competing=True)
    return fit_rsf_competing(d, ForestConfig(n_trees=40, min_node_events=6, seed=3))


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


def rank_coded_rsf(x, times, status, candidates, min_events, cap):
    """The library's log-rank rule on ``x`` rank-coded as a fit codes it."""
    return forest._best_split_rsf(*forest._rank_codes(x), times, status,
                                  candidates, min_events, cap)


def rank_coded_conditional(x, times, status, candidates, min_events, cap, alpha):
    """The library's two-step rule on ``x`` rank-coded as a fit codes it."""
    return forest._best_split_conditional(
        x[:, candidates], *forest._rank_codes(x), times, status, candidates,
        min_events, cap, alpha)


class TestSplitRules:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.05, 0.5, 1.0]))
    def test_split_choice_matches_reference(self, seed, alpha):
        """Both rules pick the reference's (feature, threshold), or both
        find no split."""
        node = random_node(np.random.default_rng(seed))
        rules = (rank_coded_rsf, rank_coded_conditional)
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


# one column each: heavy ties, signed zeros, a single value, continuous
# values, and neighbouring floats whose midpoints round onto a value
COLUMNS = {
    "tied": lambda rng, n: rng.integers(0, 3, n).astype(float),
    "signed zeros": lambda rng, n: rng.choice([-0.0, 0.0, -1.0, 1.0], n),
    "single": lambda rng, n: np.full(n, 2.5),
    "continuous": lambda rng, n: rng.standard_normal(n),
    "neighbours": lambda rng, n: 1.0 + np.spacing(1.0) * rng.integers(0, 5, n),
}


class TestRankCodedCuts:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), column=st.sampled_from(list(COLUMNS)))
    def test_matches_float_cuts(self, seed, column):
        """On a bootstrap subset of a column, the rank-coded cuts give
        bit-equal thresholds, and equal bins and masks, to the float path,
        for every cap from 1 to past the node's distinct values."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        x = COLUMNS[column](rng, n)
        codes, values = forest._rank_codes(x[:, None])
        node = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
        any_event = rng.random(node.size) < 0.5
        min_events = int(rng.integers(1, 4))
        for cap in range(1, np.unique(x[node]).size + 2):
            got = forest._cuts(codes[0][node], values[0], any_event,
                               min_events, cap)
            want = oracles.reference_cuts(x[node], any_event, min_events, cap)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])


# thresholds and covariates share values, so rows land exactly on cuts
ROUTE_VALUES = (-1.0, 0.0, 0.5, 2.0)
ROUTE_X = ROUTE_VALUES + (-np.inf, np.inf, np.nan, -0.0, 1.0)


def random_tree(rng, p, max_depth):
    """Node arrays grown depth-first like _grow_tree's, with random splits."""
    feature, threshold, left, right, leaf_index = [], [], [], [], []

    def grow(depth):
        node = len(feature)
        for column, value in ((feature, -1), (threshold, np.nan), (left, -1),
                              (right, -1), (leaf_index, -1)):
            column.append(value)
        if depth < max_depth and rng.random() < 0.7:
            feature[node] = int(rng.integers(p))
            threshold[node] = float(rng.choice(ROUTE_VALUES))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        else:
            leaf_index[node] = max(leaf_index) + 1
        return node

    grow(0)
    return SurvivalTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        leaf_index=np.array(leaf_index, dtype=np.int32),
        leaves=[])


class TestRoute:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_depth=st.integers(0, 7),
           n=st.integers(0, 40), p=st.integers(1, 4), fortran=st.booleans())
    def test_matches_level_walk(self, seed, max_depth, n, p, fortran):
        """The child-table route sends every row to the level walk's leaf:
        single-leaf trees, no rows, rows on a threshold, NaN and +-inf."""
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, p, max_depth)
        x = rng.choice(ROUTE_X, size=(n, p))
        if fortran:
            x = np.asfortranarray(x)
        got = _route(tree, x)
        want = oracles.reference_route(tree, x)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def assert_same_trees(m1, m2):
    """Node arrays and leaf tables equal in value and dtype, tree by tree."""
    assert len(m1.trees) == len(m2.trees)
    for t1, t2 in zip(m1.trees, m2.trees):
        pairs = [(getattr(t1, f), getattr(t2, f))
                 for f in ("feature", "threshold", "left", "right", "leaf_index")]
        l1, l2 = t1.leaves, t2.leaves
        pairs += [(getattr(l1, f), getattr(l2, f))
                  for f in ("offsets", "times", "at_risk", "d_conv", "d_churn")]
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
        monkeypatch.setenv("CONVSURV_THREADS", "2")
        assert resolve_jobs(8) == 2
        assert resolve_jobs(None) == 2
        monkeypatch.delenv("CONVSURV_THREADS")
        assert resolve_jobs(None) == 1
        assert resolve_jobs(4) == 4

    def test_pool_never_exceeds_four_workers_per_core(self, rng, monkeypatch):
        """--threads 400 and CONVSURV_THREADS=400 open a pool of 4 workers per
        usable core, recorded on an in-process stand-in, so no worker forks;
        the trees are those of a serial fit."""
        workers = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                workers.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setenv("CONVSURV_THREADS", "400")
        assert (resolve_jobs(400), resolve_jobs(None), resolve_jobs(5)) == (8, 8, 5)
        d = generic_dataset(rng, 150)
        cfg = ForestConfig(n_trees=16, min_node_events=10, seed=12)
        serial = fit_rsf(d, cfg, n_jobs=1)
        assert_same_trees(fit_rsf(d, cfg, n_jobs=400), serial)
        assert workers == [8]
        monkeypatch.delenv("CONVSURV_THREADS")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_jobs(400) == 12
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(400) == 4
