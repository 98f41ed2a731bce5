"""Split protocol, metric definitions, and the model-comparison harness."""

import concurrent.futures
import math
import multiprocessing

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convsurv import evaluation
from convsurv.core import EventStatus
from convsurv.errors import (
    ConfigError,
    DegenerateFitError,
    EmptyInputError,
    StratificationError,
    UndefinedMetricError,
)
from convsurv.evaluation import (
    EvaluationReport,
    ModelAxisResult,
    PredictionOutcome,
    SplitSpec,
    confusion_rates,
    churn_qualified_fp_rate,
    evaluate_models,
    rmsle,
    scatter_pairs,
    stratified_split,
)
from convsurv.forest import ForestConfig

import oracles
from conftest import make_dataset

CONV = EventStatus.CONVERTED
CENS = EventStatus.CENSORED
CHURN = EventStatus.CHURNED


def outcome(obs, pred, converted=True, churned=False, sid="x"):
    return PredictionOutcome(sid, obs, converted, churned, pred)


def hundred_with_ten_converters(rng):
    statuses = [CONV] * 10 + [CENS] * 90
    times = rng.integers(1, 30, 100).astype(float)
    x = rng.standard_normal((100, 2))
    return make_dataset(times, statuses, x)


class TestStratifiedSplit:
    def test_exact_stratified_counts(self, rng):
        data = hundred_with_ten_converters(rng)
        train, test = stratified_split(data, SplitSpec(0.3, seed=5))
        assert len(train) == 30 and len(test) == 70
        assert train.n_events(CONV) == 3
        assert test.n_events(CONV) == 7

    def test_disjoint_and_exhaustive(self, rng):
        data = hundred_with_ten_converters(rng)
        train, test = stratified_split(data, SplitSpec(0.3, seed=5))
        ids = sorted(r.subject_id for r in oracles.records(train) + oracles.records(test))
        assert ids == sorted(r.subject_id for r in oracles.records(data))

    def test_deterministic(self, rng):
        data = hundred_with_ten_converters(rng)
        a1 = stratified_split(data, SplitSpec(0.3, seed=9))
        a2 = stratified_split(data, SplitSpec(0.3, seed=9))
        assert [r.subject_id for r in oracles.records(a1[0])] == \
            [r.subject_id for r in oracles.records(a2[0])]

    def test_single_class_rejected(self, rng):
        statuses = [CENS] * 10
        data = make_dataset(rng.integers(1, 9, 10).astype(float), statuses)
        with pytest.raises(StratificationError):
            stratified_split(data, SplitSpec(0.3, seed=1))

    def test_complementary_fractions_mirror_sizes(self, rng):
        """f and 1-f give size-mirrored partitions with nested prefixes."""
        data = hundred_with_ten_converters(rng)
        train_30, _ = stratified_split(data, SplitSpec(0.3, seed=2))
        train_70, _ = stratified_split(data, SplitSpec(0.7, seed=2))
        assert len(train_30) == 100 - len(train_70)
        ids_30 = {r.subject_id for r in oracles.records(train_30)}
        ids_70 = {r.subject_id for r in oracles.records(train_70)}
        assert ids_30 <= ids_70

    def test_fraction_validated(self):
        with pytest.raises(ConfigError):
            SplitSpec(train_fraction=1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            SplitSpec(seed=-1)


class TestRmsle:
    def test_perfect_predictions(self):
        outs = [outcome(3.0, 3.0), outcome(10.0, 10.0)]
        assert rmsle(outs) == 0.0

    def test_single_pair_hand_value(self):
        # |ln e - ln e^2| = 1
        outs = [outcome(math.e - 1.0, math.e**2 - 1.0)]
        assert_allclose(rmsle(outs), 1.0, rtol=1e-12)

    def test_two_pairs_hand_value(self):
        # log-errors 0 and 2 -> sqrt((0 + 4) / 2) = sqrt(2)
        outs = [outcome(5.0, 5.0),
                outcome(math.e - 1.0, math.e**3 - 1.0)]
        assert_allclose(rmsle(outs), math.sqrt(2.0), rtol=1e-12)

    def test_excludes_unpredicted_and_nonconverted(self):
        outs = [outcome(3.0, 3.0),
                outcome(9.0, None),             # converted, no prediction
                outcome(2.0, 7.0, converted=False)]
        assert rmsle(outs) == 0.0

    def test_empty_subset_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            rmsle([outcome(9.0, None)])

    def test_symmetry_and_order_invariance(self, rng):
        obs = rng.uniform(1, 50, 10)
        pred = rng.uniform(1, 50, 10)
        a = rmsle([outcome(o, p) for o, p in zip(obs, pred)])
        b = rmsle([outcome(p, o) for o, p in zip(obs, pred)])
        c = rmsle([outcome(o, p) for o, p in reversed(list(zip(obs, pred)))])
        assert_allclose(a, b, rtol=1e-12)
        assert_allclose(a, c, rtol=1e-12)


class TestConfusionRates:
    def test_all_correct(self):
        outs = [outcome(3.0, 3.0), outcome(5.0, None, converted=False)]
        assert confusion_rates(outs) == (0.0, 0.0)

    def test_hand_counts(self):
        outs = ([outcome(1.0, None) for _ in range(2)]            # missed
                + [outcome(1.0, 2.0) for _ in range(8)]           # caught
                + [outcome(1.0, 2.0, converted=False) for _ in range(4)]  # flagged
                + [outcome(1.0, None, converted=False) for _ in range(86)])
        fn, fp = confusion_rates(outs)
        assert_allclose(fn, 0.02)
        assert_allclose(fp, 0.04)

    def test_degenerate_always_flagging_classifier(self):
        outs = ([outcome(1.0, 2.0) for _ in range(5)]
                + [outcome(1.0, 2.0, converted=False) for _ in range(95)])
        fn, fp = confusion_rates(outs)
        assert fn == 0.0
        assert_allclose(fp, 0.95)

    def test_rates_bounded(self, rng):
        for _ in range(20):
            outs = [outcome(1.0, 2.0 if rng.random() < 0.5 else None,
                            converted=rng.random() < 0.3)
                    for _ in range(int(rng.integers(1, 40)))]
            fn, fp = confusion_rates(outs)
            assert 0.0 <= fn <= 1.0 and 0.0 <= fp <= 1.0
            assert fn + fp <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            confusion_rates([])

    def test_churn_qualified_fp(self):
        outs = [outcome(1.0, 2.0, converted=False, churned=True),
                outcome(1.0, 2.0, converted=False, churned=False),
                outcome(1.0, None, converted=False, churned=True),
                outcome(1.0, 3.0, converted=True)]
        assert_allclose(churn_qualified_fp_rate(outs), 0.25)


def training_shaped_dataset(rng, n=260, competing=True):
    """Informative feature 0; enough events for every model kind."""
    x = rng.standard_normal((n, 3))
    t_conv = rng.exponential(np.exp(2.0 - 1.5 * x[:, 0]), n)
    t_churn = rng.exponential(20.0, n)
    c = rng.uniform(10, 40, n)
    times = np.round(np.minimum(np.minimum(t_conv, t_churn), c), 2) + 0.01
    statuses = np.where(t_conv <= np.minimum(t_churn, c), CONV,
                        np.where(t_churn <= c, CHURN, CENS))
    if not competing:
        statuses = np.where(statuses == CHURN, CENS, statuses)
    return make_dataset(times, statuses, x, competing=competing)


class TestEvaluateModels:
    def test_all_kinds_produce_rows(self, rng):
        data = training_shaped_dataset(rng)
        train, test = stratified_split(data, SplitSpec(0.5, seed=3))
        cfg = ForestConfig(n_trees=20, min_node_events=8, seed=4)
        results, outcomes = evaluate_models(train, test, forest_config=cfg)
        assert [r.model for r in results] == ["cox", "rsf", "cif", "rsf-cr"]
        for r in results:
            assert r.error is None, r.error
            assert r.n_test == len(test)
            assert 0.0 <= r.fn_rate <= 1.0
            assert 0.0 <= r.fp_rate <= 1.0
            assert r.fp_churn_rate is not None
        assert set(outcomes) == {"cox", "rsf", "cif", "rsf-cr"}

    def test_failures_are_isolated(self, rng):
        """rsf-cr cannot run without churn labels; other rows are intact."""
        data = training_shaped_dataset(rng, competing=False)
        train, test = stratified_split(data, SplitSpec(0.5, seed=3))
        cfg = ForestConfig(n_trees=10, min_node_events=8, seed=4)
        results, _ = evaluate_models(train, test, forest_config=cfg)
        by_kind = {r.model: r for r in results}
        assert by_kind["rsf-cr"].error is not None
        assert "churn" in by_kind["rsf-cr"].error
        for kind in ("cox", "rsf", "cif"):
            assert by_kind[kind].error is None

    def test_failed_rows_carry_their_errors_exit_code(self, rng, monkeypatch):
        """A data error's row exits 2, any other exception's 3, a good row 0."""
        def broken_fit(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(evaluation, "fit_rsf", broken_fit)
        data = training_shaped_dataset(rng, competing=False)
        train, test = stratified_split(data, SplitSpec(0.5, seed=3))
        cfg = ForestConfig(n_trees=5, min_node_events=8, seed=4)
        results, _ = evaluate_models(train, test, ("cox", "rsf", "rsf-cr"), cfg)
        assert [(r.model, r.exit_code) for r in results] == [
            ("cox", 0), ("rsf", 3), ("rsf-cr", 2)]
        assert results[1].error == "boom"

    def test_repeated_kind_rejected(self, rng):
        data = training_shaped_dataset(rng)
        train, test = stratified_split(data, SplitSpec(0.5, seed=3))
        with pytest.raises(ConfigError, match="model kind 'cox' given twice"):
            evaluate_models(train, test, ("cox", "rsf", "cox"))

    def test_scatter_pairs_are_predicted_converters(self, rng):
        data = training_shaped_dataset(rng)
        train, test = stratified_split(data, SplitSpec(0.5, seed=3))
        cfg = ForestConfig(n_trees=20, min_node_events=8, seed=4)
        _, outcomes = evaluate_models(train, test, ("rsf",), cfg)
        pairs = scatter_pairs(outcomes["rsf"])
        expected = sum(1 for o in outcomes["rsf"]
                       if o.observed_converted and o.predicted_median is not None)
        assert len(pairs) == expected

    def test_mismatched_axes_rejected(self, rng):
        from convsurv.core import TimeAxis
        data = training_shaped_dataset(rng)
        train, test = stratified_split(data, SplitSpec(0.5, seed=3))
        rows = oracles.records(test)
        other = make_dataset([r.time for r in rows], [r.status for r in rows],
                             [r.covariates for r in rows],
                             competing=True, axis=TimeAxis.LEVEL)
        with pytest.raises(ConfigError):
            evaluate_models(train, other)


def medians_of(outcomes):
    return np.array([np.nan if o.predicted_median is None else o.predicted_median
                     for o in outcomes])


class TestSharedPool:
    """With more than one job, evaluate_models grows every forest's trees
    on one fork pool and scores each forest as its trees come in."""

    @pytest.fixture(autouse=True)
    def no_thread_cap(self, monkeypatch):
        monkeypatch.delenv("CONVSURV_THREADS", raising=False)

    def split(self, rng, competing=True):
        data = training_shaped_dataset(rng, competing=competing)
        return stratified_split(data, SplitSpec(0.5, seed=3))

    def test_any_job_count_gives_the_same_report(self, rng):
        train, test = self.split(rng)
        cfg = ForestConfig(n_trees=12, min_node_events=8, seed=4)
        runs = [evaluate_models(train, test, forest_config=cfg, n_jobs=jobs)
                for jobs in (1, 2, 3)]
        serial_rows, serial_outcomes = runs[0]
        assert [r.model for r in serial_rows] == ["cox", "rsf", "cif", "rsf-cr"]
        assert all(r.error is None for r in serial_rows)
        for rows, outcomes in runs[1:]:
            assert rows == serial_rows
            assert list(outcomes) == list(serial_outcomes)
            for kind, outs in outcomes.items():
                assert outs == serial_outcomes[kind]
                assert np.array_equal(medians_of(outs), medians_of(serial_outcomes[kind]),
                                      equal_nan=True)

    def test_failed_forest_keeps_its_row(self, rng, monkeypatch):
        """rsf-cr fails its check on a single-risk train set and is not
        queued; cif is queued but its fit raises. Both keep their error row
        and exit code, and the other kinds score as in a serial run."""
        train, test = self.split(rng, competing=False)
        cfg = ForestConfig(n_trees=8, min_node_events=8, seed=4)
        serial, _ = evaluate_models(train, test, forest_config=cfg, n_jobs=1)

        def degenerate(*args, **kwargs):
            raise DegenerateFitError("no cif today")

        monkeypatch.setattr(evaluation, "fit_conditional_ensemble", degenerate)
        rows, outcomes = evaluate_models(train, test, forest_config=cfg, n_jobs=2)
        assert [(r.model, r.exit_code) for r in rows] == [
            ("cox", 0), ("rsf", 0), ("cif", 2), ("rsf-cr", 2)]
        assert rows[2].error == "no cif today" and "churn" in rows[3].error
        assert rows[:2] == serial[:2]
        assert list(outcomes) == ["cox", "rsf"]
        assert not multiprocessing.active_children()

    def test_no_worker_outlives_the_call(self, rng, monkeypatch):
        train, test = self.split(rng)
        cfg = ForestConfig(n_trees=8, min_node_events=8, seed=4)
        evaluate_models(train, test, forest_config=cfg, n_jobs=2)
        assert not multiprocessing.active_children()
        rows, _ = evaluate_models(train.recode_competing_as_censored(), test,
                                  ("rsf-cr", "rsf"), cfg, n_jobs=2)
        assert rows[0].error is not None and rows[1].error is None
        assert not multiprocessing.active_children()

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(evaluation, "forest_median_batch", interrupted)
        with pytest.raises(KeyboardInterrupt):
            evaluate_models(train, test, forest_config=cfg, n_jobs=2)
        assert not multiprocessing.active_children()

    def test_one_pool_per_call(self, rng, monkeypatch):
        """One pool serves all three forests, each reached through its
        evaluation.fit_* name, which perfbench's spans patch."""
        train, test = self.split(rng)
        cfg = ForestConfig(n_trees=8, min_node_events=8, seed=4)
        pools, fits = [], []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        def counted(name):
            fit = getattr(evaluation, name)

            def call(*args, **kwargs):
                fits.append(name)
                return fit(*args, **kwargs)
            return call

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        for name in ("fit_rsf", "fit_conditional_ensemble", "fit_rsf_competing"):
            monkeypatch.setattr(evaluation, name, counted(name))
        rows, _ = evaluate_models(train, test, forest_config=cfg, n_jobs=2)
        assert all(r.error is None for r in rows)
        assert len(pools) == 1
        assert sorted(fits) == ["fit_conditional_ensemble", "fit_rsf", "fit_rsf_competing"]


class TestReportRendering:
    def rows(self):
        return (
            ModelAxisResult("cox", "lifetime", 70, 7, 0.51, 0.01, 0.03, 0.02),
            ModelAxisResult("rsf", "lifetime", 70, 7, 0.43, 0.0, 0.02, 0.01),
            ModelAxisResult("rsf", "level", 70, 7, None, 0.0, 0.02, None),
            ModelAxisResult("cif", "lifetime", 70, 7, None, None, None, None,
                            error="boom"),
        )

    def test_json_shape(self):
        doc = EvaluationReport(self.rows()).to_json_dict()
        assert doc["metrics"] == ["rmsle", "false_negative_rate",
                                  "false_positive_rate"]
        assert len(doc["results"]) == 4
        assert doc["results"][0]["model"] == "cox"

    def test_text_table(self):
        text = EvaluationReport(self.rows()).to_text()
        assert "RMSLE" in text and "False Negatives" in text
        assert "failed" in text      # the errored row
        assert "n/a" in text         # undefined rmsle
        assert "0.4300" in text
        # one header block plus one line per model
        assert len(text.strip().splitlines()) == 3 + 3
