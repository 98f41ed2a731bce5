"""Model-file round trips must reproduce predictions bit-identically."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convsurv.core import EventStatus, TimeAxis
from convsurv.cox import fit_cox, predict_median_batch as cox_medians
from convsurv.errors import CompatibilityError
from convsurv.evaluation import (
    MODEL_KINDS,
    fit_model,
    predict_medians,
    predict_subject_curve,
)
from convsurv.forest import (
    ForestConfig,
    fit_conditional_ensemble,
    fit_rsf,
    fit_rsf_competing,
    predict_incidence_matrix,
    predict_median_batch,
    predict_survival_matrix,
)
from convsurv.model_io import FORMAT_VERSION, load_model, save_model

from conftest import make_dataset, random_dataset

CONV = EventStatus.CONVERTED
CENS = EventStatus.CENSORED
CHURN = EventStatus.CHURNED


def dataset(rng, competing=False):
    n = 180
    x = rng.standard_normal((n, 3))
    t = np.round(rng.exponential(np.exp(1.0 - x[:, 0]), n), 2) + 0.01
    statuses = np.where(rng.random(n) < 0.7, CONV, CENS)
    if competing:
        churn = (statuses == CENS) & (rng.random(n) < 0.6)
        statuses = np.where(churn, CHURN, statuses)
    return make_dataset(t, statuses, x, competing=competing)


def roundtrip(tmp_path, model, axis=TimeAxis.LIFETIME):
    path = tmp_path / "model.json"
    save_model(path, model, axis=axis, feature_names=("f0", "f1", "f2"),
               feature_spec_hash="abc123", train_config={"seed": 1})
    return load_model(path)


class TestCoxRoundTrip:
    def test_predictions_bit_identical(self, tmp_path, rng):
        data = dataset(rng)
        fit = fit_cox(data)
        loaded = roundtrip(tmp_path, fit)
        assert loaded.kind == "cox"
        x = rng.standard_normal((25, 3))
        assert np.array_equal(cox_medians(fit, x), cox_medians(loaded.model, x),
                              equal_nan=True)
        assert np.array_equal(fit.beta, loaded.model.beta)
        assert np.array_equal(fit.baseline_cum_hazard.values,
                              loaded.model.baseline_cum_hazard.values)


class TestForestRoundTrips:
    @pytest.mark.parametrize("kind", ["rsf", "cif", "rsf-cr"])
    def test_predictions_bit_identical(self, tmp_path, rng, kind):
        competing = kind == "rsf-cr"
        data = dataset(rng, competing=competing)
        cfg = ForestConfig(n_trees=8, min_node_events=8, seed=5)
        fit_fn = {"rsf": fit_rsf, "cif": fit_conditional_ensemble,
                  "rsf-cr": fit_rsf_competing}[kind]
        model = fit_fn(data, cfg)
        loaded = roundtrip(tmp_path, model)
        assert loaded.kind == kind
        x = rng.standard_normal((30, 3))
        assert np.array_equal(predict_survival_matrix(model, x),
                              predict_survival_matrix(loaded.model, x))
        assert np.array_equal(predict_median_batch(model, x),
                              predict_median_batch(loaded.model, x),
                              equal_nan=True)
        if competing:
            assert np.array_equal(
                predict_incidence_matrix(model, x, CONV),
                predict_incidence_matrix(loaded.model, x, CONV))


class TestEveryKindRoundTrips:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(MODEL_KINDS), n=st.integers(30, 90),
           seed=st.integers(0, 2**32 - 1))
    def test_load_predicts_and_saves_identically(self, kind, n, seed):
        """fit -> save -> load keeps medians and subject curves
        bit-identical, and saving the loaded model writes the same bytes."""
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, n, competing=True, p=3)
        cfg = ForestConfig(n_trees=3, min_node_events=3, seed=seed % 1000)
        model = fit_model(kind, data, cfg, ridge=1.0, n_jobs=1)
        x = np.vstack([data.covariate_matrix, rng.standard_normal((10, 3)) * 2])
        meta = dict(axis=TimeAxis.LEVEL, feature_names=("f0", "f1", "f2"),
                    feature_spec_hash="abc123", train_config={"churn_window": 9})
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
            save_model(first, model, **meta)
            loaded = load_model(first)
            save_model(second, loaded.model, **meta)
            assert first.read_bytes() == second.read_bytes()
        assert loaded.kind == kind
        assert np.array_equal(predict_medians(model, x),
                              predict_medians(loaded.model, x), equal_nan=True)
        for row in x[:5]:
            want = predict_subject_curve(model, row)
            got = predict_subject_curve(loaded.model, row)
            assert np.array_equal(want.knots, got.knots)
            assert np.array_equal(want.values, got.values)
            assert want.left_value == got.left_value


class TestFormatGuards:
    def test_version_mismatch_rejected(self, tmp_path, rng):
        data = dataset(rng)
        fit = fit_cox(data)
        path = tmp_path / "model.json"
        save_model(path, fit, axis=TimeAxis.LIFETIME,
                   feature_names=("f0", "f1", "f2"),
                   feature_spec_hash="abc", train_config={})
        doc = json.loads(path.read_text())
        doc["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CompatibilityError, match="format version"):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path, rng):
        fit = fit_cox(dataset(rng))
        path = tmp_path / "model.json"
        save_model(path, fit, axis=TimeAxis.LIFETIME,
                   feature_names=("f0", "f1", "f2"),
                   feature_spec_hash="abc", train_config={})
        doc = json.loads(path.read_text())
        doc["kind"] = "gbm"
        path.write_text(json.dumps(doc))
        with pytest.raises(CompatibilityError, match="kind"):
            load_model(path)

    def test_metadata_preserved(self, tmp_path, rng):
        fit = fit_cox(dataset(rng))
        loaded = roundtrip(tmp_path, fit, axis=TimeAxis.PLAYTIME)
        assert loaded.axis == TimeAxis.PLAYTIME
        assert loaded.feature_spec_hash == "abc123"
        assert loaded.train_config == {"seed": 1}
