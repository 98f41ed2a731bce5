"""Model-file round trips must reproduce predictions bit-identically, and a
corrupt model file or log must never fail as an internal error."""

import contextlib
import functools
import json
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convsurv.cli import _exit_code, _load_filtered
from convsurv.core import EventStatus, TimeAxis
from convsurv.cox import fit_cox, predict_median_batch as cox_medians
from convsurv.errors import CompatibilityError
from convsurv.evaluation import (
    MODEL_KINDS,
    SplitSpec,
    fit_model,
    predict_medians,
    predict_subject_curve,
    stratified_split,
)
from convsurv.forest import (
    ForestConfig,
    ForestKind,
    ForestModel,
    fit_conditional_ensemble,
    fit_rsf,
    fit_rsf_competing,
    predict_incidence_matrix,
    predict_median_batch,
    predict_survival_matrix,
)
from convsurv.generator import GeneratorConfig, generate_synthetic, write_logs_csv
from convsurv.model_io import FORMAT_VERSION, load_model, save_model
from convsurv.pipeline import build_dataset

from conftest import make_dataset, make_tree, random_dataset

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


# per kind, the leaf risk tables (times, at_risk, d_conv, d_churn, and
# at_risk_grid for cif) of a tree split at f1 <= 0.25, whose right leaf has
# no knots, and of a one-leaf tree, on the grid (1.0, 2.5, 4.0)
PINNED_TREES = {
    "rsf": ([([1.0, 4.0], [5, 2], [2, 1], [0, 0]), ([], [], [], [])],
            [([2.5], [3], [1], [0])]),
    "cif": ([([1.0, 4.0], [5, 2], [2, 1], [0, 0], [5, 3, 2]), ([], [], [], [], [2, 2, 0])],
            [([2.5], [3], [1], [0], [3, 3, 1])]),
    "rsf-cr": ([([1.0, 2.5, 4.0], [6, 4, 2], [1, 0, 1], [1, 1, 0]), ([], [], [], [])],
               [([4.0], [2], [0], [2])]),
}
PINNED_PAYLOADS = {
    "rsf": (
        '{"config":{"n_trees":2,"mtry":null,"min_node_events":15,"bootstrap":true,'
        '"alpha":0.05,"max_depth":null,"seed":3,"max_candidates":64,"aggregate":"pooled"},'
        '"grid":[1.0,2.5,4.0],"trees":[{"feature":[1,-1,-1],"threshold":[0.25,null,null],'
        '"left":[1,-1,-1],"right":[2,-1,-1],"leaf_index":[-1,0,1],"leaves":['
        '{"times":[1.0,4.0],"at_risk":[5,2],"d_conv":[2,1],"d_churn":[0,0],'
        '"at_risk_grid":null},'
        '{"times":[],"at_risk":[],"d_conv":[],"d_churn":[],"at_risk_grid":null}]},'
        '{"feature":[-1],"threshold":[null],"left":[-1],"right":[-1],"leaf_index":[0],'
        '"leaves":[{"times":[2.5],"at_risk":[3],"d_conv":[1],"d_churn":[0],'
        '"at_risk_grid":null}]}]}'),
    "cif": (
        '{"config":{"n_trees":2,"mtry":null,"min_node_events":15,"bootstrap":true,'
        '"alpha":0.05,"max_depth":null,"seed":3,"max_candidates":64,"aggregate":"pooled"},'
        '"grid":[1.0,2.5,4.0],"trees":[{"feature":[1,-1,-1],"threshold":[0.25,null,null],'
        '"left":[1,-1,-1],"right":[2,-1,-1],"leaf_index":[-1,0,1],"leaves":['
        '{"times":[1.0,4.0],"at_risk":[5,2],"d_conv":[2,1],"d_churn":[0,0],'
        '"at_risk_grid":[5,3,2]},'
        '{"times":[],"at_risk":[],"d_conv":[],"d_churn":[],"at_risk_grid":[2,2,0]}]},'
        '{"feature":[-1],"threshold":[null],"left":[-1],"right":[-1],"leaf_index":[0],'
        '"leaves":[{"times":[2.5],"at_risk":[3],"d_conv":[1],"d_churn":[0],'
        '"at_risk_grid":[3,3,1]}]}]}'),
    "rsf-cr": (
        '{"config":{"n_trees":2,"mtry":null,"min_node_events":15,"bootstrap":true,'
        '"alpha":0.05,"max_depth":null,"seed":3,"max_candidates":64,"aggregate":"pooled"},'
        '"grid":[1.0,2.5,4.0],"trees":[{"feature":[1,-1,-1],"threshold":[0.25,null,null],'
        '"left":[1,-1,-1],"right":[2,-1,-1],"leaf_index":[-1,0,1],"leaves":['
        '{"times":[1.0,2.5,4.0],"at_risk":[6,4,2],"d_conv":[1,0,1],"d_churn":[1,1,0],'
        '"at_risk_grid":null},'
        '{"times":[],"at_risk":[],"d_conv":[],"d_churn":[],"at_risk_grid":null}]},'
        '{"feature":[-1],"threshold":[null],"left":[-1],"right":[-1],"leaf_index":[0],'
        '"leaves":[{"times":[4.0],"at_risk":[2],"d_conv":[0],"d_churn":[2],'
        '"at_risk_grid":null}]}]}'),
}


class TestFormatPin:
    @pytest.mark.parametrize("kind", PINNED_PAYLOADS)
    def test_forest_payload_text(self, tmp_path, kind):
        """A handmade two-tree forest of each kind saves to exactly the
        pinned "model" payload, and loading and saving it again writes the
        same bytes."""
        split_tables, stump_tables = PINNED_TREES[kind]
        model = ForestModel(
            kind=ForestKind(kind), config=ForestConfig(n_trees=2, seed=3),
            trees=(make_tree(split_tables, split=(1, 0.25)), make_tree(stump_tables)),
            feature_names=("f0", "f1"), axis=TimeAxis.LEVEL, grid=np.array([1.0, 2.5, 4.0]))
        meta = dict(axis=TimeAxis.LEVEL, feature_names=("f0", "f1"),
                    feature_spec_hash="abc123", train_config={"churn_window": 9})
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(first, model, **meta)
        text = first.read_text()
        assert text.endswith("}\n")
        assert text[text.index('"model":') + len('"model":'):-2] == PINNED_PAYLOADS[kind]
        save_model(second, load_model(first).model, **meta)
        assert second.read_bytes() == first.read_bytes()


@functools.lru_cache(maxsize=None)
def small_model_file(kind):
    """The text of a small model file of ``kind``."""
    rng = np.random.default_rng(11)
    data = random_dataset(rng, 40, competing=True, p=3)
    model = fit_model(kind, data, ForestConfig(n_trees=2, min_node_events=3, seed=1),
                      ridge=1.0, n_jobs=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m.json")
        save_model(path, model, axis=TimeAxis.LEVEL, feature_names=("f0", "f1", "f2"),
                   feature_spec_hash="abc123", train_config={"churn_window": 9})
        return path.read_text()


DELETE = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6)


def corrupt_field(doc, walk, value):
    """Replace (or delete, for DELETE) the field that ``walk`` reaches: each
    step picks a child of the current object or array, modulo its size."""
    parent, key, node = None, None, doc
    for step in walk:
        keys = list(node) if isinstance(node, dict) else (
            range(len(node)) if isinstance(node, list) else ())
        if not keys:
            break
        parent, key = node, keys[step % len(keys)]
        node = node[key]
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value


class _Hung(BaseException):
    """Raised by the alarm, past any ``except Exception``."""


@contextlib.contextmanager
def _deadline(seconds=30):
    def hung(signum, frame):
        raise _Hung(f"a corrupted input still runs after {seconds} s")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _outcome(run):
    """``run()``'s result (None on an error) and the CLI's exit code for it."""
    try:
        with _deadline():
            return run(), 0
    except Exception as exc:
        return None, _exit_code(exc)


class TestCorruptModelFiles:
    X = np.array([[0.0, 0.0, 0.0], [3.0, -3.0, 1.0], [-1.0, 0.5, 4.0]])

    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(MODEL_KINDS),
           walk=st.lists(st.integers(0, 63), min_size=1, max_size=6),
           value=st.just(DELETE) | JSON_VALUES)
    @example(kind="rsf", walk=[6, 2], value=[])  # doc["model"]["trees"]: none
    @example(kind="cox", walk=[6, 0, 0], value=1e308)  # doc["model"]["beta"][0]
    def test_one_corrupt_field_never_exits_3(self, kind, walk, value):
        """Loading, medians and subject curves either work or raise an
        error the CLI maps to exit 2; none hangs."""
        doc = json.loads(small_model_file(kind))
        corrupt_field(doc, walk, value)

        def run():
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp, "m.json")
                path.write_text(json.dumps(doc))
                model = load_model(path).model
                predict_medians(model, self.X)
                for row in self.X:
                    predict_subject_curve(model, row)
        _, code = _outcome(run)
        assert code in (0, 2), f"exit {code} for {kind} {walk} {value!r}"


@functools.lru_cache(maxsize=None)
def small_log_lines():
    """The lines of ``generate --players 200 --seed 5``."""
    logs, _ = generate_synthetic(
        GeneratorConfig(n_players=200, observation_window_days=120, seed=5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "logs.csv")
        write_logs_csv(logs, path)
        return tuple(path.read_text().splitlines(keepends=True))


EDGE_FIELDS = ("", "-1", "1e309", "nan", "1_000", "0x10", " 5", "9223372036854775808",
               '"', "a,b", "#", "doubled", '"7"', '"a,b"', '"x""y"', '"5\n"')
LOG_MUTATIONS = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 6), st.sampled_from(EDGE_FIELDS))
    | st.tuples(st.integers(0, 10**6), st.sampled_from(("delete", "duplicate", "blank"))),
    min_size=1, max_size=3)


def mutate_log(lines, mutations):
    """Apply each (line, field, value) or (line, line operation) mutation;
    line numbers wrap around the file."""
    lines = list(lines)
    for at, *change in mutations:
        i = at % len(lines)
        if change == ["delete"]:
            del lines[i]
        elif change == ["duplicate"]:
            lines.insert(i, lines[i])
        elif change == ["blank"]:
            lines[i] = "\n"
        else:
            fields = lines[i].rstrip("\n").split(",")
            j, value = change[0] % len(fields), change[1]
            fields[j] = fields[j] * 2 if value == "doubled" else value
            lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


class TestCorruptLogs:
    @settings(max_examples=150, deadline=None)
    @given(mutations=LOG_MUTATIONS)
    @example(mutations=[(0, 0, '"')])  # csv reads the whole file as one header field
    @example(mutations=[(526027, 6, "1000")])  # Cox on level: the baseline overflows
    def test_mutated_log_never_exits_3(self, mutations):
        """From ingest through build, split, fit and medians, a log with one
        to three bad fields or lines either works or fails with exit 2, on
        every axis with churn labels on and off."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "logs.csv")
            path.write_text(mutate_log(small_log_lines(), mutations))
            logs, code = _outcome(lambda: _load_filtered(path))
        assert code in (0, 2), f"ingest exits {code} for {mutations}"
        if code:
            return
        cfg = ForestConfig(n_trees=2, seed=1)
        for axis in TimeAxis:
            for window in (9, 0):
                def run():
                    data = build_dataset(logs, axis, competing=window > 0,
                                         churn_window=window)
                    train, test = stratified_split(data, SplitSpec(seed=1))
                    for kind in ("cox", "cif", "rsf-cr") if window else ("cox", "cif"):
                        model = fit_model(kind, train, cfg, ridge=1e-6, n_jobs=1)
                        predict_medians(model, test.covariate_matrix)
                _, code = _outcome(run)
                assert code in (0, 2), (
                    f"exit {code} on {axis.value}, churn window {window}, for {mutations}")
