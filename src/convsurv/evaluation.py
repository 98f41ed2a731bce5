"""Train/test protocol and the three validation metrics.

The protocol follows the comparison harness: a stratified split keeps the
converter proportion equal in train and test (train defaults to 30%), each
model predicts a median conversion "time" per test subject, and a subject
is classified predicted-converter exactly when that median exists within
the training-derived horizon.

Metric definitions:

* rmsle — sqrt(mean((log1p(pred) - log1p(obs))^2)) over the subjects that
  both converted and received a median prediction. Subjects the model did
  not flag have no prediction to score; an empty intersection makes the
  metric undefined (reported absent, never zero).
* false-negative rate — observed converters with no predicted median,
  divided by the full test-set size.
* false-positive rate — observed non-converters with a predicted median,
  divided by the full test-set size. On competing-risks data the stricter
  churn-qualified variant (flagged subjects that actually churned) is
  reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import EventStatus, StepFunction, SurvivalDataset
from .cox import CoxFit, fit_cox, predict_cox_survival, predict_median_batch as cox_median_batch
from .errors import ConfigError, EmptyInputError, StratificationError, UndefinedMetricError
from .forest import (
    ForestConfig,
    ForestKind,
    fit_conditional_ensemble,
    fit_rsf,
    fit_rsf_competing,
    predict_forest_incidence,
    predict_forest_survival,
    predict_median_batch as forest_median_batch,
    queue_forests,
)

MODEL_KINDS = ("cox", *(kind.value for kind in ForestKind))


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.30
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass(frozen=True)
class PredictionOutcome:
    subject_id: str
    observed_time: float
    observed_converted: bool
    observed_churned: bool
    predicted_median: float | None


@dataclass(frozen=True)
class ModelAxisResult:
    """One row of the report: one model kind on one time axis."""

    model: str
    axis: str
    n_test: int
    n_converted: int
    rmsle: float | None
    fn_rate: float | None
    fp_rate: float | None
    fp_churn_rate: float | None
    error: str | None = None
    exit_code: int = 0  # 0, or the exit code of the row's error


def _take(count: int, fraction: float) -> int:
    return int(math.floor(count * fraction + 0.5))


def stratified_split(data: SurvivalDataset, spec: SplitSpec
                     ) -> tuple[SurvivalDataset, SurvivalDataset]:
    """Deterministic converter-stratified partition into (train, test).

    Each stratum contributes floor(n * fraction + 0.5) subjects to train,
    so the train converter proportion is within one subject of the ideal.
    """
    n = len(data)
    if n == 0:
        raise EmptyInputError("cannot split an empty dataset")
    conv_mask = data.status_codes == int(EventStatus.CONVERTED)
    rng = np.random.default_rng(spec.seed)
    groups = (np.nonzero(conv_mask)[0], np.nonzero(~conv_mask)[0])
    if min(group.size for group in groups) == 0:
        raise StratificationError(
            "stratified split needs at least one converter and one non-converter")
    in_train = np.zeros(n, dtype=bool)
    for group in groups:
        perm = rng.permutation(group)
        in_train[perm[:_take(group.size, spec.train_fraction)]] = True
    train = data.subset(np.flatnonzero(in_train))
    test = data.subset(np.flatnonzero(~in_train))
    return train, test


def rmsle(outcomes: list[PredictionOutcome]) -> float:
    """Root mean square log1p error over predicted, observed converters."""
    pairs = scatter_pairs(outcomes)
    if not pairs:
        raise UndefinedMetricError(
            "no subject both converted and received a prediction")
    # left to right, rounding each addition: Python 3.12's sum() compensates
    total = 0.0
    for obs, pred in pairs:
        total += (math.log1p(pred) - math.log1p(obs)) ** 2
    return math.sqrt(total / len(pairs))


def confusion_rates(outcomes: list[PredictionOutcome]) -> tuple[float, float]:
    """(false-negative rate, false-positive rate), test-set denominator."""
    if not outcomes:
        raise EmptyInputError("no outcomes to score")
    n = len(outcomes)
    fn = sum(1 for o in outcomes
             if o.observed_converted and o.predicted_median is None)
    fp = sum(1 for o in outcomes
             if not o.observed_converted and o.predicted_median is not None)
    return fn / n, fp / n


def churn_qualified_fp_rate(outcomes: list[PredictionOutcome]) -> float:
    """Flagged subjects that actually churned, over the test-set size."""
    if not outcomes:
        raise EmptyInputError("no outcomes to score")
    fp = sum(1 for o in outcomes
             if o.observed_churned and o.predicted_median is not None)
    return fp / len(outcomes)


# --- the four model kinds: every per-kind decision is made below ---------

def needs_churn_labels(kind: str) -> bool:
    """Only the competing-risks forest models churn as an event of its own."""
    return kind == ForestKind.COMPETING.value


def check_names(names, known, what: str) -> None:
    """Reject a name outside ``known`` or one given twice; ``what`` says
    what the names are."""
    for i, name in enumerate(names):
        if name not in known:
            raise ConfigError(f"unknown {what} {name!r}")
        if name in names[:i]:
            raise ConfigError(f"{what} {name!r} given twice")


def check_model_kinds(kinds, churn_window: int | None = None) -> None:
    """Reject an unknown or repeated kind, and rsf-cr when ``churn_window`` is off."""
    check_names(kinds, MODEL_KINDS, "model kind")
    if (churn_window is not None and churn_window <= 0
            and any(map(needs_churn_labels, kinds))):
        raise ConfigError("rsf-cr needs churn labels: set --churn-window > 0")


def model_kind(model) -> str:
    """The kind name of a fitted ``CoxFit`` or ``ForestModel``."""
    return "cox" if isinstance(model, CoxFit) else model.kind.value


def fit_model(kind: str, train: SurvivalDataset, forest_config: ForestConfig,
              *, ridge: float, n_jobs: int | None):
    """Fit one model kind on ``train``: a ``CoxFit`` or a ``ForestModel``.

    Every kind but ``rsf-cr`` sees churn as censoring. The fit functions
    are read as module globals at each call, so patching them on this
    module (as perfbench/spans.py does) reaches every caller.
    """
    check_model_kinds((kind,))
    if not needs_churn_labels(kind):
        train = train.recode_competing_as_censored()
    if kind == "cox":
        return fit_cox(train, ridge=ridge)
    fit = {"rsf": fit_rsf, "cif": fit_conditional_ensemble,
           "rsf-cr": fit_rsf_competing}[kind]
    return fit(train, forest_config, n_jobs)


def fit_diagnostics(model) -> dict:
    """Cox convergence, or the forest's tree count, mean leaves and grid size."""
    if isinstance(model, CoxFit):
        return asdict(model.convergence)
    n_leaves = [len(t.leaves) for t in model.trees]
    return {"n_trees": len(model.trees),
            "mean_leaves_per_tree": sum(n_leaves) / len(n_leaves),
            "grid_size": int(model.grid.size)}


def predict_medians(model, x) -> np.ndarray:
    """Median conversion time per row of ``x``; NaN where none is predicted."""
    if isinstance(model, CoxFit):
        return cox_median_batch(model, x)
    return forest_median_batch(model, x)


def predict_subject_curve(model, x) -> StepFunction:
    """One covariate row's survival curve; for rsf-cr, its conversion incidence."""
    if isinstance(model, CoxFit):
        return predict_cox_survival(model, x)
    if model.kind == ForestKind.COMPETING:
        return predict_forest_incidence(model, x, EventStatus.CONVERTED)
    return predict_forest_survival(model, x)


def build_outcomes(test: SurvivalDataset, medians: np.ndarray
                   ) -> list[PredictionOutcome]:
    return [
        PredictionOutcome(
            subject_id=sid,
            observed_time=time,
            observed_converted=code == EventStatus.CONVERTED,
            observed_churned=code == EventStatus.CHURNED,
            predicted_median=None if np.isnan(med) else float(med),
        )
        for sid, time, code, med in zip(test.subject_ids, test.times.tolist(),
                                        test.status_codes.tolist(), medians)
    ]


def evaluate_models(train: SurvivalDataset, test: SurvivalDataset,
                    kinds=MODEL_KINDS, forest_config: ForestConfig = ForestConfig(),
                    *, ridge: float = 1e-6, n_jobs: int | None = None
                    ) -> tuple[list[ModelAxisResult], dict[str, list[PredictionOutcome]]]:
    """Fit each requested model on train, score medians on test.

    Per-model failures are isolated: the failing row carries the error
    message and the remaining models still run. Returns the report rows
    plus per-model outcomes (the scatter-plot source data), in ``kinds``
    order. Forests queued on one pool (forest.queue_forests) are scored
    last, in queue order, each as soon as its trees are in.
    """
    if train.axis != test.axis or train.feature_names != test.feature_names:
        raise ConfigError("train and test must share axis and features")
    if len(test) == 0:
        raise EmptyInputError("the test split is empty: every subject went to train")
    axis = train.axis.value
    results: dict[str, ModelAxisResult] = {}
    outcomes_by_kind: dict[str, list[PredictionOutcome]] = {}
    n_conv_test = test.n_events(EventStatus.CONVERTED)
    kinds = tuple(kinds)
    check_model_kinds(kinds)
    # one dataset object per kind, which fit_model passes on as it is: a
    # queued forest's fit is matched by it
    single_risk = train.recode_competing_as_censored()
    trains = {kind: train if needs_churn_labels(kind) else single_risk for kind in kinds}
    with queue_forests([(trains[kind], forest_config, ForestKind(kind))
                        for kind in kinds if kind != "cox"], n_jobs) as order:
        queued = [kind.value for kind in order]
        for kind in [kind for kind in kinds if kind not in queued] + queued:
            try:
                model = fit_model(kind, trains[kind], forest_config, ridge=ridge,
                                  n_jobs=n_jobs)
                medians = predict_medians(model, test.covariate_matrix)
            except Exception as exc:  # isolate per-model failures
                results[kind] = ModelAxisResult(
                    model=kind, axis=axis, n_test=len(test),
                    n_converted=n_conv_test, rmsle=None, fn_rate=None,
                    fp_rate=None, fp_churn_rate=None, error=str(exc),
                    exit_code=getattr(exc, "exit_code", 3))
                continue
            outcomes = build_outcomes(test, medians)
            outcomes_by_kind[kind] = outcomes
            try:
                err = rmsle(outcomes)
            except UndefinedMetricError:
                err = None
            fn, fp = confusion_rates(outcomes)
            fp_churn = (churn_qualified_fp_rate(outcomes)
                        if test.competing_risks else None)
            results[kind] = ModelAxisResult(
                model=kind, axis=axis, n_test=len(test), n_converted=n_conv_test,
                rmsle=err, fn_rate=fn, fp_rate=fp, fp_churn_rate=fp_churn)
    return [results[k] for k in kinds], {k: outcomes_by_kind[k] for k in kinds
                                         if k in outcomes_by_kind}


def scatter_pairs(outcomes: list[PredictionOutcome]) -> list[tuple[float, float]]:
    """(observed, predicted) pairs for observed-and-predicted converters."""
    return [(o.observed_time, o.predicted_median) for o in outcomes
            if o.observed_converted and o.predicted_median is not None]


@dataclass(frozen=True)
class EvaluationReport:
    """All model x axis rows, renderable as JSON or an aligned text table."""

    rows: tuple[ModelAxisResult, ...]

    def to_json_dict(self) -> dict:
        return {
            "metrics": ["rmsle", "false_negative_rate", "false_positive_rate"],
            "results": [
                {
                    "model": r.model,
                    "axis": r.axis,
                    "n_test": r.n_test,
                    "n_converted": r.n_converted,
                    "rmsle": r.rmsle,
                    "false_negative_rate": r.fn_rate,
                    "false_positive_rate": r.fp_rate,
                    "churn_qualified_fp_rate": r.fp_churn_rate,
                    "error": r.error,
                }
                for r in self.rows
            ],
        }

    def to_text(self) -> str:
        axes = list(dict.fromkeys(r.axis for r in self.rows))
        models = list(dict.fromkeys(r.model for r in self.rows))
        by_key = {(r.model, r.axis): r for r in self.rows}

        def cell(r: ModelAxisResult | None, metric: str) -> str:
            if r is None:
                return "-"
            if r.error is not None:
                return "failed"
            value = getattr(r, metric)
            if value is None:
                return "n/a"
            if metric == "rmsle":
                return f"{value:.4f}"
            return f"{100.0 * value:.2f}%"

        header_groups = [("RMSLE", "rmsle"), ("False Negatives", "fn_rate"),
                         ("False Positives", "fp_rate")]
        width = 10
        group_width = max(len(t) for t, _ in header_groups)
        group_width = max(group_width, (width + 1) * len(axes) - 1)
        lines = []
        top = f"{'Model':<10}"
        sub = f"{'':<10}"
        for title, _ in header_groups:
            top += f" | {title:^{group_width}}"
            cells = " ".join(f"{a:^{width}}" for a in axes)
            sub += f" | {cells:^{group_width}}"
        lines.append(top)
        lines.append(sub)
        lines.append("-" * len(sub))
        for m in models:
            line = f"{m:<10}"
            for _, metric in header_groups:
                cells = " ".join(
                    f"{cell(by_key.get((m, a)), metric):^{width}}" for a in axes)
                line += f" | {cells:^{group_width}}"
            lines.append(line)
        return "\n".join(lines) + "\n"
