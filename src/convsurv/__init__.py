"""Survival-analysis library for predicting free-to-play player conversion.

Models whether and when non-paying players convert, on three time axes
(lifetime days, game level, cumulative playtime), with four predictors:
Cox regression, random survival forests, conditional-inference survival
ensembles, and a competing-risks forest treating churn as a rival event.
"""

from .core import EventStatus, StepFunction, SurvivalDataset, TimeAxis
from .cox import CoxFit, fit_cox, predict_cox_survival
from .estimators import (
    RiskTable,
    aalen_johansen,
    all_cause_survival,
    kaplan_meier,
    km_confidence_band,
    nelson_aalen,
    risk_table,
)
from .evaluation import (
    EvaluationReport,
    ModelAxisResult,
    PredictionOutcome,
    SplitSpec,
    confusion_rates,
    evaluate_models,
    rmsle,
    stratified_split,
)
from .forest import (
    ForestConfig,
    ForestKind,
    ForestModel,
    fit_conditional_ensemble,
    fit_rsf,
    fit_rsf_competing,
    predict_forest_incidence,
    predict_forest_survival,
)
from .generator import GeneratorConfig, GroundTruth, generate_synthetic
from .pipeline import (
    PlayerLog,
    PlayerLogs,
    PlayerRow,
    build_dataset,
    filter_newcomers,
    ingest_logs,
)

__version__ = "0.1.0"

__all__ = [
    "EventStatus", "StepFunction", "SurvivalDataset", "TimeAxis",
    "CoxFit", "fit_cox", "predict_cox_survival",
    "RiskTable", "aalen_johansen", "all_cause_survival", "kaplan_meier",
    "km_confidence_band", "nelson_aalen", "risk_table",
    "EvaluationReport", "ModelAxisResult", "PredictionOutcome", "SplitSpec",
    "confusion_rates", "evaluate_models", "rmsle", "stratified_split",
    "ForestConfig", "ForestKind", "ForestModel", "fit_conditional_ensemble",
    "fit_rsf", "fit_rsf_competing", "predict_forest_incidence", "predict_forest_survival",
    "GeneratorConfig", "GroundTruth", "generate_synthetic",
    "PlayerLog", "PlayerLogs", "PlayerRow", "build_dataset", "filter_newcomers",
    "ingest_logs",
]
