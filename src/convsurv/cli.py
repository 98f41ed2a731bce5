"""Command-line frontend: generate, train, predict, evaluate, curves.

Exit codes: 0 success, 1 usage/configuration, 2 data/validation,
3 internal or model failure. With ``--json-errors`` a machine-parsable
error object is written to stderr.

All commands are deterministic given their flags and seed; training
parallelism (``--threads``, capped by ``CONVSURV_THREADS``) never changes
results, only wall time.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import model_io
from .core import EventStatus, TimeAxis, complement
from .errors import CompatibilityError, ConfigError, EmptyInputError
from .estimators import (
    aalen_johansen,
    cif_confidence_band,
    kaplan_meier,
    km_confidence_band,
)
from .evaluation import (
    MODEL_KINDS,
    EvaluationReport,
    SplitSpec,
    check_model_kinds,
    evaluate_models,
    fit_diagnostics,
    fit_model,
    predict_medians,
    predict_subject_curve,
    scatter_pairs,
    stratified_split,
)
from .forest import ForestConfig, resolve_jobs
from .generator import (
    GeneratorConfig,
    generate_synthetic,
    write_ground_truth_csv,
    write_logs_csv,
)
from .pipeline import (
    DEFAULT_CHURN_WINDOW,
    FeatureSpec,
    build_dataset,
    filter_newcomers,
    ingest_logs,
)

# Not called here: perfbench/spans.py patches these names on this module.
from .cox import fit_cox, predict_median_batch as cox_median_batch  # noqa: F401
from .forest import (  # noqa: F401
    fit_conditional_ensemble,
    fit_rsf,
    fit_rsf_competing,
    predict_median_batch as forest_median_batch,
)

_AXES = tuple(a.value for a in TimeAxis)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _exit_code(exc: Exception) -> int:
    """The exit code a library error carries; an unreadable file is a data error."""
    return 2 if isinstance(exc, OSError) else getattr(exc, "exit_code", 3)


def _load_filtered(path) -> list:
    logs = filter_newcomers(ingest_logs(path))
    if not logs:
        raise EmptyInputError(
            "no players with >= 2 active days after the newcomer filter")
    return logs


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _ridge(text: str) -> float:
    value = _number(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _fraction(text: str) -> float:
    value = _number(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return value


def _churn_window(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _training_config(args, models) -> ForestConfig:
    """The training flags of ``models``, checked before any input is read."""
    check_model_kinds(models, args.churn_window)
    resolve_jobs(args.threads)  # a malformed CONVSURV_THREADS fails here
    n_features = len(FeatureSpec().features)
    if args.mtry is not None and args.mtry > n_features:
        raise ConfigError(
            f"--mtry {args.mtry} exceeds the {n_features} model features")
    return ForestConfig(
        n_trees=args.trees,
        mtry=args.mtry,
        min_node_events=args.min_node_events,
        alpha=args.alpha,
        max_depth=args.max_depth,
        seed=args.seed,
        aggregate=args.aggregate,
    )


def _add_train_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trees", type=int, default=900,
                   help="number of base learners (default 900)")
    p.add_argument("--mtry", type=int, default=None,
                   help="features per node (default ceil(sqrt(p)))")
    p.add_argument("--min-node-events", type=int, default=15)
    p.add_argument("--alpha", type=float, default=0.05,
                   help="conditional-ensemble split significance threshold")
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--aggregate", choices=("pooled", "mean"), default="pooled",
                   help="conditional-ensemble curve aggregation")
    p.add_argument("--ridge", type=_ridge, default=1e-6,
                   help="Cox ridge penalty")
    p.add_argument("--train-frac", type=_fraction, default=0.30)
    p.add_argument("--churn-window", type=_churn_window, default=DEFAULT_CHURN_WINDOW,
                   help="inactivity days labeling churn; 0 disables churn labels")
    p.add_argument("--threads", type=int, default=None,
                   help="training workers (capped by CONVSURV_THREADS)")


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        n_players=args.players,
        pu_propensity=args.pu_rate,
        observation_window_days=args.window,
        one_time_comer_rate=args.one_time_rate,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    logs, truths = generate_synthetic(cfg)
    logs_path = out / "logs.csv"
    truth_path = out / "ground_truth.csv"
    write_logs_csv(logs, logs_path)
    write_ground_truth_csv(truths, truth_path)
    multi = logs.row_counts >= 2
    # every player has a row, so no reduceat segment is empty
    bought = np.add.reduceat(logs.purchases, logs.offsets[:-1]) > 0
    n_multi, converters = int(multi.sum()), int((multi & bought).sum())
    print(f"wrote {logs_path} and {truth_path}: {len(logs)} players, "
          f"{n_multi} multi-day, {converters} observed converters "
          f"({100.0 * converters / max(1, n_multi):.2f}% of multi-day)")
    return 0


def cmd_train(args) -> int:
    cfg = _training_config(args, (args.model,))
    logs = _load_filtered(args.data)
    data = build_dataset(logs, TimeAxis(args.target), competing=args.churn_window > 0,
                         churn_window=args.churn_window)
    train, _test = stratified_split(
        data, SplitSpec(train_fraction=args.train_frac, seed=args.seed))
    spec = FeatureSpec()
    fitted = fit_model(args.model, train, cfg, ridge=args.ridge,
                       n_jobs=args.threads)
    train_config = {
        "model": args.model,
        "target": args.target,
        "seed": args.seed,
        "trees": args.trees,
        "train_frac": args.train_frac,
        "churn_window": args.churn_window,
        "alpha": args.alpha,
        "mtry": args.mtry,
        "min_node_events": args.min_node_events,
        "max_depth": args.max_depth,
        "aggregate": args.aggregate,
        "ridge": args.ridge,
    }
    model_io.save_model(args.out, fitted, axis=TimeAxis(args.target),
                        feature_names=spec.features,
                        feature_spec_hash=spec.spec_hash(),
                        train_config=train_config)
    summary = {
        "config": train_config,
        "n_players": len(logs),
        "n_train": len(train),
        "n_train_converters": train.n_events(EventStatus.CONVERTED),
        "diagnostics": fit_diagnostics(fitted),
    }
    summary_path = Path(str(args.out) + ".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.out} ({args.model} on {args.target}, "
          f"{len(train)} training subjects) and {summary_path}")
    return 0


def cmd_predict(args) -> int:
    model_file = model_io.load_model(args.model)
    spec = FeatureSpec()
    if spec.spec_hash() != model_file.feature_spec_hash:
        raise CompatibilityError(
            "feature spec hash mismatch between the model file and this build")
    # covariates only: prediction reads no labels
    data = build_dataset(_load_filtered(args.data), model_file.axis)
    if args.curve is not None:
        if args.curve not in data.subject_ids:
            raise EmptyInputError(f"player {args.curve!r} not found in input data")
        curve = predict_subject_curve(
            model_file.model, data.covariate_matrix[data.subject_ids.index(args.curve)])
        _write_csv(args.out, ["time", "value"],
                   ([_fmt(t), _fmt(v)] for t, v in zip(curve.knots, curve.values)))
        print(f"wrote curve for {args.curve} to {args.out}")
        return 0
    medians = predict_medians(model_file.model, data.covariate_matrix)
    rows = sorted(zip(data.subject_ids, medians))
    _write_csv(args.out, ["player_id", "predicted_median", "predicted_converter"],
               ([pid, "", "false"] if np.isnan(med) else [pid, _fmt(med), "true"]
                for pid, med in rows))
    print(f"wrote predictions for {len(rows)} players to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    models = MODEL_KINDS if args.models == "all" else tuple(args.models.split(","))
    targets = _AXES if args.targets == "all" else tuple(args.targets.split(","))
    for i, t in enumerate(targets):
        if t not in _AXES:
            raise ConfigError(f"unknown target {t!r}")
        if t in targets[:i]:
            raise ConfigError(f"target {t!r} given twice")
    cfg = _training_config(args, models)
    logs = _load_filtered(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    competing = args.churn_window > 0
    for target in targets:
        data = build_dataset(logs, TimeAxis(target), competing=competing,
                             churn_window=args.churn_window)
        train, test = stratified_split(
            data, SplitSpec(train_fraction=args.train_frac, seed=args.seed))
        results, outcomes = evaluate_models(
            train, test, models, cfg, ridge=args.ridge, n_jobs=args.threads)
        rows.extend(results)
        for kind, kind_outcomes in outcomes.items():
            pairs = scatter_pairs(kind_outcomes)
            base = f"scatter_{kind}_{target}"
            _write_csv(out / f"{base}.csv", ["observed", "predicted"],
                       ([_fmt(obs), _fmt(pred)] for obs, pred in pairs))
            _write_csv(out / f"{base}_loglog.csv", ["log1p_observed", "log1p_predicted"],
                       ([_fmt(math.log1p(obs)), _fmt(math.log1p(pred))]
                        for obs, pred in pairs))
    report = EvaluationReport(tuple(rows))
    doc = {
        "config": {
            "seed": args.seed,
            "train_fraction": args.train_frac,
            "trees": args.trees,
            "churn_window": args.churn_window,
            "models": list(models),
            "targets": list(targets),
        },
        "report": report.to_json_dict(),
    }
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n")
    (out / "report.txt").write_text(report.to_text())
    print(report.to_text(), end="")
    failures = [r for r in rows if r.error is not None]
    for r in failures:
        print(f"model {r.model} on {r.axis} failed: {r.error}", file=sys.stderr)
    return max((r.exit_code for r in failures), default=0)


def cmd_curves(args) -> int:
    logs = _load_filtered(args.data)
    axis = TimeAxis(args.axis)
    if args.population == "converters":
        data = build_dataset(logs, axis, competing=False)
        data = data.subset(np.flatnonzero(data.status_codes == EventStatus.CONVERTED))
        if len(data) == 0:
            raise EmptyInputError("no converters in the input data")
    else:
        data = build_dataset(logs, axis, competing=args.churn_window > 0,
                             churn_window=args.churn_window)
    if data.competing_risks:
        estimate = aalen_johansen(data, EventStatus.CONVERTED)
        lower, upper = cif_confidence_band(data, EventStatus.CONVERTED, args.level)
    else:
        estimate = complement(kaplan_meier(data))
        lo_s, hi_s = km_confidence_band(data, args.level)
        lower, upper = complement(hi_s), complement(lo_s)
    _write_csv(args.out, ["time", "estimate", "lower", "upper"],
               ([_fmt(t), _fmt(e), _fmt(lo), _fmt(hi)] for t, e, lo, hi in
                zip(estimate.knots, estimate.values, lower.values, upper.values)))
    print(f"wrote {estimate.knots.size} incidence knots to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="convsurv",
                     description="Player-conversion survival analysis")
    parser.add_argument("--json-errors", action="store_true",
                        help="emit machine-parsable error JSON on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic player-log dataset")
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--pu-rate", type=float, default=0.053)
    p.add_argument("--window", type=int, default=120,
                   help="observation window in days")
    p.add_argument("--one-time-rate", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit one model on the stratified train split")
    p.add_argument("--data", required=True, help="player-log CSV")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--target", choices=_AXES, required=True)
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--seed", type=int, default=0)
    _add_train_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict median conversion times")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--data", required=True, help="player-log CSV")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--curve", default=None, metavar="PLAYER_ID",
                   help="emit this subject's survival/incidence curve instead")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="full model-comparison protocol")
    p.add_argument("--data", required=True, help="player-log CSV")
    p.add_argument("--models", default="all",
                   help="'all' or comma-separated subset of " + ",".join(MODEL_KINDS))
    p.add_argument("--targets", default="all",
                   help="'all' or comma-separated subset of " + ",".join(_AXES))
    p.add_argument("--seed", type=int, required=True,
                   help="mandatory: report must be reproducible")
    p.add_argument("--out", required=True, help="output directory")
    _add_train_options(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("curves", help="population incidence curve with band")
    p.add_argument("--data", required=True, help="player-log CSV")
    p.add_argument("--axis", choices=_AXES, required=True)
    p.add_argument("--population", choices=("all", "converters"), default="all")
    p.add_argument("--level", type=_fraction, default=0.95)
    p.add_argument("--churn-window", type=_churn_window, default=DEFAULT_CHURN_WINDOW)
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    json_errors = "--json-errors" in raw
    parser = build_parser()
    try:
        args = parser.parse_args(raw)
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        if json_errors:
            payload = {"error": type(exc).__name__, "message": str(exc),
                       "exit_code": code}
            print(json.dumps(payload), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
