"""Unified model-file format (JSON, format version 1).

Top-level object:

    {
      "format_version": 1,
      "kind": "cox" | "rsf" | "cif" | "rsf-cr",
      "axis": "lifetime" | "level" | "playtime",
      "feature_names": [...],
      "feature_spec_hash": "...",
      "train_config": {...},          # config echo incl. seed
      "model": {...}                  # kind-specific payload
    }

Cox payload: {"beta", "baseline_knots", "baseline_values", "convergence"}.

Forest payload: {"config": {...}, "grid": [...], "trees": [...]} with
config["n_trees"] trees, where each tree is flat node arrays {"feature",
"threshold", "left", "right", "leaf_index"} (threshold null at leaves,
finite at splits) plus "leaves": per-leaf risk tables {"times",
"at_risk", "d_conv", "d_churn"} and, for conditional ensembles,
"at_risk_grid". Leaf curves are recomputed from the counts on load, so a
save/load round trip reproduces predictions bit-identically (JSON floats
use shortest round-trip representation).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .core import TimeAxis
from .cox import ConvergenceInfo, CoxFit, StepFunction
from .errors import CompatibilityError, ConfigError
from .evaluation import model_kind, needs_churn_labels
from .forest import ForestConfig, ForestKind, ForestModel, Leaf, SurvivalTree

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelFile:
    kind: str
    axis: TimeAxis
    feature_names: tuple[str, ...]
    feature_spec_hash: str
    train_config: dict
    model: CoxFit | ForestModel


def _cox_payload(fit: CoxFit) -> dict:
    return {
        "beta": np.asarray(fit.beta, dtype=float).tolist(),
        "baseline_knots": np.asarray(fit.baseline_cum_hazard.knots, dtype=float).tolist(),
        "baseline_values": np.asarray(fit.baseline_cum_hazard.values, dtype=float).tolist(),
        "convergence": dataclasses.asdict(fit.convergence),
    }


def _cox_from_payload(payload: dict, kind: str, feature_names, axis) -> CoxFit:
    beta = np.array(payload["beta"], dtype=float)
    knots = np.array(payload["baseline_knots"], dtype=float)
    values = np.array(payload["baseline_values"], dtype=float)
    if beta.shape != (len(feature_names),):
        raise CompatibilityError(
            f"Cox beta has shape {beta.shape} for {len(feature_names)} features")
    if (knots.ndim != 1 or not np.all(np.isfinite(knots))
            or np.any(~(np.diff(knots) > 0))):
        raise CompatibilityError(
            "Cox baseline knots are not finite and strictly increasing")
    if (values.shape != knots.shape or not np.all(np.isfinite(values))
            or np.any(values < 0) or np.any(np.diff(values) < 0)):
        raise CompatibilityError(
            "Cox baseline cumulative hazard is not one finite, non-negative, "
            "non-decreasing value per knot")
    return CoxFit(
        beta=beta,
        baseline_cum_hazard=StepFunction(knots, values, 0.0),
        feature_names=tuple(feature_names),
        convergence=ConvergenceInfo(**payload["convergence"]),
    )


def _check_train_config(config, kind: str) -> None:
    """The training churn window, echoed for the record, must be one that
    could have labelled the model's training data."""
    if not isinstance(config, dict):
        raise CompatibilityError("train_config is not an object")
    if "churn_window" not in config:
        return
    window = config["churn_window"]
    if isinstance(window, bool) or not isinstance(window, int):
        raise CompatibilityError(
            f"train_config churn_window {window!r} is not an integer")
    if needs_churn_labels(kind) and window <= 0:
        raise CompatibilityError(
            f"train_config churn_window {window} must be > 0 for an {kind} model")


def _tree_payload(tree: SurvivalTree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": [None if f < 0 else t for f, t in
                      zip(tree.feature.tolist(), tree.threshold.tolist())],
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "leaf_index": tree.leaf_index.tolist(),
        "leaves": [
            {
                "times": np.asarray(leaf.times, dtype=float).tolist(),
                "at_risk": leaf.at_risk.tolist(),
                "d_conv": leaf.d_conv.tolist(),
                "d_churn": leaf.d_churn.tolist(),
                "at_risk_grid": (None if leaf.at_risk_grid is None
                                 else leaf.at_risk_grid.tolist()),
            }
            for leaf in tree.leaves
        ],
    }


def _tree_from_payload(payload: dict, n_features: int, grid: np.ndarray,
                       grid_at_risk: bool) -> SurvivalTree:
    leaves = [
        Leaf(
            times=np.array(lf["times"], dtype=float),
            at_risk=np.array(lf["at_risk"], dtype=int),
            d_conv=np.array(lf["d_conv"], dtype=int),
            d_churn=np.array(lf["d_churn"], dtype=int),
            at_risk_grid=(None if lf["at_risk_grid"] is None
                          else np.array(lf["at_risk_grid"], dtype=int)),
        )
        for lf in payload["leaves"]
    ]
    threshold = np.array(
        [np.nan if t is None else t for t in payload["threshold"]], dtype=float)
    tree = SurvivalTree(
        feature=np.array(payload["feature"], dtype=np.int32),
        threshold=threshold,
        left=np.array(payload["left"], dtype=np.int32),
        right=np.array(payload["right"], dtype=np.int32),
        leaf_index=np.array(payload["leaf_index"], dtype=np.int32),
        leaves=leaves,
    )
    _check_tree(tree, n_features)
    _check_leaves(leaves, grid, grid_at_risk)
    return tree


def _check_tree(tree: SurvivalTree, n_features: int) -> None:
    """Reject a tree that prediction could not route to a leaf.

    Nodes are stored in preorder, so requiring every child id to lie
    strictly between its parent's id and the node count proves the tree
    acyclic as well as in range.
    """
    n = len(tree.feature)
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.leaf_index)
    if n == 0 or any(a.shape != (n,) for a in arrays):
        raise CompatibilityError("tree node arrays are empty or differ in length")
    inner = np.nonzero(tree.feature >= 0)[0]
    for child in (tree.left[inner], tree.right[inner]):
        if np.any((child <= inner) | (child >= n)):
            raise CompatibilityError("tree child ids break the preorder layout")
    if not np.all(np.isfinite(tree.threshold[inner])):
        raise CompatibilityError("tree split thresholds are not finite")
    if np.any(tree.feature >= n_features):
        raise CompatibilityError("tree splits on a feature the model lacks")
    leaf_ids = tree.leaf_index[tree.feature < 0]
    if np.any((leaf_ids < 0) | (leaf_ids >= len(tree.leaves))):
        raise CompatibilityError("tree leaf_index lies outside its leaf list")


def _check_leaves(leaves: list[Leaf], grid: np.ndarray, grid_at_risk: bool) -> None:
    """Reject leaf risk tables that are not counts of a risk set on ``grid``.

    Valid counts give monotone leaf curves, which median prediction
    relies on when it bisects the grid; leaf knots are grid points, which
    its knot tables rely on.
    """
    for leaf in leaves:
        n = leaf.times.shape
        if len(n) != 1 or any(a.shape != n for a in
                              (leaf.at_risk, leaf.d_conv, leaf.d_churn)):
            raise CompatibilityError("leaf count arrays differ in length")
        if (leaf.at_risk_grid is not None) != grid_at_risk:
            raise CompatibilityError(
                "at_risk_grid must be present exactly in cif leaves")
        if grid_at_risk and leaf.at_risk_grid.shape != grid.shape:
            raise CompatibilityError("leaf at_risk_grid does not match the grid")
    times, at_risk, d_conv, d_churn = (
        np.concatenate([getattr(lf, f) for lf in leaves])
        for f in ("times", "at_risk", "d_conv", "d_churn"))
    owner = np.repeat(np.arange(len(leaves)), [lf.times.size for lf in leaves])
    same_leaf = owner[1:] == owner[:-1]
    if (not np.all(np.isfinite(times))
            or np.any(same_leaf & ~(np.diff(times) > 0))):
        raise CompatibilityError("leaf times are not strictly increasing")
    if not np.all(np.isin(times, grid)):
        raise CompatibilityError("leaf times are not points of the model grid")
    if np.any(at_risk <= 0) or np.any(same_leaf & (np.diff(at_risk) > 0)):
        raise CompatibilityError("leaf at_risk is not positive and non-increasing")
    if np.any((d_conv < 0) | (d_churn < 0) | (d_conv + d_churn > at_risk)):
        raise CompatibilityError(
            "leaf event counts are negative or exceed the number at risk")


def _forest_payload(model: ForestModel) -> dict:
    return {
        "config": dataclasses.asdict(model.config),
        "grid": np.asarray(model.grid, dtype=float).tolist(),
        "trees": [_tree_payload(t) for t in model.trees],
    }


def _forest_from_payload(payload: dict, kind: str, feature_names, axis) -> ForestModel:
    grid = np.array(payload["grid"], dtype=float)
    if grid.ndim != 1 or np.any(~(np.diff(grid) > 0)):
        raise CompatibilityError("model grid is not strictly increasing")
    try:
        config = ForestConfig(**payload["config"])
    except ConfigError as exc:
        raise CompatibilityError(f"forest config: {exc}") from None
    if len(payload["trees"]) != config.n_trees:
        raise CompatibilityError(
            f"forest has {len(payload['trees'])} trees but its config "
            f"names {config.n_trees}")
    kind = ForestKind(kind)
    return ForestModel(
        kind=kind,
        trees=tuple(_tree_from_payload(t, len(feature_names), grid, kind.grid_at_risk)
                    for t in payload["trees"]),
        config=config,
        feature_names=tuple(feature_names),
        axis=axis,
        grid=grid,
    )


# kind -> (payload writer, payload reader(payload, kind, feature names, axis)):
# the one place this module names a kind
_PAYLOADS = {"cox": (_cox_payload, _cox_from_payload),
             **{k.value: (_forest_payload, _forest_from_payload) for k in ForestKind}}


def save_model(path, model: CoxFit | ForestModel, *, axis: TimeAxis,
               feature_names, feature_spec_hash: str, train_config: dict) -> None:
    kind = model_kind(model)
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "axis": TimeAxis(axis).value,
        "feature_names": list(feature_names),
        "feature_spec_hash": feature_spec_hash,
        "train_config": train_config,
        "model": _PAYLOADS[kind][0](model),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))
        fh.write("\n")


def load_model(path) -> ModelFile:
    """Read a model file; a malformed one raises CompatibilityError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _model_file(json.load(fh))
    except CompatibilityError as exc:
        raise CompatibilityError(f"model file {path}: {exc}") from None
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CompatibilityError(
            f"model file {path} is malformed: {type(exc).__name__}: {exc}") from exc


def _model_file(doc: dict) -> ModelFile:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CompatibilityError(
            f"format version {version!r}; this build reads "
            f"version {FORMAT_VERSION}")
    kind = doc["kind"]
    axis = TimeAxis(doc["axis"])
    names = tuple(doc["feature_names"])
    _check_train_config(doc["train_config"], kind)
    if kind not in _PAYLOADS:
        raise CompatibilityError(f"unknown model kind {kind!r}")
    model = _PAYLOADS[kind][1](doc["model"], kind, names, axis)
    return ModelFile(
        kind=kind,
        axis=axis,
        feature_names=names,
        feature_spec_hash=doc["feature_spec_hash"],
        train_config=doc["train_config"],
        model=model,
    )
