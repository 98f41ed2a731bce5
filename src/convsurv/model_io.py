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
config["n_trees"] trees. Each tree holds the flat node arrays named in
``_NODE_FIELDS`` (threshold null at leaves, finite at splits) plus
"leaves", one risk table per leaf with the arrays named in
``_LEAF_FIELDS`` (at_risk_grid null outside conditional ensembles); the
file keeps these per-leaf arrays, while memory holds one LeafTable per tree.
Integer arrays hold JSON integers only and float arrays JSON numbers
only. Leaf curves are recomputed from the counts on load, so a save/load
round trip reproduces predictions bit-identically (JSON floats use
shortest round-trip representation).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .core import TimeAxis
from .cox import ConvergenceInfo, CoxFit, StepFunction
from .errors import CompatibilityError, ConfigError
from .evaluation import model_kind, needs_churn_labels
from .forest import ForestConfig, ForestKind, ForestModel, LeafTable, SurvivalTree

FORMAT_VERSION = 1

# (name, dtype) of a tree's node arrays and of a leaf's risk-table arrays,
# in file order: the writer and the reader walk these
_NODE_FIELDS = (("feature", np.int32), ("threshold", float), ("left", np.int32),
                ("right", np.int32), ("leaf_index", np.int32))
_LEAF_FIELDS = (("times", float), ("at_risk", int), ("d_conv", int), ("d_churn", int),
                ("at_risk_grid", int))


@dataclass(frozen=True)
class ModelFile:
    kind: str
    axis: TimeAxis
    feature_names: tuple[str, ...]
    feature_spec_hash: str
    train_config: dict
    model: CoxFit | ForestModel


def _numbers(values, dtype) -> list | None:
    """An array (or None) as the JSON value ``_array`` reads back."""
    return None if values is None else np.asarray(values, dtype=dtype).tolist()


def _array(values, dtype, what: str) -> np.ndarray:
    """A JSON array as a 1-D array of ``dtype``, ``float`` or an integer type.

    Integer arrays take only JSON integers and float arrays only JSON
    numbers. numpy alone would parse numeric strings and truncate fractions
    and booleans (``np.array([True, 2])`` is int64), so a mistyped file
    would load and mispredict.
    """
    floats = dtype is float
    if type(values) is not list or not set(map(type, values)) <= (
            {int, float} if floats else {int}):
        raise CompatibilityError(
            f"{what} is not an array of JSON {'numbers' if floats else 'integers'}")
    return np.array(values, dtype=dtype)


def _chained(parts: list, dtype, what: str) -> np.ndarray:
    """JSON arrays ``parts``, chained, as one array (see _array)."""
    return _array(list(itertools.chain.from_iterable(parts))
                  if set(map(type, parts)) <= {list} else None, dtype, what)


def _cox_payload(fit: CoxFit) -> dict:
    return {
        "beta": _numbers(fit.beta, float),
        "baseline_knots": _numbers(fit.baseline_cum_hazard.knots, float),
        "baseline_values": _numbers(fit.baseline_cum_hazard.values, float),
        "convergence": dataclasses.asdict(fit.convergence),
    }


def _cox_from_payload(payload: dict, kind: str, feature_names, axis) -> CoxFit:
    beta = _array(payload["beta"], float, "Cox beta")
    knots = _array(payload["baseline_knots"], float, "Cox baseline_knots")
    values = _array(payload["baseline_values"], float, "Cox baseline_values")
    if beta.shape != (len(feature_names),):
        raise CompatibilityError(
            f"Cox beta has shape {beta.shape} for {len(feature_names)} features")
    if not np.all(np.isfinite(knots)) or np.any(~(np.diff(knots) > 0)):
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
    lowest = 1 if needs_churn_labels(kind) else 0
    if window < lowest:
        raise CompatibilityError(
            f"train_config churn_window {window} must be >= {lowest} for model kind {kind!r}")


def _tree_payload(tree: SurvivalTree) -> dict:
    payload = {name: _numbers(getattr(tree, name), dtype) for name, dtype in _NODE_FIELDS}
    # thresholds are null at leaves, finite at splits
    payload["threshold"] = [None if f < 0 else t for f, t in
                            zip(payload["feature"], payload["threshold"])]
    # one object per leaf: its count slices, then its at_risk_grid row or null
    bounds = tree.leaves.offsets.tolist()
    *counts, grid_rows = (_numbers(getattr(tree.leaves, name), dtype)
                          for name, dtype in _LEAF_FIELDS)
    payload["leaves"] = [
        {**{name: c[a:b] for (name, _), c in zip(_LEAF_FIELDS, counts)}, "at_risk_grid": q}
        for a, b, q in zip(bounds, bounds[1:], grid_rows or [None] * len(tree.leaves))]
    return payload


def _tree_from_payload(payload: dict, n_features: int, grid: np.ndarray,
                       grid_at_risk: bool) -> SurvivalTree:
    """A tree whose leaves' arrays of each field are chained into one and
    type-checked as one. A leaf's counts must be as long as its times, and
    its at_risk_grid, null exactly outside cif, as the grid."""
    parts = {name: [leaf[name] for leaf in payload["leaves"]] for name, _ in _LEAF_FIELDS}
    if any((q is not None) != grid_at_risk for q in parts["at_risk_grid"]):
        raise CompatibilityError("at_risk_grid must be present exactly in cif leaves")
    columns = {name: _chained(parts[name], dtype, f"leaf {name}")
               for name, dtype in _LEAF_FIELDS if grid_at_risk or name != "at_risk_grid"}
    sizes = [len(times) for times in parts["times"]]
    if any([len(c) for c in parts[name]] != sizes for name in ("at_risk", "d_conv", "d_churn")):
        raise CompatibilityError("leaf count arrays differ in length")
    if grid_at_risk:
        if any(len(q) != grid.size for q in parts["at_risk_grid"]):
            raise CompatibilityError("leaf at_risk_grid does not match the grid")
        columns["at_risk_grid"] = columns["at_risk_grid"].reshape(len(sizes), grid.size)
    leaves = LeafTable(np.cumsum([0, *sizes]), **columns)
    nodes = {name: payload[name] for name, _ in _NODE_FIELDS}
    nodes["threshold"] = [np.nan if t is None else t for t in nodes["threshold"]]
    tree = SurvivalTree(**{name: _array(nodes[name], dtype, f"tree {name}")
                           for name, dtype in _NODE_FIELDS}, leaves=leaves)
    _check_tree(tree, n_features)
    _check_leaves(leaves, grid)
    return tree


def _check_tree(tree: SurvivalTree, n_features: int) -> None:
    """Reject a tree that prediction could not route to a leaf.

    Nodes are stored in preorder, so requiring every child id to lie
    strictly between its parent's id and the node count proves the tree
    acyclic as well as in range.
    """
    n = len(tree.feature)
    if n == 0 or any(getattr(tree, name).shape != (n,) for name, _ in _NODE_FIELDS):
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


def _check_leaves(leaves: LeafTable, grid: np.ndarray) -> None:
    """Reject a tree's leaf risk tables that are not risk-set counts on ``grid``.

    Valid counts give monotone leaf curves, which median prediction
    relies on when it bisects the grid; leaf knots are grid points, which
    its knot tables rely on.
    """
    times, at_risk, d_conv, d_churn = leaves.times, leaves.at_risk, leaves.d_conv, leaves.d_churn
    owner = np.repeat(np.arange(len(leaves)), np.diff(leaves.offsets))
    same_leaf = owner[1:] == owner[:-1]
    if (not np.all(np.isfinite(times))
            or np.any(same_leaf & ~(np.diff(times) > 0))):
        raise CompatibilityError("leaf times are not strictly increasing")
    if not np.all(np.append(grid, np.nan)[np.searchsorted(grid, times)] == times):
        raise CompatibilityError("leaf times are not points of the model grid")
    if np.any(at_risk <= 0) or np.any(same_leaf & (np.diff(at_risk) > 0)):
        raise CompatibilityError("leaf at_risk is not positive and non-increasing")
    if np.any((d_conv < 0) | (d_churn < 0) | (d_conv + d_churn > at_risk)):
        raise CompatibilityError(
            "leaf event counts are negative or exceed the number at risk")


def _forest_payload(model: ForestModel) -> dict:
    return {
        "config": dataclasses.asdict(model.config),
        "grid": _numbers(model.grid, float),
        "trees": [_tree_payload(t) for t in model.trees],
    }


def _forest_from_payload(payload: dict, kind: str, feature_names, axis) -> ForestModel:
    grid = _array(payload["grid"], float, "model grid")
    if np.any(~(np.diff(grid) > 0)):
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
    trees = tuple(_tree_from_payload(t, len(feature_names), grid, kind.grid_at_risk)
                  for t in payload["trees"])
    return ForestModel(kind=kind, trees=trees, config=config,
                       feature_names=tuple(feature_names), axis=axis, grid=grid)


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
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError,
            ValueError) as exc:
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
