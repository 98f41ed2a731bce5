"""Survival tree ensembles: one growing chassis, three model kinds.

* RSF: joint (feature, cutpoint) selection maximizing the absolute
  standardized log-rank statistic; leaves carry cumulative-hazard curves
  and the ensemble survival is exp(-mean cumulative hazard).
* Conditional-inference ensemble: two-step splits. Step 1 tests each
  candidate feature's association with log-rank scores via a standardized
  permutation linear statistic (Bonferroni-adjusted, stop when the best
  adjusted p-value exceeds ``alpha``); step 2 picks the cutpoint that
  maximizes the standardized two-sample statistic on the selected feature.
  Leaves carry product-limit curves; trees aggregate either by pooling
  event/at-risk counts across trees ("pooled", default) or by averaging
  per-tree curves ("mean").
* Competing-risks RSF: cause-specific log-rank splitting for the
  conversion event (churn treated as censoring inside the statistic);
  leaves carry per-cause hazards plus the all-cause survival so ensemble
  incidence curves conserve total probability exactly.

Training is deterministic: per-tree RNG streams derive from
(seed, tree index), so forests are bit-identical for any degree of
training parallelism. ``CONVSURV_THREADS`` caps worker processes.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import core
from .core import EventStatus, StepFunction, SurvivalDataset, TimeAxis, row_chunks
from .errors import (
    ConfigError,
    ConvsurvError,
    DegenerateFitError,
    InvalidEventError,
    InvalidModelError,
    WrongEstimatorError,
)
from .estimators import (COUNT_CURVES, event_counts, na_values_from_counts,
                         two_sided_normal_pvalue)


class ForestKind(enum.Enum):
    RSF = "rsf"
    CONDITIONAL = "cif"
    COMPETING = "rsf-cr"

    @property
    def grid_at_risk(self) -> bool:
        """Leaves also count their subjects at risk at every grid time."""
        return self is ForestKind.CONDITIONAL


@dataclass(frozen=True)
class ForestConfig:
    """Ensemble hyperparameters; only ``n_trees`` is fixed by the protocol.

    ``mtry`` defaults to ceil(sqrt(p)) at fit time. ``min_node_events``
    counts events of any type in each daughter node. ``max_candidates``
    caps cutpoint scans on near-continuous features to quantile-spaced
    midpoints. ``aggregate`` applies to conditional ensembles only.
    """

    n_trees: int = 900
    mtry: int | None = None
    min_node_events: int = 15
    bootstrap: bool = True
    alpha: float = 0.05
    max_depth: int | None = None
    seed: int = 0
    max_candidates: int = 64
    aggregate: str = "pooled"

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError("mtry must be >= 1")
        if self.min_node_events < 1:
            raise ConfigError("min_node_events must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must lie in (0, 1]")
        if self.max_candidates < 1:
            raise ConfigError("max_candidates must be >= 1")
        if self.aggregate not in ("pooled", "mean"):
            raise ConfigError("aggregate must be 'pooled' or 'mean'")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class LeafTable:
    """One tree's leaf risk tables: leaf l owns entries offsets[l] to
    offsets[l + 1] - 1 of ``times`` (its distinct event times, any type),
    ``at_risk``, ``d_conv`` and ``d_churn``. In cif, row l of ``at_risk_grid``
    (None in other kinds) counts its subjects at risk at each grid time."""

    offsets: np.ndarray
    times: np.ndarray
    at_risk: np.ndarray
    d_conv: np.ndarray
    d_churn: np.ndarray
    at_risk_grid: np.ndarray | None = None

    def __len__(self) -> int:
        return self.offsets.size - 1


@dataclass
class SurvivalTree:
    """Flat node arrays; feature == -1 marks a leaf, children by index.

    Splits send x[feature] <= threshold to the left child.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_index: np.ndarray
    leaves: LeafTable


@dataclass(frozen=True)
class ForestModel:
    kind: ForestKind
    trees: tuple[SurvivalTree, ...]
    config: ForestConfig
    feature_names: tuple[str, ...]
    axis: TimeAxis
    grid: np.ndarray  # knots shared by all predicted curves

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


# --- split statistics ---------------------------------------------------

def _bin_matrix(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    flat = np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
    return flat.reshape(n_rows, n_cols).astype(float)


@functools.lru_cache(maxsize=4096)
def _thinned(n_mids: int, cap: int) -> np.ndarray:
    """Indices of the midpoints kept: all of them, or ``cap`` quantile-spaced."""
    if n_mids <= cap:
        pick = np.arange(n_mids)
    else:
        pick = np.unique(np.round(np.linspace(0, n_mids - 1, cap)).astype(int))
    pick.flags.writeable = False
    return pick


def _cuts(codes, values, any_event, min_events, cap):
    """(thresholds, row bins, admissible mask) of one feature's cutpoints.

    ``codes`` are the node's ranks into the feature's sorted distinct
    ``values``. Thresholds are midpoints between the node's consecutive
    distinct values, quantile-thinned to ``cap``. Row i goes left of
    threshold j iff its bin is <= j; a cut is admissible when each daughter
    keeps ``min_events`` events of any type.
    """
    ranks = np.flatnonzero(np.bincount(codes, minlength=values.size))
    pick = _thinned(max(ranks.size - 1, 0), cap)
    thresholds = (values[ranks[pick]] + values[ranks[pick + 1]]) / 2.0
    # a row's bin counts the thresholds below its value: threshold j is
    # below every rank from the first value above it on, which is not always
    # the upper of its two values, since a midpoint can round onto that one
    above = np.searchsorted(values, thresholds, side="right")
    tb = np.bincount(above, minlength=values.size + 1).cumsum()[codes]
    ev = np.bincount(tb[any_event], minlength=thresholds.size + 1).cumsum()
    return thresholds, tb, (ev[:-1] >= min_events) & (ev[-1] - ev[:-1] >= min_events)


def _logrank_scan(codes, values, cause_event, any_event, terms, min_events, cap):
    """Standardized log-rank statistic for every admissible cutpoint.

    Returns (thresholds, stats); inadmissible or zero-variance cutpoints
    get -inf. The statistic's events are ``cause_event`` (other causes act
    as censorings), counted by the node's ``terms`` (see _best_split_rsf);
    admissibility counts ``any_event`` per daughter.
    """
    thresholds, tb, adm = _cuts(codes, values, any_event, min_events, cap)
    c = thresholds.size
    stats = np.full(c, -np.inf)
    if not adm.any():
        return thresholds, stats
    rb, de, q, d = terms
    k = q.size
    suffix = np.cumsum(_bin_matrix(rb, tb, k + 1, c + 1)[::-1], axis=0)[::-1]
    ql = np.cumsum(suffix[1:k + 1], axis=1)[:, :c]            # at risk, left side
    dl = np.cumsum(_bin_matrix(de, tb[cause_event], k, c + 1), axis=1)[:, :c]
    frac = ql / q[:, None]
    oe = (dl - d[:, None] * frac).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vterm = d[:, None] * frac * (1.0 - frac) * ((q - d) / (q - 1.0))[:, None]
    vterm[q <= 1.0] = 0.0
    v = vterm.sum(axis=0)
    ok = adm & (v > 0.0)
    stats[ok] = np.abs(oe[ok]) / np.sqrt(v[ok])
    return thresholds, stats


def _logrank_scores(times: np.ndarray, status: np.ndarray) -> np.ndarray:
    """Scores a_i = delta_i - H(t_i), H the node's Nelson-Aalen conversion hazard."""
    event_times, at_risk, d_conv, _, _ = event_counts(times, status)
    cumhaz = np.concatenate(([0.0], na_values_from_counts(at_risk, d_conv)))
    events = status == int(EventStatus.CONVERTED)
    return events.astype(float) - cumhaz[np.searchsorted(event_times, times, side="right")]


def _score_moments(a: np.ndarray):
    centered = a - a.mean()
    return centered, float(centered @ centered) / a.size


def _feature_pvalues(xmat: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Asymptotic permutation-test p-value per candidate feature column.

    The linear statistic sum_i x_i a_i is standardized by its conditional
    permutation moments; constant features get p = 1.
    """
    n = a.size
    centered, var_a = _score_moments(a)
    t = xmat.T @ centered
    ssx = ((xmat - xmat.mean(axis=0)) ** 2).sum(axis=0)
    v = var_a * (n / (n - 1.0)) * ssx if n > 1 else np.zeros_like(t)
    p = np.ones(xmat.shape[1])
    ok = v > 0.0
    cstat = np.abs(t[ok]) / np.sqrt(v[ok])
    p[ok] = [two_sided_normal_pvalue(c) for c in cstat.tolist()]
    return p


def _two_sample_scan(codes, values, a, any_event, min_events, cap):
    """Standardized two-sample score statistic for every admissible cutpoint."""
    thresholds, tb, adm = _cuts(codes, values, any_event, min_events, cap)
    c = thresholds.size
    n = a.size
    stats = np.full(c, -np.inf)
    if not adm.any() or n < 2:
        return thresholds, stats
    sum_left = np.bincount(tb, weights=a, minlength=c + 1).cumsum()[:c]
    n_left = np.bincount(tb, minlength=c + 1).cumsum()[:c]
    _, var_a = _score_moments(a)
    expected = n_left * a.mean()
    v = var_a * n_left * (n - n_left) / (n - 1.0)
    ok = adm & (v > 0.0)
    stats[ok] = np.abs(sum_left[ok] - expected[ok]) / np.sqrt(v[ok])
    return thresholds, stats


# --- tree growth --------------------------------------------------------

def _best_split_rsf(codes, values, t_node, s_node, candidates, min_events, cap):
    """(feature, threshold) of the largest log-rank statistic, or None.

    ``codes[f]`` holds the node's ranks into feature f's distinct
    ``values[f]``.
    """
    cause = s_node == int(EventStatus.CONVERTED)
    # feature-independent terms, once per node: at-risk bins (at risk at
    # cause-event time k iff k < rb), cause-event time indices, and the
    # numbers at risk and of cause events at each cause-event time
    ets, q, d, _, _ = event_counts(t_node, cause.astype(np.int8))
    if ets.size == 0:
        return None
    terms = (np.searchsorted(ets, t_node, side="right"),
             np.searchsorted(ets, t_node[cause]), q.astype(float), d.astype(float))
    any_ev = s_node != int(EventStatus.CENSORED)
    best = (-np.inf, -1, np.nan)
    for f in candidates:
        thr, stats = _logrank_scan(codes[f], values[f], cause, any_ev, terms,
                                   min_events, cap)
        if stats.size == 0:
            continue
        j = int(np.argmax(stats))
        if stats[j] > best[0]:
            best = (float(stats[j]), int(f), float(thr[j]))
    return (best[1], best[2]) if np.isfinite(best[0]) else None


def _best_split_conditional(x_cand, codes, values, t_node, s_node, candidates,
                            min_events, cap, alpha):
    """Two-step split: test the candidates' columns ``x_cand``, then cut the
    selected feature through its rank ``codes`` (see _best_split_rsf)."""
    scores = _logrank_scores(t_node, s_node)
    pvals = _feature_pvalues(x_cand, scores)
    n_tests = int((pvals < 1.0).sum())
    if n_tests == 0:
        return None
    best_i = int(np.argmin(pvals))
    adjusted = min(1.0, pvals[best_i] * n_tests)
    if adjusted > alpha:
        return None
    f = int(candidates[best_i])
    any_ev = s_node != int(EventStatus.CENSORED)
    thr, stats = _two_sample_scan(codes[f], values[f], scores, any_ev,
                                  min_events, cap)
    if stats.size == 0 or not np.isfinite(stats.max()):
        return None
    j = int(np.argmax(stats))
    return f, float(thr[j])


def _grow_tree(xs, cs, values, ts, ss, kind: ForestKind, cfg: ForestConfig,
               mtry: int, rng: np.random.Generator, grid) -> SurvivalTree:
    """Grow one tree on rows ``xs`` (n x p) and their rank codes ``cs``
    (p x n) into the per-feature distinct ``values``."""
    p = xs.shape[1]
    leaf_grid = grid if kind.grid_at_risk else None
    feature, threshold, left, right, leaf_index = [], [], [], [], []
    leaves = []  # each leaf's event_counts result

    stack = [(np.arange(xs.shape[0]), 0, -1, False)]
    while stack:
        idx, depth, parent, is_right = stack.pop()
        node_id = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        leaf_index.append(-1)
        if parent >= 0:
            (right if is_right else left)[parent] = node_id

        t_node, s_node = ts[idx], ss[idx]
        n_events = int(np.sum(s_node != int(EventStatus.CENSORED)))
        split = None
        depth_ok = cfg.max_depth is None or depth < cfg.max_depth
        if depth_ok and n_events >= 2 * cfg.min_node_events:
            candidates = np.sort(rng.choice(p, size=mtry, replace=False))
            codes = cs[:, idx]
            if kind == ForestKind.CONDITIONAL:
                split = _best_split_conditional(
                    xs[idx[:, None], candidates], codes, values, t_node, s_node,
                    candidates, cfg.min_node_events, cfg.max_candidates, cfg.alpha)
            else:
                split = _best_split_rsf(
                    codes, values, t_node, s_node, candidates,
                    cfg.min_node_events, cfg.max_candidates)
        if split is None:
            leaf_index[node_id] = len(leaves)
            leaves.append(event_counts(t_node, s_node, leaf_grid))
            continue
        f, thr = split
        feature[node_id] = f
        threshold[node_id] = thr
        go_left = xs[idx, f] <= thr
        stack.append((idx[~go_left], depth + 1, node_id, True))
        stack.append((idx[go_left], depth + 1, node_id, False))

    times, at_risk, d_conv, d_churn, at_risk_grid = zip(*leaves)
    return SurvivalTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        leaf_index=np.asarray(leaf_index, dtype=np.int32),
        leaves=LeafTable(np.cumsum([0, *map(len, times)]),
                         *map(np.concatenate, (times, at_risk, d_conv, d_churn)),
                         None if leaf_grid is None else np.array(at_risk_grid)),
    )


def _rank_codes(x: np.ndarray) -> tuple:
    """(codes, values): each column's sorted distinct ``values`` and every
    row's rank among them, ``codes`` as a p x n array. A fit makes them
    once; the split scans bin a node's rows through its codes."""
    values, codes = zip(*(np.unique(col, return_inverse=True) for col in x.T))
    return np.array(codes), values


def _grow_indexed(args):
    x, codes, values, times, status, kind, cfg, mtry, grid, tree_idx = args
    rng = np.random.default_rng((cfg.seed, tree_idx))
    n = times.size
    if cfg.bootstrap:
        sample = rng.integers(0, n, size=n)
    else:
        sample = np.arange(n)
    return _grow_tree(x[sample], codes[:, sample], values, times[sample],
                      status[sample], kind, cfg, mtry, rng, grid)


def resolve_jobs(n_jobs: int | None) -> int:
    """Worker count: explicit argument, capped by CONVSURV_THREADS, then
    clamped to 4 x the cores this process may run on, as a fork pool starts
    every worker at once."""
    env = os.environ.get("CONVSURV_THREADS")
    try:
        cap = int(env) if env else None
    except ValueError:
        raise ConfigError(
            f"CONVSURV_THREADS must be an integer, got {env!r}") from None
    if n_jobs is None:
        n_jobs = cap if cap is not None else 1
    if cap is not None:
        n_jobs = min(n_jobs, cap)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return max(1, min(n_jobs, 4 * cores))


def _check_fit(data: SurvivalDataset, cfg: ForestConfig, kind: ForestKind) -> int:
    """A fit's checks, returning its mtry: only rsf-cr takes competing risks
    (churn labels), and every kind needs a conversion event."""
    competing = kind == ForestKind.COMPETING
    if data.competing_risks != competing:
        raise WrongEstimatorError(f"{kind.value} needs a " + (
            "competing-risks dataset with churn labels" if competing else "single-risk dataset"))
    if data.n_events(EventStatus.CONVERTED) == 0:
        raise DegenerateFitError(
            f"cannot grow {kind.value} trees with zero conversion events")
    p = data.covariate_matrix.shape[1]
    mtry = cfg.mtry if cfg.mtry is not None else math.ceil(math.sqrt(p))
    if mtry > p:
        raise ConfigError(f"mtry={mtry} exceeds the feature count {p}")
    return mtry


def _payload(data: SurvivalDataset, cfg: ForestConfig, kind: ForestKind) -> tuple:
    """What every tree of a fit grows from (see _grow_indexed), after its checks."""
    mtry = _check_fit(data, cfg, kind)
    x, times, status = data.covariate_matrix, data.times, data.status_codes
    grid = np.unique(times[status != int(EventStatus.CENSORED)])
    return (x, *_rank_codes(x), times, status, kind, cfg, mtry, grid)


_QUEUE: dict = {}  # kind -> (data, payload, chunks, pool); fork workers see (data, payload)


def _grow_chunk(kind: ForestKind, indices: range) -> list:
    return [_grow_indexed(_QUEUE[kind][1] + (i,)) for i in indices]


@contextlib.contextmanager
def queue_forests(forests, n_jobs: int | None):
    """Queue every tree of ``forests``, (data, cfg, kind) triples, in chunks
    on one fork pool, and yield their kinds in queue order: decreasing
    events counted by the stop rule, so the largest trees start first. In
    the block, the fit of one of them on the same data object and config
    takes its trees. Serial fits and fits that fail a check are not queued.
    Taking the last forest, or leaving the block, shuts the pool down."""
    global _QUEUE
    jobs = resolve_jobs(n_jobs)
    queued = []
    for data, cfg, kind in forests:
        if jobs > 1 and cfg.n_trees >= 2 * jobs:
            with contextlib.suppress(ConvsurvError):  # the fit raises it again
                queued.append((data, _payload(data, cfg, kind)))
    if not queued:
        yield []
        return
    import concurrent.futures  # here, so that a predict never imports them
    import multiprocessing
    # a payload's items 4, 5 and 6 are status, kind and cfg (see _payload)
    queued.sort(reverse=True, key=lambda forest: np.count_nonzero(
        forest[1][4] != int(EventStatus.CENSORED)))
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("fork"))
    # the workers fork at the first submit and inherit the payloads
    # copy-on-write; per-tree seeds make each tree independent of scheduling
    outer, _QUEUE = _QUEUE, {payload[5]: (data, payload) for data, payload in queued}
    try:
        for kind, (data, payload) in list(_QUEUE.items()):
            n, step = payload[6].n_trees, max(1, payload[6].n_trees // (jobs * 4))
            _QUEUE[kind] = (data, payload, [
                pool.submit(_grow_chunk, kind, range(start, min(start + step, n)))
                for start in range(0, n, step)], pool)
        yield list(_QUEUE)
    finally:
        _QUEUE = outer
        pool.shutdown(cancel_futures=True)


def _fit_forest(data: SurvivalDataset, cfg: ForestConfig, kind: ForestKind,
                n_jobs: int | None) -> ForestModel:
    """The fit behind the three kinds' wrappers. Once its checks pass, it
    takes its trees from the open queue_forests block if that queued it,
    else from a block of its own, or grows them one by one."""
    _check_fit(data, cfg, kind)
    held = _QUEUE.get(kind)
    if held is None or held[0] is not data or held[1][6] != cfg:
        with queue_forests([(data, cfg, kind)], n_jobs) as queued:
            if queued:
                return _fit_forest(data, cfg, kind, n_jobs)  # takes the queued trees
        payload = _payload(data, cfg, kind)
        trees = [_grow_indexed(payload + (i,)) for i in range(cfg.n_trees)]
    else:
        _, payload, chunks, pool = _QUEUE.pop(kind)
        trees = [tree for chunk in chunks for tree in chunk.result()]
        if not _QUEUE:
            pool.shutdown()
    return ForestModel(kind=kind, trees=tuple(trees), config=cfg,
                       feature_names=data.feature_names, axis=data.axis,
                       grid=payload[-1])


def fit_rsf(data: SurvivalDataset, cfg: ForestConfig,
            n_jobs: int | None = None) -> ForestModel:
    """Random survival forest with log-rank splitting and hazard leaves."""
    return _fit_forest(data, cfg, ForestKind.RSF, n_jobs)


def fit_conditional_ensemble(data: SurvivalDataset, cfg: ForestConfig,
                             n_jobs: int | None = None) -> ForestModel:
    """Conditional-inference survival ensemble with two-step splitting."""
    return _fit_forest(data, cfg, ForestKind.CONDITIONAL, n_jobs)


def fit_rsf_competing(data: SurvivalDataset, cfg: ForestConfig,
                      n_jobs: int | None = None) -> ForestModel:
    """Competing-risks forest: cause-specific splits, event-specific leaves.

    A dataset without churn events degenerates cleanly to the single-risk
    forest (same trees under the same seeds).
    """
    return _fit_forest(data, cfg, ForestKind.COMPETING, n_jobs)


# --- prediction ---------------------------------------------------------


def _curve_width(grid: np.ndarray, curve: str) -> int:
    """Columns of one leaf's row of a dense table of ``curve``."""
    return grid.size * (2 if curve == "pooled" else 1)


def _route(tree: SurvivalTree, x: np.ndarray) -> np.ndarray:
    """Leaf index (into tree.leaves) for every row of ``x``.

    Every row takes one step per level through an interleaved child table,
    right child then left, indexed by the test ``x <= threshold`` (NaN goes
    right). A leaf is its own child on both sides and tests feature 0
    against +inf, so rows that reached one stay put, and the walk ends
    when no row moves.
    """
    leaf = tree.feature < 0
    node = np.arange(leaf.size)
    child = np.column_stack([np.where(leaf, node, tree.right),
                             np.where(leaf, node, tree.left)]).ravel()
    feat = np.where(leaf, 0, tree.feature)
    thr = np.where(leaf, np.inf, tree.threshold)
    x_flat = np.ascontiguousarray(x).ravel()
    base = np.arange(x.shape[0]) * x.shape[1]
    cur = np.zeros(x.shape[0], dtype=np.intp)
    while True:
        nxt = child[2 * cur + (x_flat[base + feat[cur]] <= thr[cur])]
        if np.array_equal(nxt, cur):
            return tree.leaf_index[cur]
        cur = nxt


def _leaf_counts(tree: SurvivalTree, grid: np.ndarray) -> tuple:
    """Every leaf's counts as one row each, padded to the longest leaf.

    Returns (present, ranks, at_risk, d_conv, d_churn). ``present`` marks
    real knots and ``ranks`` holds their positions on ``grid`` (the first
    grid point at or after the knot). Padding is an eventless risk set of
    one, which leaves every count kernel's running sum or product as it is.
    """
    leaves = tree.leaves
    sizes = np.diff(leaves.offsets)
    present = np.arange(sizes.max()) < sizes[:, None]

    def rows(values: np.ndarray, fill: int) -> np.ndarray:
        out = np.full(present.shape, fill, dtype=values.dtype)
        out[present] = values
        return out

    return (present, rows(np.searchsorted(grid, leaves.times), 0),
            rows(leaves.at_risk, 1), rows(leaves.d_conv, 0), rows(leaves.d_churn, 0))


def _leaf_keys(leaf: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Table key of grid index 0 in each ``leaf``; index g adds g."""
    return (grid.size + 2) * np.asarray(leaf, dtype=np.int64)


def _knot_values(tree: SurvivalTree, grid: np.ndarray, curve: str) -> tuple:
    """(present, ranks, values) of one named curve of every leaf: column 0
    of ``values`` is the value before the leaf's first knot, column k + 1
    its value at knot k, of grid rank ``ranks[:, k]``."""
    present, ranks, at_risk, d_conv, d_churn = _leaf_counts(tree, grid)
    values_at_knots, left_value = COUNT_CURVES[curve]
    values = np.hstack([np.full((present.shape[0], 1), left_value),
                        values_at_knots(at_risk, d_conv, d_churn)])
    return present, ranks, values


def _knot_table(tree: SurvivalTree, grid: np.ndarray, curve: str) -> tuple:
    """One named curve of every leaf of ``tree``, as (keys, values).

    Leaf l contributes its value before the first knot under key
    _leaf_keys(l) - 1, then its value at each knot under _leaf_keys(l) +
    the knot's grid rank. Leaf l's value at grid index g is thus the last
    entry keyed <= _leaf_keys(l) + g (see _knot_lookup).
    """
    present, ranks, values = _knot_values(tree, grid, curve)
    n_leaves = present.shape[0]
    keys = (np.hstack([np.full((n_leaves, 1), -1), ranks])
            + _leaf_keys(np.arange(n_leaves), grid)[:, None])
    entries = np.hstack([np.ones((n_leaves, 1), dtype=bool), present])
    # the leading placeholder lets the count of keys <= a query index the
    # last of them
    return keys[entries], np.concatenate(([np.nan], values[entries]))


def _knot_lookup(table: tuple, queries: np.ndarray) -> np.ndarray:
    """Knot-table values at keys _leaf_keys(leaf) + grid index."""
    keys, values = table
    return values[np.searchsorted(keys, queries, side="right")]


def _dense_table(tree: SurvivalTree, grid: np.ndarray, curve: str) -> np.ndarray:
    """(n_leaves, len(grid) + 2) values of one named curve of every leaf:
    leaf l's value at grid index g is in column g, at flat index
    _leaf_keys(l) + g; the last two columns repeat the last value.

    Each knot's number is marked at its grid rank and carried forward, so
    every grid index picks the last knot at or before it (0, the value
    before the first knot, where there is none). A leaf's knots are
    distinct grid points, so no mark overwrites another.
    """
    present, ranks, values = _knot_values(tree, grid, curve)
    last = np.zeros((present.shape[0], grid.size + 2), dtype=np.intp)
    leaf, knot = np.nonzero(present)
    last[leaf, ranks[present]] = knot + 1
    return np.take_along_axis(values, np.maximum.accumulate(last, axis=1), axis=1)


def _leaf_curve_matrix(tree: SurvivalTree, grid: np.ndarray, curve: str) -> np.ndarray:
    """(n_leaves, len(grid)) values of one named per-leaf curve.

    ``"pooled"`` holds counts instead, (n_leaves, 2 * len(grid)): events
    at each grid time, then subjects at risk there.
    """
    if curve == "pooled":
        present, ranks, _, d_conv, d_churn = _leaf_counts(tree, grid)
        rows = np.zeros((present.shape[0], 2 * grid.size))
        rows[np.nonzero(present)[0], ranks[present]] = (d_conv + d_churn)[present]
        rows[:, grid.size:] = tree.leaves.at_risk_grid
        return rows
    return np.ascontiguousarray(_dense_table(tree, grid, curve)[:, :grid.size])


def _tree_sum(model: ForestModel, x, curve: str) -> np.ndarray:
    """Per-subject sum over the trees, in tree order, of its leaf's curve.

    Leaf tables are gathered one row chunk at a time, so the only
    temporary beside the result is one chunk wide.
    """
    x = core.covariate_rows(x, model.n_features)
    width = _curve_width(model.grid, curve)
    acc = np.zeros((x.shape[0], width))
    for tree in model.trees:
        table = _leaf_curve_matrix(tree, model.grid, curve)
        leaf = _route(tree, x)
        for rows in row_chunks(x.shape[0], width):
            acc[rows] += table[leaf[rows]]
    return acc


def _pooled_survival(acc: np.ndarray) -> np.ndarray:
    d_sum, q_sum = np.hsplit(acc, 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(q_sum > 0.0, d_sum / np.where(q_sum > 0, q_sum, 1.0), 0.0)
    return np.cumprod(1.0 - ratio, axis=1)


def _survival_terms(model: ForestModel) -> tuple:
    """(leaf curve, map from its tree sum to the ensemble survival)."""
    n_trees = len(model.trees)
    if model.kind == ForestKind.RSF:
        return "cumhaz", lambda acc: np.exp(-acc / n_trees)
    if model.kind == ForestKind.COMPETING or model.config.aggregate == "mean":
        return "survival", lambda acc: acc / n_trees
    return "pooled", _pooled_survival


def predict_survival_matrix(model: ForestModel, x) -> np.ndarray:
    """Ensemble survival values, one row per subject, on ``model.grid``."""
    curve, survival = _survival_terms(model)
    return survival(_tree_sum(model, x, curve))


def predict_incidence_matrix(model: ForestModel, x, event: EventStatus) -> np.ndarray:
    """Ensemble cumulative incidence values on ``model.grid`` (competing kind)."""
    if model.kind != ForestKind.COMPETING:
        raise InvalidModelError(
            "incidence prediction requires a competing-risks forest")
    event = EventStatus(event)
    if event == EventStatus.CENSORED:
        raise InvalidEventError("incidence is defined for event types only")
    curve = "cif_conv" if event == EventStatus.CONVERTED else "cif_churn"
    return _tree_sum(model, x, curve) / len(model.trees)


def predict_forest_survival(model: ForestModel, x) -> StepFunction:
    """Subject survival curve (all-cause survival for competing models)."""
    values = predict_survival_matrix(model, np.asarray(x, dtype=float)[None, :])[0]
    return StepFunction(model.grid, values, 1.0)


def predict_forest_incidence(model: ForestModel, x, event: EventStatus) -> StepFunction:
    """Subject cumulative incidence curve for one event type."""
    values = predict_incidence_matrix(
        model, np.asarray(x, dtype=float)[None, :], event)[0]
    return StepFunction(model.grid, values, 0.0)


def _median_terms(model: ForestModel) -> tuple:
    """(leaf curve, test on its tree sum that the median is reached)."""
    if model.kind == ForestKind.COMPETING:
        n_trees = len(model.trees)
        return "cif_conv", lambda acc: acc / n_trees >= 0.5
    curve, survival = _survival_terms(model)
    return curve, lambda acc: survival(acc) <= 0.5


def _bisect_crossing(model: ForestModel, x: np.ndarray, curve: str,
                     crossed) -> np.ndarray:
    """First grid index where ``crossed`` holds, len(grid) where it never does.

    Leaf curves are monotone and rounded addition is monotone, so the
    tree-order sum along the grid is too: ``crossed`` turns true at most
    once along a row, and core.first_crossing finds the crossing a scan of
    the whole curve finds. Each step reads one value per tree at the row's
    leaf key plus the step's grid index: one gather from the trees' dense
    tables while all of them fit CHUNK_BYTES, else a knot-table search.
    Each row chunk is routed through every tree once, into a chunk x trees
    block of leaf keys. The chunk width is the tree count, but at least the
    grid length: a few trees alone would let a chunk reach millions of
    rows, and its dozen row-length vectors would then outweigh the leaf keys.
    """
    grid = model.grid
    n_grid = grid.size
    n_leaves = sum(len(tree.leaves) for tree in model.trees)
    if 8 * (n_grid + 2) * n_leaves <= core.CHUNK_BYTES:  # every key < 2**22
        tables = [_dense_table(tree, grid, curve).ravel() for tree in model.trees]
        lookup, key_type = np.take, np.int32
    else:
        tables = [_knot_table(tree, grid, curve) for tree in model.trees]
        lookup, key_type = _knot_lookup, np.int64
    first = np.empty(x.shape[0], dtype=np.int64)
    for rows in row_chunks(x.shape[0], max(len(model.trees), n_grid)):
        xs = x[rows]
        leaf_keys = [_leaf_keys(_route(tree, xs), grid).astype(key_type, copy=False)
                     for tree in model.trees]

        def crossed_at(mid):
            acc = np.zeros(xs.shape[0])
            for table, keys in zip(tables, leaf_keys):
                acc += lookup(table, keys + mid)
            return crossed(acc)

        first[rows] = core.first_crossing(xs.shape[0], n_grid, crossed_at)
        del leaf_keys  # the next chunk's keys replace these, not join them
    return first


def predict_median_batch(model: ForestModel, x) -> np.ndarray:
    """Vectorized medians; NaN where the curve never crosses 0.5.

    Mean-aggregated kinds bisect the grid (see _bisect_crossing). Pooled
    survival is a running product over the grid, so it cannot be read at
    one grid index: its curve is computed and scanned per row chunk, one
    tree's dense table at a time. Memory is the leaf tables plus one row
    chunk, whatever the row count.
    """
    x = core.covariate_rows(x, model.n_features)
    n_grid = model.grid.size
    if not n_grid:
        return np.full(x.shape[0], np.nan)
    curve, crossed = _median_terms(model)
    if curve != "pooled":
        first = _bisect_crossing(model, x, curve, crossed)
    else:
        first = np.empty(x.shape[0], dtype=np.int64)
        for rows in row_chunks(x.shape[0], _curve_width(model.grid, curve)):
            hit = crossed(_tree_sum(model, x[rows], curve))
            first[rows] = np.where(hit.any(axis=1), np.argmax(hit, axis=1), n_grid)
    return np.append(model.grid, np.nan)[first]  # NaN where no grid point crosses
