import numpy as np
import pytest

from convsurv import forest
from convsurv.core import EventStatus, SurvivalDataset, TimeAxis


def make_dataset(times, statuses, x=None, competing=False,
                 axis=TimeAxis.LIFETIME, feature_names=None):
    """Build a dataset from parallel lists; x defaults to a zero column."""
    times = np.asarray(times, dtype=float)
    n = times.size
    if x is None:
        x = np.zeros((n, 1 if n else 0))
    else:
        x = (np.array([np.atleast_1d(row) for row in x], dtype=float).reshape(n, -1)
             if n else np.empty((0, 0)))
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(x.shape[1]))
    return SurvivalDataset(tuple(f"s{i}" for i in range(n)), times,
                           [int(EventStatus(s)) for s in statuses], x,
                           tuple(feature_names), axis, competing)


def random_dataset(rng, n, competing=False, p=1, tie_prob=0.3):
    """Small random dataset with ties and mixed censoring."""
    base = rng.integers(1, max(2, n), size=n).astype(float)
    cont = rng.random(n) * n
    times = np.where(rng.random(n) < tie_prob, base, np.round(cont, 2))
    if competing:
        statuses = rng.choice(
            [EventStatus.CENSORED, EventStatus.CONVERTED, EventStatus.CHURNED],
            size=n, p=[0.35, 0.35, 0.30])
    else:
        statuses = rng.choice(
            [EventStatus.CENSORED, EventStatus.CONVERTED], size=n, p=[0.4, 0.6])
    x = rng.standard_normal((n, p))
    return make_dataset(times, statuses, x, competing=competing)


def make_leaves(tables):
    """A tree's LeafTable from per-leaf risk tables, in leaf order: (times,
    at_risk, d_conv, d_churn), plus at_risk_grid for cif."""
    times, at_risk, d_conv, d_churn, *grid = zip(*tables)
    return forest.LeafTable(
        np.cumsum([0, *map(len, times)]),
        *(np.concatenate([np.asarray(part, dtype=dtype) for part in field])
          for field, dtype in ((times, float), (at_risk, int), (d_conv, int), (d_churn, int))),
        np.array(grid[0], dtype=int) if grid else None)


def make_tree(tables, split=None):
    """A one-leaf tree, or one whose root ``split`` (feature, threshold)
    has a leaf on each side, holding the risk tables ``tables`` (see
    make_leaves)."""
    if split is None:
        nodes = ([-1], [np.nan], [-1], [-1], [0])
    else:
        nodes = ([split[0], -1, -1], [split[1], np.nan, np.nan], [1, -1, -1],
                 [2, -1, -1], [-1, 0, 1])
    feature, threshold, left, right, leaf_index = nodes
    return forest.SurvivalTree(
        feature=np.array(feature, dtype=np.int32), threshold=np.array(threshold),
        left=np.array(left, dtype=np.int32), right=np.array(right, dtype=np.int32),
        leaf_index=np.array(leaf_index, dtype=np.int32), leaves=make_leaves(tables))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
