import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
