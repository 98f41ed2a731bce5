"""Calibrated synthetic player-log generator.

Simulates freemium players with two latent engagement traits:

* ``z1`` (play intensity): drives login probability, daily playtime,
  session counts and how long the player stays before churning.
* ``z2`` (progression skill): drives level velocity.

Conversion has two parts. A propensity Bernoulli decides whether a player
would ever purchase; its intercept is calibrated by Monte Carlo root
finding so that the fraction of observed converters among players with
>= 2 active days matches ``pu_propensity``. The time of the purchase
follows a Weibull law whose scale combines an engagement term, a
threshold-gated interaction and a two-regime impulse/deliberate mixture,

    scale = 12 * regime(z2)
            * exp(-0.25 z1 - 0.25 max(z1,0) max(z2,0)),

with regime 0.35 (impulse buyer, probability sigmoid(0.9 z1 + 0.9 z2 + 0.2))
or 1.5 (deliberate buyer), so engaged players buy on impulse early while
deliberate purchases come from casual players with little accumulation. The mixture and the gate are deliberately outside the
linear-exponential family, so proportional-hazard models are misspecified
in the timing while the observable features (playtime, sessions, level
velocity, activity) still carry the signal. The small scale
concentrates purchases in the first weeks, mirroring freemium reality:
long-time non-payers rarely convert, so the population baseline survival
stays far above one half. Churn time is Weibull with a log-linear scale
in the latents. A purchase is observed only if it falls within the
player's activity span, the observation window and the intent horizon
(21 days): players who have not purchased within a few
weeks of registering have stopped considering it, so no conversions occur
deep in the censored tail.

Generation is deterministic per (seed, player index): each player has an
independent RNG substream, so output files are byte-identical per seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .pipeline import EXPECTED_HEADER, PlayerLog, PlayerLogs

# propensity weights: engaged, skilled players convert far more often; the
# steep near-linear form concentrates a third of the conversion mass in a
# pocket with individual conversion probability above one half
_PROP_W1 = 2.8
_PROP_W2 = 2.2
_PROP_INTER = 0.3
# conversion-time law: a Weibull with engagement scaling, a threshold-gated
# interaction and an impulse-vs-deliberate regime mixture keyed to skill; the
# mixture and the gate put the law well outside the linear-exponential family
_CONV_SHAPE = 1.5
_CONV_SCALE = 12.0
_CONV_A = 0.25
_CONV_B = 0.25
_IMPULSE_LOGIT = (0.9, 0.9, 0.2)   # weights on z1, z2, offset
_IMPULSE_FAST = 0.35
_IMPULSE_SLOW = 1.5
# purchases come within this many days of registration or not at all
_CONV_HORIZON_DAYS = 21
# churn-time law: Weibull with log-linear dependence on the latents
_CHURN_SHAPE = 1.0
_CHURN_SCALE = 100.0
_CHURN_W1 = 0.4
_CHURN_W2 = 0.15

_CALIBRATION_PLAYERS = 120_000
_CALIBRATION_STREAM = 0x5EED_CA1


@dataclass(frozen=True)
class GeneratorConfig:
    n_players: int
    pu_propensity: float = 0.053
    observation_window_days: int = 60
    one_time_comer_rate: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.n_players < 1:
            raise ConfigError("n_players must be >= 1")
        if not 0.0 <= self.pu_propensity < 1.0:
            raise ConfigError("pu_propensity must lie in [0, 1)")
        if self.observation_window_days < 5:
            raise ConfigError("observation_window_days must be >= 5")
        if not 0.0 <= self.one_time_comer_rate < 1.0:
            raise ConfigError("one_time_comer_rate must lie in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass(frozen=True)
class GroundTruth:
    """Sidecar labels, never visible to the feature path.

    Days are lifetime days since registration. ``true_churn_day`` is None
    for players still active at the window end.
    """

    player_id: str
    true_converter: bool
    true_conversion_day: int | None
    true_churn_day: int | None


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _propensity_eta(z1, z2):
    return (_PROP_W1 * z1 + _PROP_W2 * z2
            + _PROP_INTER * np.maximum(z1, 0.0) * np.maximum(z2, 0.0))


def _conversion_scale(z1, z2, u_impulse):
    gate = np.maximum(z1, 0.0) * np.maximum(z2, 0.0)
    w1, w2, off = _IMPULSE_LOGIT
    impulse = u_impulse < _sigmoid(w1 * z1 + w2 * z2 + off)
    regime = np.where(impulse, _IMPULSE_FAST, _IMPULSE_SLOW)
    return (_CONV_SCALE * regime
            * np.exp(-_CONV_A * z1 - _CONV_B * gate))


def _churn_scale(z1, z2):
    return _CHURN_SCALE * np.exp(_CHURN_W1 * z1 + _CHURN_W2 * z2)


def _registration_limit(cfg: GeneratorConfig) -> int:
    # keep every span longer than the intent horizon so late registrants
    # cannot masquerade as imminent converters
    return max(1, cfg.observation_window_days - _CONV_HORIZON_DAYS - 7)


def _last_possible_day(cfg: GeneratorConfig, reg_day):
    return cfg.observation_window_days - 1 - reg_day


def _calibrate_intercept(cfg: GeneratorConfig) -> float:
    """Root-find the propensity intercept hitting the target PU rate.

    Uses a fixed-stream Monte Carlo cohort of multi-day players and the
    exact observation rule (purchase within the activity span), so the
    expectation being matched is the realized converter fraction among
    players that survive the >= 2 login-day filter.
    """
    rng = np.random.default_rng((cfg.seed, _CALIBRATION_STREAM))
    m = _CALIBRATION_PLAYERS
    z1 = rng.standard_normal(m)
    z2 = rng.standard_normal(m)
    reg = rng.integers(0, _registration_limit(cfg), size=m)
    t_churn = _churn_scale(z1, z2) * rng.weibull(_CHURN_SHAPE, m)
    u_impulse = rng.random(m)
    t_conv = _conversion_scale(z1, z2, u_impulse) * rng.weibull(_CONV_SHAPE, m)
    max_day = _last_possible_day(cfg, reg)
    last_day = np.minimum(np.maximum(np.floor(t_churn).astype(int), 1), max_day)
    observable = (np.floor(t_conv).astype(int)
                  <= np.minimum(last_day, _CONV_HORIZON_DAYS))
    eta = _propensity_eta(z1, z2)

    def realized(intercept: float) -> float:
        return float(np.mean(_sigmoid(intercept + eta) * observable)) - cfg.pu_propensity

    if realized(8.0) < 0:
        raise ConfigError(
            "pu_propensity unreachable: even certain converters fall outside "
            "the observation window; widen it")
    # realized() rises with the intercept: 64 halvings of [-25, 8] narrow it
    # to neighbouring floats
    low, high = -25.0, 8.0
    for _ in range(64):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if realized(mid) < 0 else (low, mid)
    return high


def _simulate_player(pid: str, rng: np.random.Generator, cfg: GeneratorConfig,
                     intercept: float) -> tuple[tuple[np.ndarray, ...], GroundTruth]:
    """The player's log columns, in ``PlayerRow`` field order, and ground truth."""
    # draw order is fixed; changing it would silently reshuffle all output
    z1 = rng.standard_normal()
    z2 = rng.standard_normal()
    is_otc = rng.random() < cfg.one_time_comer_rate
    reg = int(rng.integers(0, _registration_limit(cfg)))
    u_flag = rng.random()
    t_churn = _churn_scale(z1, z2) * rng.weibull(_CHURN_SHAPE)
    u_impulse = rng.random()
    t_conv = (float(_conversion_scale(z1, z2, np.asarray(u_impulse)))
              * rng.weibull(_CONV_SHAPE))

    max_day = _last_possible_day(cfg, reg)
    if is_otc:
        active_days = np.array([0])
        churn_day = 0
        churned = True
        conv_day = None
    else:
        churn_day = min(max(int(math.floor(t_churn)), 1), max_day)
        churned = churn_day < max_day
        flagged = (cfg.pu_propensity > 0.0
                   and u_flag < float(_sigmoid(intercept + _propensity_eta(z1, z2))))
        conv_day = int(math.floor(t_conv)) if flagged else None
        if conv_day is not None and conv_day > min(
                churn_day, _CONV_HORIZON_DAYS):
            conv_day = None  # purchase intent faded before it materialized
        login_prob = float(_sigmoid(0.6 + 0.8 * z1))
        mids = np.arange(1, churn_day)
        active = mids[rng.random(mids.size) < login_prob]
        days = {0, churn_day} | set(int(d) for d in active)
        if conv_day is not None:
            days.add(conv_day)
        active_days = np.array(sorted(days))

    n_days = active_days.size
    playtime = np.minimum(
        rng.lognormal(-0.5 + 0.3 * z1, 0.55, n_days), 16.0)
    sessions = 1 + rng.poisson(1.2 * math.exp(0.25 * z1 + 0.3 * z2), n_days)
    actions = rng.poisson(60.0 * playtime + 5.0 * sessions)
    # diminishing, intensity-compressed progression: heavy players level
    # faster, but not so fast that casual lifers never reach their range
    damp = (1.0 + active_days) ** -0.2
    level_gain = rng.poisson(3.0 * np.sqrt(playtime) * math.exp(0.22 * z2) * damp)
    levels = 1 + np.cumsum(level_gain)

    purchases = np.zeros(n_days, dtype=int)
    if conv_day is not None:
        conv_pos = int(np.searchsorted(active_days, conv_day))
        purchases[conv_pos] = 1
        later = rng.random(n_days - conv_pos - 1) < 0.2
        purchases[conv_pos + 1:][later] += 1

    truth = GroundTruth(
        player_id=pid,
        true_converter=conv_day is not None,
        true_conversion_day=conv_day,
        true_churn_day=churn_day if churned else None,
    )
    columns = (reg + active_days, np.round(playtime, 3), levels, sessions,
               actions, purchases)
    return columns, truth


def generate_synthetic(cfg: GeneratorConfig) -> tuple[PlayerLogs, list[GroundTruth]]:
    """Simulate ``cfg.n_players`` players; returns (log table, ground truth)."""
    intercept = _calibrate_intercept(cfg) if cfg.pu_propensity > 0 else -math.inf
    width = len(str(cfg.n_players - 1))
    ids = [f"p{i:0{width}d}" for i in range(cfg.n_players)]
    players, truths = zip(*(
        _simulate_player(pid, np.random.default_rng((cfg.seed, i)), cfg, intercept)
        for i, pid in enumerate(ids)))
    day, *columns = (np.concatenate(c) for c in zip(*players))
    offsets = np.cumsum([0] + [p[0].size for p in players])
    # every player is active on its registration day
    return PlayerLogs(ids, day[offsets[:-1]], offsets, day, *columns), list(truths)


def write_logs_csv(logs: PlayerLogs | list[PlayerLog], path) -> None:
    table = PlayerLogs.from_logs(logs)
    ids = np.repeat(np.array(table.ids, dtype=object), table.row_counts)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EXPECTED_HEADER)
        writer.writerows(zip(ids.tolist(), *(c.tolist() for c in table.columns)))


def write_ground_truth_csv(truths: list[GroundTruth], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["player_id", "true_converter", "true_conversion_day",
                         "true_churn_day"])
        for t in truths:
            writer.writerow([
                t.player_id,
                int(t.true_converter),
                "" if t.true_conversion_day is None else t.true_conversion_day,
                "" if t.true_churn_day is None else t.true_churn_day,
            ])


def read_ground_truth_csv(path) -> list[GroundTruth]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            out.append(GroundTruth(
                player_id=row["player_id"],
                true_converter=row["true_converter"] == "1",
                true_conversion_day=(int(row["true_conversion_day"])
                                     if row["true_conversion_day"] else None),
                true_churn_day=(int(row["true_churn_day"])
                                if row["true_churn_day"] else None),
            ))
    return out
