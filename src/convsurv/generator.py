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
Each stream gives its eight scalar draws first; churn day, purchase and
login probability are then computed for all players at once, under the
observation rule calibration uses. Then each sized draw is one pass over
the streams (logins, playtime, sessions, actions with level gains, repeat
purchases), with the arithmetic between passes on flat arrays.
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


def _observe(cfg: GeneratorConfig, reg, t_churn, t_conv):
    """Each player's last activity day and whether its purchase is observed:
    within the activity span, the window and the intent horizon."""
    last_day = np.clip(np.floor(t_churn).astype(int), 1, _last_possible_day(cfg, reg))
    observed = (np.floor(t_conv).astype(int)
                <= np.minimum(last_day, _CONV_HORIZON_DAYS))
    return last_day, observed


def _calibrate_intercept(cfg: GeneratorConfig) -> float:
    """Root-find the propensity intercept hitting the target PU rate.

    Uses a fixed-stream Monte Carlo cohort of multi-day players and the
    players' observation rule, so the expectation being matched is the
    realized converter fraction among players that survive the >= 2
    login-day filter.
    """
    rng = np.random.default_rng((cfg.seed, _CALIBRATION_STREAM))
    m = _CALIBRATION_PLAYERS
    z1 = rng.standard_normal(m)
    z2 = rng.standard_normal(m)
    reg = rng.integers(0, _registration_limit(cfg), size=m)
    t_churn = _churn_scale(z1, z2) * rng.weibull(_CHURN_SHAPE, m)
    u_impulse = rng.random(m)
    t_conv = _conversion_scale(z1, z2, u_impulse) * rng.weibull(_CONV_SHAPE, m)
    _, observable = _observe(cfg, reg, t_churn, t_conv)
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


def generate_synthetic(cfg: GeneratorConfig) -> tuple[PlayerLogs, list[GroundTruth]]:
    """Simulate ``cfg.n_players`` players; returns (log table, ground truth)."""
    intercept = _calibrate_intercept(cfg) if cfg.pu_propensity > 0 else -math.inf
    width = len(str(cfg.n_players - 1))
    ids = [f"p{i:0{width}d}" for i in range(cfg.n_players)]
    rngs = [np.random.default_rng((cfg.seed, i)) for i in range(cfg.n_players)]
    # each stream's draw order is fixed: these eight scalars, then one pass
    # over the streams per sized draw below; changing it reshuffles all output
    limit = _registration_limit(cfg)
    z1, z2, u_otc, reg, u_flag, w_churn, u_impulse, w_conv = np.array([
        (*rng.standard_normal(2), rng.random(), rng.integers(0, limit), rng.random(),
         rng.weibull(_CHURN_SHAPE), rng.random(), rng.weibull(_CONV_SHAPE))
        for rng in rngs]).T
    reg = reg.astype(int)
    t_conv = _conversion_scale(z1, z2, u_impulse) * w_conv
    last_day, observed = _observe(cfg, reg, _churn_scale(z1, z2) * w_churn, t_conv)
    is_otc = u_otc < cfg.one_time_comer_rate
    last_day[is_otc] = 0
    churned = last_day < _last_possible_day(cfg, reg)
    converted = (~is_otc & observed
                 & (u_flag < _sigmoid(intercept + _propensity_eta(z1, z2))))
    # the purchase day, or a day past the span for players who never buy
    buy_day = np.where(converted, np.floor(t_conv).astype(int), last_day + 1)
    # logins: days 0 and last_day are active, the purchase day too, and each
    # day between with the player's login probability
    span = last_day + 1
    owner = np.repeat(np.arange(cfg.n_players), span)
    day = np.arange(span.sum()) - (np.cumsum(span) - span)[owner]
    between = (day > 0) & (day < last_day[owner])
    logins = np.concatenate([
        rng.random(k) for rng, k in zip(rngs, (span - 2).clip(0).tolist())])
    active = ~between | (day == buy_day[owner])
    active[between] |= logins < _sigmoid(0.6 + 0.8 * z1)[owner[between]]
    owner, day = owner[active], day[active]
    n_days = np.bincount(owner, minlength=cfg.n_players)
    offsets = np.concatenate(([0], np.cumsum(n_days)))
    playtime = np.minimum(np.concatenate([rng.lognormal(m, 0.55, k) for rng, m, k in zip(
        rngs, (-0.5 + 0.3 * z1).tolist(), n_days.tolist())]), 16.0)
    # math.exp, not np.exp: the two differ in the last bit on some rates
    sessions = 1 + np.concatenate([rng.poisson(1.2 * math.exp(x), k) for rng, x, k in zip(
        rngs, (0.25 * z1 + 0.3 * z2).tolist(), n_days.tolist())])
    # diminishing, intensity-compressed progression: heavy players level
    # faster, but not so fast that casual lifers never reach their range
    level_rate = np.array([math.exp(0.22 * z) for z in z2.tolist()])[owner]
    rates = np.stack((60.0 * playtime + 5.0 * sessions,
                      3.0 * np.sqrt(playtime) * level_rate * (1.0 + day) ** -0.2))
    # one call per stream draws its actions, then its level gains
    actions, gains = np.hstack([rng.poisson(rates[:, a:b]) for rng, a, b in zip(
        rngs, offsets[:-1].tolist(), offsets[1:].tolist())])
    total = np.cumsum(gains)
    levels = 1 + total - (total - gains)[offsets[:-1]][owner]
    # repeat purchases: each active day after a converter's purchase day
    later = day > buy_day[owner]
    purchases = (day == buy_day[owner]).astype(int)
    purchases[later] += np.concatenate([np.empty(0), *(rng.random(k) for rng, k in zip(
        rngs, np.bincount(owner[later], minlength=cfg.n_players).tolist()) if k)]) < 0.2
    truths = [GroundTruth(pid, c, d if c else None, last if gone else None)
              for pid, c, d, last, gone in zip(ids, converted.tolist(), buy_day.tolist(),
                                              last_day.tolist(), churned.tolist())]
    return PlayerLogs(ids, reg, offsets, reg[owner] + day, np.round(playtime, 3), levels,
                      sessions, actions, purchases), truths


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
