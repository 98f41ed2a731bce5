"""Synthetic-generator calibration, determinism and label consistency."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convsurv.cli import main
from convsurv.core import EventStatus, TimeAxis
from convsurv.errors import ConfigError
from convsurv.generator import (
    GeneratorConfig,
    _observe,
    generate_synthetic,
    write_ground_truth_csv,
    write_logs_csv,
)
from convsurv.pipeline import build_dataset, filter_newcomers, ingest_logs

from oracles import read_ground_truth_csv, records, reference_generate

TABLE_FIELDS = ("registration", "offsets", "day_index", "playtime_hours", "level",
                "sessions", "actions", "purchases")


@pytest.fixture(scope="module")
def medium_cohort():
    cfg = GeneratorConfig(n_players=5000, seed=424)
    return cfg, generate_synthetic(cfg)


class TestDeterminism:
    def test_same_seed_same_files(self, tmp_path):
        cfg = GeneratorConfig(n_players=300, seed=7)
        for run in ("a", "b"):
            logs, truths = generate_synthetic(cfg)
            write_logs_csv(logs, tmp_path / f"logs_{run}.csv")
            write_ground_truth_csv(truths, tmp_path / f"truth_{run}.csv")
        assert (tmp_path / "logs_a.csv").read_bytes() == \
            (tmp_path / "logs_b.csv").read_bytes()
        assert (tmp_path / "truth_a.csv").read_bytes() == \
            (tmp_path / "truth_b.csv").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        logs1, _ = generate_synthetic(GeneratorConfig(n_players=100, seed=1))
        logs2, _ = generate_synthetic(GeneratorConfig(n_players=100, seed=2))
        assert [len(l.rows) for l in logs1] != [len(l.rows) for l in logs2]

    @pytest.mark.parametrize("argv,logs_sha,truth_sha,summary", [
        (["--players", "300", "--seed", "7"],
         "3773c6eb7bf5bc9cf9e5e7eea48743d0072494c7fd0658cdac7396b0f7129df8",
         "4267a9295502153b3defad11ef7c0d638d7fe3014aaf7e8f849c392539d9b49c",
         "300 players, 213 multi-day, 14 observed converters (6.57% of multi-day)"),
        (["--players", "300", "--window", "60", "--seed", "11"],
         "8311df128f950c1ba1664b0b6178bff389decaf3533799c96872df9dec9174ef",
         "724a9cdce9c560a1441846174adddbb620a2b4e190ab05fa992fd38d3a1dc3d5",
         "300 players, 211 multi-day, 16 observed converters (7.58% of multi-day)"),
        (["--players", "300", "--pu-rate", "0", "--seed", "3"],
         "2c7315c7a74d0251a69bf17e000c7ce577af988591628f7181f095abd5a3bd78",
         "187a85ffedf83845ea429e58536e1f1b35b8e442148c7d0d65949a225566b3ed",
         "300 players, 211 multi-day, 0 observed converters (0.00% of multi-day)"),
        (["--players", "300", "--one-time-rate", "0", "--seed", "5"],
         "47da045010f403bc455c4b02ba3eaa0b81fbe14500febaf5a0ed98e0463793c1",
         "807f910fa3e3c4aa529eda8b6351621f1a1dfa9ff1d7dc076d1d7ebc1ebb8c4a",
         "300 players, 300 multi-day, 19 observed converters (6.33% of multi-day)"),
        # a 20-day window floors the registration limit at 1
        (["--players", "300", "--window", "20", "--seed", "13"],
         "f84161dbe0a445a03ed3e61e0692b30d63b8df8e5dee8d6e78d79d3260a0c0d7",
         "50bc3be86fb178dfa7fd8a5b6474eca0cbbc8d9f92fff2ec97e5b37a8294d691",
         "300 players, 221 multi-day, 6 observed converters (2.71% of multi-day)"),
        # the cohort of both benchmark workloads
        (["--players", "20000", "--window", "60", "--seed", "7"],
         "7bcfd1c267ac7f670cdf94b1911a0b79786c986434814578122a4fb932e669c1",
         "243a48dd64d30d075c0eafc61fecde7f32d1ae2edec972ff1d36d5a429a91db7",
         "20000 players, 14986 multi-day, 814 observed converters (5.43% of multi-day)"),
        (["--players", "20000", "--window", "60", "--seed", "11"],
         "fbef52096490600a6e7be42f0d18942bff4cae1a0becf99385617f01ac255ed3",
         "74f6fb18082db96102746b4e10dde63058abba7505b731908b938818cc21be9b",
         "20000 players, 15014 multi-day, 779 observed converters (5.19% of multi-day)"),
        # the acceptance suite's BENCH_SEED
        (["--players", "20000", "--window", "60", "--seed", "20240817"],
         "311c645f3bf5e829c1453f16a17a8d66eead4de08b8187bcb4139ff62080ecbc",
         "05e8e7ac0f875f255fbe410867b1953ad505d63d166c96ae2458a0b62c99153d",
         "20000 players, 14862 multi-day, 800 observed converters (5.38% of multi-day)"),
    ])
    def test_pinned_files_and_summary(self, tmp_path, capsys, argv, logs_sha,
                                      truth_sha, summary):
        """The bytes of both files and the summary line are frozen per seed."""
        assert main(["generate", *argv, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.rstrip("\n").endswith(".csv: " + summary)
        for name, sha in (("logs.csv", logs_sha), ("ground_truth.csv", truth_sha)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha

    def test_written_csv_ingests_to_the_generated_table(self, tmp_path):
        logs, _ = generate_synthetic(GeneratorConfig(n_players=400, seed=9))
        write_logs_csv(logs, tmp_path / "logs.csv")
        table = ingest_logs(tmp_path / "logs.csv")
        assert table.ids == logs.ids
        for name in TABLE_FIELDS:
            got, want = getattr(table, name), getattr(logs, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_ground_truth_roundtrip(self, tmp_path):
        _, truths = generate_synthetic(GeneratorConfig(n_players=120, seed=5))
        path = tmp_path / "t.csv"
        write_ground_truth_csv(truths, path)
        assert read_ground_truth_csv(path) == truths


class TestReference:
    @settings(max_examples=40, deadline=None)
    @given(cfg=st.builds(
        GeneratorConfig,
        n_players=st.integers(1, 300),
        pu_propensity=st.just(0.0) | st.floats(0.01, 0.2),
        observation_window_days=st.integers(5, 200),
        one_time_comer_rate=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32 - 1)))
    @example(cfg=GeneratorConfig(n_players=30, pu_propensity=0.5,
                                 observation_window_days=5))  # unreachable
    @example(cfg=GeneratorConfig(n_players=1, seed=4))
    # the repeat-purchase pass makes no draw at all
    @example(cfg=GeneratorConfig(n_players=200, pu_propensity=0.0, seed=8))
    # long spans with many converters: many repeat-purchase draws
    @example(cfg=GeneratorConfig(n_players=200, one_time_comer_rate=0.0,
                                 pu_propensity=0.2, observation_window_days=200,
                                 seed=12))
    @example(cfg=GeneratorConfig(n_players=200, observation_window_days=5, seed=6))
    def test_matches_per_player_reference(self, cfg):
        """The passes over all streams give the per-player simulation's table
        and truth, or fail with its ConfigError."""
        try:
            ref_logs, ref_truths = reference_generate(cfg)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as caught:
                generate_synthetic(cfg)
            assert str(caught.value) == str(exc)
            return
        logs, truths = generate_synthetic(cfg)
        assert logs.ids == ref_logs.ids
        for name in TABLE_FIELDS:
            got, want = getattr(logs, name), getattr(ref_logs, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert truths == ref_truths


class TestObservationRule:
    """The rule calibration and players share, at its edges."""

    cfg = GeneratorConfig(n_players=1, observation_window_days=60)

    def observe(self, t_churn, t_conv, reg=0):
        last_day, observed = _observe(self.cfg, np.array([reg]), np.array([t_churn]),
                                      np.array([t_conv]))
        return int(last_day[0]), bool(observed[0])

    def test_churn_before_day_one_keeps_day_one(self):
        assert self.observe(0.4, 5.0) == (1, False)
        assert self.observe(0.4, 1.5) == (1, True)

    def test_churn_past_the_window_stops_at_its_last_day(self):
        assert self.observe(500.0, 5.0, reg=10)[0] == 60 - 1 - 10
        assert self.observe(59.0, 5.0)[0] == 59

    def test_intent_horizon_ends_after_day_21(self):
        assert self.observe(50.0, 21.9) == (50, True)
        assert self.observe(50.0, 22.0) == (50, False)

    def test_purchase_on_the_last_active_day_is_observed(self):
        assert self.observe(10.5, 10.9) == (10, True)
        assert self.observe(10.5, 11.0) == (10, False)


class TestCalibration:
    def test_realized_pu_rate_near_target(self, medium_cohort):
        """5000 players is a sanity check; the 20000-player +-0.5pp check
        lives in the acceptance suite."""
        cfg, (logs, _) = medium_cohort
        multi = [l for l in logs if len(l.rows) >= 2]
        rate = np.mean([l.first_purchase_row() is not None for l in multi])
        assert abs(rate - cfg.pu_propensity) < 0.015

    def test_one_time_comer_rate(self, medium_cohort):
        cfg, (logs, _) = medium_cohort
        single = np.mean([len(l.rows) == 1 for l in logs])
        assert abs(single - cfg.one_time_comer_rate) < 0.03

    def test_zero_pu_rate_means_zero_converters(self):
        logs, truths = generate_synthetic(
            GeneratorConfig(n_players=400, pu_propensity=0.0, seed=3))
        assert not any(t.true_converter for t in truths)
        assert all(l.first_purchase_row() is None for l in logs)


class TestLabelConsistency:
    def test_pipeline_agrees_with_ground_truth(self, medium_cohort):
        """Non-censored pipeline labels match the sidecar exactly."""
        cfg, (logs, truths) = medium_cohort
        truth_by_id = {t.player_id: t for t in truths}
        data = build_dataset(
            filter_newcomers(logs), TimeAxis.LIFETIME, competing=True,
            churn_window=9, data_end=cfg.observation_window_days - 1)
        for rec in records(data):
            truth = truth_by_id[rec.subject_id]
            if rec.status == EventStatus.CONVERTED:
                assert truth.true_converter
                assert rec.time == float(truth.true_conversion_day)
            elif rec.status == EventStatus.CHURNED:
                assert truth.true_churn_day is not None
                assert rec.time == float(truth.true_churn_day)

    def test_logs_respect_invariants(self, medium_cohort):
        """Sorted unique days, none before registration, and non-decreasing
        levels come from the PlayerLogs table check on construction;
        purchases imply converter ground truth."""
        _, (logs, truths) = medium_cohort
        truth_by_id = {t.player_id: t for t in truths}
        for log in logs:
            has_purchase = log.first_purchase_row() is not None
            assert has_purchase == truth_by_id[log.player_id].true_converter


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_players": 0}, {"pu_propensity": 1.0}, {"pu_propensity": -0.1},
        {"observation_window_days": 2}, {"one_time_comer_rate": 1.0},
        {"seed": -1},
    ])
    def test_bad_configs(self, kwargs):
        base = {"n_players": 10}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            GeneratorConfig(**base)
