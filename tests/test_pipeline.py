"""Log ingestion, the two-day filter, features, and dataset labeling."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose

import oracles
from test_model_io import EDGE_FIELDS
from convsurv import pipeline
from convsurv.core import EventStatus, TimeAxis
from convsurv.errors import LogParseError, LogValidationError
from convsurv.generator import GeneratorConfig, generate_synthetic, write_logs_csv
from convsurv.pipeline import (
    FEATURE_NAMES,
    MODEL_FEATURES,
    FeatureSpec,
    PlayerLog,
    PlayerLogs,
    PlayerRow,
    build_dataset,
    engineer_features,
    filter_newcomers,
    ingest_logs,
)

HEADER = "player_id,day_index,playtime_hours,level,sessions,actions,purchases\n"


def write_csv(tmp_path, body, name="logs.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body)
    return path


def row(day, playtime=1.0, level=1, sessions=1, actions=10, purchases=0):
    return PlayerRow(day, playtime, level, sessions, actions, purchases)


class TestIngest:
    def test_well_formed_file(self, tmp_path):
        path = write_csv(tmp_path, "a,0,1.5,1,2,30,0\na,1,2.0,3,1,12,0\na,4,0.5,3,1,5,1\n")
        logs = ingest_logs(path)
        assert len(logs) == 1
        assert logs[0].player_id == "a"
        assert len(logs[0].rows) == 3
        assert logs[0].registration_day == 0

    def test_header_only_is_empty(self, tmp_path):
        assert len(ingest_logs(write_csv(tmp_path, ""))) == 0

    def test_decreasing_level_names_player(self, tmp_path):
        path = write_csv(tmp_path, "bob,0,1.0,5,1,1,0\nbob,1,1.0,4,1,1,0\n")
        with pytest.raises(LogValidationError, match="bob"):
            ingest_logs(path)

    def test_duplicate_day_names_player(self, tmp_path):
        path = write_csv(tmp_path, "c,2,1.0,1,1,1,0\nc,2,1.0,1,1,1,0\n")
        with pytest.raises(LogValidationError, match="'c'"):
            ingest_logs(path)

    def test_malformed_number_carries_line(self, tmp_path):
        path = write_csv(tmp_path, "a,0,1.0,1,1,1,0\na,one,1.0,1,1,1,0\n")
        with pytest.raises(LogParseError, match="line 3") as exc_info:
            ingest_logs(path)
        assert exc_info.value.line_number == 3

    def test_negative_playtime_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,0,-1.0,1,1,1,0\n")
        with pytest.raises(LogParseError, match="playtime"):
            ingest_logs(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,when\n")
        with pytest.raises(LogParseError, match="header"):
            ingest_logs(path)

    def test_wrong_column_count(self, tmp_path):
        path = write_csv(tmp_path, "a,0,1.0,1,1,1\n")
        with pytest.raises(LogParseError, match="columns"):
            ingest_logs(path)

    def test_rows_sorted_on_ingest(self, tmp_path):
        path = write_csv(tmp_path, "a,5,1.0,2,1,1,0\na,0,1.0,1,1,1,0\n")
        logs = ingest_logs(path)
        assert [r.day_index for r in logs[0].rows] == [0, 5]


class TestFilterNewcomers:
    def test_single_day_removed(self):
        one = PlayerLog("x", 0, (row(0),))
        two = PlayerLog("y", 0, (row(0), row(5, level=2)))
        assert list(filter_newcomers([one, two])) == [two]

    def test_empty_input(self):
        assert len(filter_newcomers([])) == 0


class TestEngineerFeatures:
    def test_constant_playtime(self):
        log = PlayerLog("a", 0, tuple(row(d, playtime=1.0, sessions=2,
                                          actions=10, level=1 + d)
                                      for d in range(5)))
        f = dict(zip(FEATURE_NAMES, engineer_features(log, cutoff=5)))
        assert f["mean_daily_playtime"] == 1.0
        assert f["std_daily_playtime"] == 0.0
        assert f["active_day_ratio"] == 1.0
        assert f["total_sessions"] == 10.0
        assert f["mean_actions_per_session"] == 5.0
        assert f["current_level"] == 5.0

    def test_single_pre_cutoff_day_has_zero_std(self):
        log = PlayerLog("a", 0, (row(0, playtime=2.0), row(3, level=2)))
        f = dict(zip(FEATURE_NAMES, engineer_features(log, cutoff=1)))
        assert f["std_daily_playtime"] == 0.0
        assert f["mean_daily_playtime"] == 2.0

    def test_zero_activity_window_defaults(self):
        log = PlayerLog("a", 0, (row(0), row(1, level=2)))
        f = dict(zip(FEATURE_NAMES, engineer_features(log, cutoff=0)))
        assert f["current_level"] == 1.0
        assert f["mean_daily_playtime"] == 0.0
        assert f["active_day_ratio"] == 0.0

    def test_std_squares_like_python_pow(self):
        """``x ** 2`` calls libm pow, which rounds some squares differently
        from ``x * x``; these playtimes are one such case."""
        log = PlayerLog("a", 0, (row(0, playtime=4.41), row(1, playtime=0.18),
                                 row(2, playtime=4.0, level=2)))
        f = dict(zip(FEATURE_NAMES, engineer_features(log, cutoff=3)))
        assert f["std_daily_playtime"] == 1.9047717856886572
        assert list(f.values()) == oracles.reference_features(log.rows, 0, 3)

    def test_post_cutoff_rows_never_read(self):
        """The leakage guard: rows at or after the cutoff are invisible."""
        base = (row(0, playtime=1.0), row(1, playtime=2.0, level=2))
        extended = base + (row(7, playtime=50.0, level=9, purchases=1),)
        a = engineer_features(PlayerLog("a", 0, base), cutoff=7)
        b = engineer_features(PlayerLog("a", 0, extended), cutoff=7)
        assert np.array_equal(a, b)


class TestBuildDataset:
    def purchase_log(self):
        return PlayerLog("buyer", 0, (
            row(0, playtime=1.0, level=2),
            row(3, playtime=1.5, level=6),
            row(7, playtime=2.0, level=12, purchases=1),
            row(9, playtime=1.0, level=13),
        ))

    def test_converter_hand_trace(self):
        """Purchase on day 7 at level 12 having played 4.5h in total."""
        logs = [self.purchase_log(),
                PlayerLog("other", 0, (row(0), row(12, level=2)))]
        expect = {TimeAxis.LIFETIME: 7.0, TimeAxis.LEVEL: 12.0,
                  TimeAxis.PLAYTIME: 4.5}
        for axis, value in expect.items():
            d = build_dataset(logs, axis)
            rec = d.records[0]
            assert rec.status == EventStatus.CONVERTED
            assert rec.time == value

    def test_censored_at_last_observed_values(self):
        logs = [self.purchase_log(),
                PlayerLog("active", 2, (row(2), row(11, playtime=2.5, level=4)))]
        d = build_dataset(logs, TimeAxis.LIFETIME, data_end=12)
        rec = d.records[1]
        assert rec.status == EventStatus.CENSORED
        assert rec.time == 9.0

    def test_churned_when_inactive_before_data_end(self):
        logs = [self.purchase_log(),
                PlayerLog("gone", 0, (row(0), row(2, playtime=3.0, level=4)))]
        d = build_dataset(logs, TimeAxis.LIFETIME, competing=True,
                          churn_window=9, data_end=30)
        rec = d.records[1]
        assert rec.status == EventStatus.CHURNED
        assert rec.time == 2.0
        level_d = build_dataset(logs, TimeAxis.LEVEL, competing=True,
                                churn_window=9, data_end=30)
        assert level_d.records[1].time == 4.0

    def test_not_churned_within_window(self):
        logs = [self.purchase_log(),
                PlayerLog("gone", 0, (row(0), row(2)))]
        d = build_dataset(logs, TimeAxis.LIFETIME, competing=True,
                          churn_window=9, data_end=10)
        assert d.records[1].status == EventStatus.CENSORED

    def test_status_identical_across_axes(self):
        logs = [self.purchase_log(),
                PlayerLog("a", 0, (row(0), row(2, level=3))),
                PlayerLog("b", 1, (row(1), row(19, level=2)))]
        per_axis = [build_dataset(logs, ax, competing=True, data_end=20)
                    for ax in TimeAxis]
        statuses = [[r.status for r in d.records] for d in per_axis]
        assert statuses[0] == statuses[1] == statuses[2]

    def test_level_at_event_matches_event_day_row(self):
        logs = [self.purchase_log()]
        d = build_dataset(logs, TimeAxis.LEVEL)
        assert d.records[0].time == 12.0  # the level field on the event day

    def test_recode_matches_single_risk_build(self):
        """Recoding a competing dataset equals building single-risk."""
        logs = [self.purchase_log(),
                PlayerLog("gone", 0, (row(0), row(2, level=2)))]
        cr = build_dataset(logs, TimeAxis.LIFETIME, competing=True,
                           churn_window=5, data_end=30)
        single = build_dataset(logs, TimeAxis.LIFETIME, competing=False,
                               churn_window=5, data_end=30)
        rec = cr.recode_competing_as_censored()
        assert [r.status for r in rec.records] == \
            [r.status for r in single.records]
        assert_allclose(rec.times, single.times)
        assert np.array_equal(rec.covariate_matrix, single.covariate_matrix)


class TestFeatureSpec:
    def test_hash_stable_and_sensitive(self):
        a = FeatureSpec()
        b = FeatureSpec(features=FEATURE_NAMES[:5])
        assert a.spec_hash() == FeatureSpec().spec_hash()
        assert a.spec_hash() != b.spec_hash()

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FeatureSpec(features=("not_a_feature",))


class TestPlayerLogs:
    def logs(self):
        return [PlayerLog("x", 0, (row(0),)),
                PlayerLog("y", 2, (row(2, playtime=0.5), row(5, level=2, purchases=1)))]

    def test_round_trip_through_columns(self):
        table = PlayerLogs.from_logs(self.logs())
        assert list(table) == self.logs()
        assert table[-1] == self.logs()[1]
        assert list(table[1:]) == self.logs()[1:]
        assert PlayerLogs.from_logs(table) is table
        with pytest.raises(IndexError):
            table[2]

    def test_columns_are_read_only(self):
        table = PlayerLogs.from_logs(self.logs())
        with pytest.raises(ValueError):
            table.day_index[0] = 1

    def test_take_keeps_rows_with_their_player(self):
        table = PlayerLogs.from_logs(self.logs()).take([1])
        assert table.ids == ("y",)
        assert table.offsets.tolist() == [0, 2]
        assert table.level.tolist() == [1, 2]


LOG_FAULTS = ("empty", "duplicate-day", "swapped-days", "late-registration",
              "decreasing-level")


@st.composite
def faulty_cohort(draw):
    """0-5 valid player logs with none, one or several faults injected."""
    logs = []
    for i in range(draw(st.integers(0, 5))):
        days = sorted(draw(st.sets(st.integers(0, 20), min_size=1, max_size=6)))
        n = len(days)
        level = 1 + np.cumsum(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        registration = max(0, days[0] - draw(st.integers(0, 2)))
        logs.append([f"p{i}", registration,
                     [row(d, level=lv, purchases=draw(st.sampled_from([0, 0, 1])))
                      for d, lv in zip(days, level.tolist())]])
    faults = st.tuples(st.sampled_from(LOG_FAULTS), st.integers(0, max(len(logs) - 1, 0)))
    for fault, at in draw(st.lists(faults, max_size=3)) if logs else ():
        rows = logs[at][2]
        k = draw(st.integers(0, max(len(rows) - 2, 0)))
        if fault == "empty":
            rows.clear()
        elif fault == "duplicate-day" and rows:
            rows.insert(k, rows[k])
        elif fault == "swapped-days" and len(rows) >= 2:
            rows[k], rows[k + 1] = rows[k + 1], rows[k]
        elif fault == "late-registration" and rows:
            logs[at][1] = rows[0].day_index + draw(st.integers(1, 3))
        elif fault == "decreasing-level" and len(rows) >= 2:
            rows[k] = rows[k]._replace(level=rows[k + 1].level + 1)
    return [PlayerLog(pid, registration, rows) for pid, registration, rows in logs]


class TestTableCheck:
    """``PlayerLogs`` construction against the per-log reference check."""

    @settings(max_examples=300, deadline=None)
    @given(logs=faulty_cohort())
    def test_errors_match_reference(self, logs):
        want = error_outcome(oracles.reference_log_check,
                             [(log.player_id, log.registration_day, log.rows)
                              for log in logs])
        assert error_outcome(PlayerLogs.from_logs, logs) == want
        assert error_outcome(filter_newcomers, logs) == want
        assert error_outcome(lambda l: build_dataset(l, TimeAxis.LIFETIME), logs) == want
        for log in logs:
            assert error_outcome(lambda l: engineer_features(l, 10), log) == \
                error_outcome(oracles.reference_log_check,
                              [(log.player_id, log.registration_day, log.rows)])
        if want is None:
            assert list(PlayerLogs.from_logs(logs)) == logs

    def test_player_log_is_a_plain_record(self):
        log = PlayerLog("c", 3, [row(2), row(2)])
        assert log.rows == (row(2), row(2))
        with pytest.raises(LogValidationError,
                           match="^player 'c' has duplicate day_index rows$"):
            PlayerLogs.from_logs([log])


@st.composite
def cohort_csv(draw):
    """A random log file body: unsorted rows, blank lines, one-day players,
    first-day purchases; sometimes integers large enough that totals and
    ratios pass 2**53."""
    scale = draw(st.sampled_from([1, 1, 1, 3 ** 33]))
    playtime = st.one_of(st.integers(0, 24000).map(lambda k: k / 1000),
                         st.floats(0, 24), st.just(-0.0))
    lines = []
    for i in range(draw(st.integers(0, 8))):
        days = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=10)))
        n = len(days)
        level = 1 + np.cumsum(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        for day, lv in zip(days, level.tolist()):
            lines.append(",".join([
                f"p{i}", str(day * scale), repr(draw(playtime)), str(lv * scale),
                str(draw(st.integers(0, 4)) * scale), str(draw(st.integers(0, 60)) * scale),
                str(draw(st.sampled_from([0, 0, 0, 1, 2])))]))
    lines = draw(st.permutations(lines))
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, "")
    return "".join(line + "\n" for line in lines), scale


def error_outcome(ingest, path):
    try:
        ingest(path)
    except (LogParseError, LogValidationError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line_number", None),
                getattr(exc, "player_id", None))
    return None


@st.composite
def undecodable_log(draw):
    """Records of a log, header first, and the index of the one record that
    takes an undecodable byte. Records may hold a bad value, a duplicate
    day or blank lines."""
    body, _ = draw(cohort_csv())
    records = [HEADER.rstrip("\n")] + body.splitlines()
    if len(records) > 1 and draw(st.booleans()):
        at = draw(st.integers(1, len(records) - 1))
        cells = records[at].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(["one", "", "-1", "nan", "1.5", "1,0"]))
        records[at] = ",".join(cells)
    if len(records) > 1 and draw(st.booleans()):
        records.insert(draw(st.integers(1, len(records))),
                       draw(st.sampled_from(records[1:])))
    return records, draw(st.integers(0, len(records) - 1))


class TestColumnarEquivalence:
    """The columnar pipeline against the row-wise reference in oracles.py."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cohort=cohort_csv(), block_rows=st.sampled_from([1, 3, 1024]),
           churn_window=st.integers(0, 12),
           data_end_shift=st.one_of(st.none(), st.integers(0, 12)),
           cutoff=st.integers(-2, 40))
    def test_datasets_match_reference(self, tmp_path, cohort, block_rows,
                                      churn_window, data_end_shift, cutoff):
        body, scale = cohort
        path = write_csv(tmp_path, body)
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            logs = filter_newcomers(ingest_logs(path))
        reference = [log for log in oracles.reference_ingest(path) if len(log[2]) >= 2]
        data_end = None
        if data_end_shift is not None:
            last = max((rows[-1].day_index for _, _, rows in reference), default=0)
            data_end = last + data_end_shift * scale
        for axis in TimeAxis:
            for competing in (False, True):
                for features in (MODEL_FEATURES, FEATURE_NAMES):
                    d = build_dataset(logs, axis, competing, FeatureSpec(features),
                                      churn_window=churn_window, data_end=data_end)
                    ids, times, status, covariates = oracles.reference_dataset(
                        reference, axis.value, competing, features, churn_window,
                        data_end)
                    assert [r.subject_id for r in d.records] == ids
                    assert np.array_equal(d.times, np.array(times, dtype=float))
                    assert np.array_equal(d.status_codes, np.array(status, dtype=np.int8))
                    assert np.array_equal(
                        d.covariate_matrix,
                        np.array(covariates, dtype=float).reshape(len(ids), len(features)))
        for pid, registration, rows in reference:
            got = engineer_features(PlayerLog(pid, registration, rows), cutoff * scale)
            want = oracles.reference_features(rows, registration, cutoff * scale)
            assert np.array_equal(got, np.array(want))

    def test_generated_cohort_matches_reference(self, tmp_path):
        """The generator's cohort shape: long logs, three-decimal playtimes."""
        logs, _ = generate_synthetic(GeneratorConfig(n_players=2000, seed=11))
        path = tmp_path / "logs.csv"
        write_logs_csv(logs, path)
        table = filter_newcomers(ingest_logs(path))
        reference = [log for log in oracles.reference_ingest(path) if len(log[2]) >= 2]
        for axis in TimeAxis:
            d = build_dataset(table, axis, True, FeatureSpec(FEATURE_NAMES))
            _, times, status, covariates = oracles.reference_dataset(
                reference, axis.value, True, FEATURE_NAMES, 9)
            assert np.array_equal(d.times, times)
            assert np.array_equal(d.status_codes, status)
            assert np.array_equal(d.covariate_matrix, covariates)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log=undecodable_log(), terminator=st.sampled_from(["\n", "\r\n", "\r"]),
           byte=st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]),
           position=st.floats(0, 1), block_rows=st.sampled_from([1, 3, 1024]))
    def test_undecodable_byte_fails_at_its_record(self, tmp_path, log, terminator,
                                                  byte, position, block_rows):
        """A parse error in the records before the bad byte wins, as the
        reference raises it on those records alone; otherwise the bad
        byte's record fails, counting records whatever the line ending."""
        records, bad = log
        data = [(record + terminator).encode() for record in records]
        at = round(position * len(records[bad]))
        data[bad] = data[bad][:at] + byte + data[bad][at:]
        path = tmp_path / "logs.csv"
        path.write_bytes(b"".join(data))
        prefix = tmp_path / "prefix.csv"
        prefix.write_bytes(b"".join(data[:bad]))
        want = error_outcome(oracles.reference_ingest, prefix) if bad else None
        if want is None or want[0] != "LogParseError":
            want = ("LogParseError", f"line {bad + 1}: file is not UTF-8 text",
                    bad + 1, None)
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            assert error_outcome(ingest_logs, path) == want

    VALID = ["a,0,1.5,1,2,30,0", "b,1,0.25,2,1,12,0", "", "a,3,2.0,3,1,5,1",
             "c,2,1.0,1,1,1,0", "b,4,1.0,2,0,0,0"]

    @pytest.mark.parametrize("block_rows", [2, 1024])
    @pytest.mark.parametrize("column,value", [
        (0, ""), (0, "  "),
        (1, "one"), (1, ""), (1, "-1"), (1, "1.5"), (1, "1e3"), (1, "0x1f"),
        (2, "abc"), (2, ""), (2, "-0.5"), (2, "nan"), (2, "inf"), (2, "1e400"),
        (3, "0"), (3, "-3"), (4, "-1"), (5, "x"), (6, "-2"), (6, "1,0"),
        # the input rule: ASCII numbers without "_"; no field holds a quote,
        # a line break or \x1c-\x1f once unquoted
        (0, 'a"b'), (0, '"a\nb"'), (0, "a\x1fb"), (2, "1_0.5"), (4, "\xa05"),
        (5, "1_000"), (5, "\u0661"), (6, '"0\x1c"'), (6, '"""0"""'),
    ])
    def test_single_cell_errors_match_reference(self, tmp_path, column, value,
                                                block_rows):
        lines = list(self.VALID)
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
        self.assert_same_error(tmp_path, lines, block_rows)

    @pytest.mark.parametrize("block_rows", [1, 2, 1024])
    @pytest.mark.parametrize("edit", {
        "width-after-bad-value": {1: "b,1,0.25,two,1,12,0", 4: "c,2,1.0,1,1,1"},
        "width": {4: "c,2,1.0,1,1,1,0,9"},
        "empty-id": {4: ",2,1.0,1,1,1,0"},
        "duplicate-day": {6: "c,2,1.0,1,1,1,0"},
        "decreasing-level": {6: "b,9,1.0,1,1,1,0"},
        "earlier-player-wins": {6: "c,2,1.0,1,1,1,0", 7: "b,9,1.0,1,1,1,0"},
        "duplicate-wins-within-player": {6: "b,9,1.0,1,1,1,0", 7: "b,4,1.0,2,0,0,0"},
        "unsorted-decreasing": {6: "c,2,1.0,1,1,1,0", 7: "a,2,1.0,5,1,1,0"},
    }.items(), ids=lambda item: item[0])
    def test_structural_errors_match_reference(self, tmp_path, edit, block_rows):
        lines = list(self.VALID) + ["", ""]
        for at, line in edit[1].items():
            lines[at] = line
        self.assert_same_error(tmp_path, lines, block_rows)

    def assert_same_error(self, tmp_path, lines, block_rows):
        path = write_csv(tmp_path, "".join(line + "\n" for line in lines))
        want = error_outcome(oracles.reference_ingest, path)
        assert want is not None
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            assert error_outcome(ingest_logs, path) == want


class TestInputEdges:
    def test_integer_past_int64_names_line_and_column(self, tmp_path):
        path = write_csv(tmp_path, "a,0,1.0,1,1,1,0\na,99999999999999999999999,1.0,1,1,1,0\n")
        with pytest.raises(LogParseError, match="line 3: column 'day_index'") as info:
            ingest_logs(path)
        assert info.value.line_number == 3

    def test_int64_maximum_is_accepted(self, tmp_path):
        big = 2 ** 63 - 1
        path = write_csv(tmp_path, f"a,0,1.0,1,1,{big},0\na,1,1.0,1,1,1,0\n")
        assert ingest_logs(path).actions.tolist() == [big, 1]

    def test_utf16_file_fails_on_line_one(self, tmp_path):
        path = tmp_path / "logs.csv"
        path.write_text(HEADER + "a,0,1.0,1,1,1,0\n", encoding="utf-16")
        with pytest.raises(LogParseError, match="line 1: .*UTF-8") as info:
            ingest_logs(path)
        assert info.value.line_number == 1

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "logs.csv"
        good = "a,0,1.0,1,1,1,0\n" * 3000
        path.write_bytes((HEADER + good).encode() + b"b\xff,1,1.0,1,1,1,0\n" + good.encode())
        with pytest.raises(LogParseError, match="line 3002: .*UTF-8"):
            ingest_logs(path)

    def test_earlier_bad_value_wins_over_later_bad_byte(self, tmp_path):
        path = tmp_path / "logs.csv"
        body = "a,0,1.0,1,1,1,0\na,x,1.0,1,1,1,0\n"
        path.write_bytes((HEADER + body).encode() + b"b\xff,1,1.0,1,1,1,0\n")
        with pytest.raises(LogParseError, match="line 3: column 'day_index'"):
            ingest_logs(path)

    def test_cr_terminated_bad_byte_names_its_record(self, tmp_path):
        path = tmp_path / "logs.csv"
        good = "a,0,1.0,1,1,1,0\ra,1,1.0,1,1,1,0\ra,2,1.0,1,1,1,0\r"
        path.write_bytes((HEADER.replace("\n", "\r") + good).encode()
                         + b"b\xff,1,1.0,1,1,1,0\r")
        with pytest.raises(LogParseError, match="^line 5: file is not UTF-8 text$") as info:
            ingest_logs(path)
        assert info.value.line_number == 5

    def test_cr_terminated_earlier_bad_value_wins(self, tmp_path):
        path = tmp_path / "logs.csv"
        body = "a,0,1.0,1,1,1,0\ra,x,1.0,1,1,1,0\ra,2,1.0,1,1,1,0\r"
        path.write_bytes((HEADER.replace("\n", "\r") + body).encode()
                         + b"b\xff,1,1.0,1,1,1,0\r")
        with pytest.raises(LogParseError, match="^line 3: column 'day_index' is not an "
                                                "integer: 'x'$") as info:
            ingest_logs(path)
        assert info.value.line_number == 3

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        path = write_csv(tmp_path, "a,0,1.0,1,1,1,0\n" + "b" * 200_000 + ",1,1.0,1,1,1,0\n")
        with pytest.raises(LogParseError, match="line 3") as info:
            ingest_logs(path)
        assert info.value.line_number == 3

    def test_oversized_playtime_field_is_a_parse_error(self, tmp_path):
        """A valid number too long for csv still fails as csv fails."""
        path = write_csv(tmp_path, "a,0,1.0,1,1,1,0\na,1," + "1" * 200_000 + ",1,1,1,0\n")
        with pytest.raises(LogParseError, match=r"^line 3: field larger than field "
                                                r"limit \(131072\)$") as info:
            ingest_logs(path)
        assert info.value.line_number == 3

    def test_long_player_id_is_kept_whole(self, tmp_path):
        pid = "x" * 100
        path = write_csv(tmp_path, f"{pid},0,1.0,1,1,1,0\n{pid},1,1.0,1,1,1,0\n")
        assert ingest_logs(path).ids == (pid,)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block_rows", [2, 1024])
    def test_blank_lines_raise_no_warning(self, tmp_path, block_rows):
        path = write_csv(tmp_path, "a,0,1.0,1,1,1,0\n" + "\n" * 2100
                         + "a,1,1.0,1,1,1,0\n\n\r\n")
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            assert ingest_logs(path).day_index.tolist() == [0, 1]


# Fields numpy's parsers might read otherwise than csv, int() and float(),
# besides EDGE_FIELDS: signs, separators and white space around a number,
# non-ASCII characters (numpy reads U+01FE as 462), an undecodable byte, and
# quoted numbers: padded, holding a comma, a doubled quote, a line break or
# a non-ASCII digit, left open, or run on past the closing quote.
PARSER_TRAPS = ("\x1c5", "5\x1f", "\u01fe", "1\u01fe", "\u20035", "5\xa0", "\uff15",
                "5\udcff", "+5", " 0.25 ", "-0", "\t5", "05", "\x0b5",
                '"5"', '" 5"', '"1,0"', '"5"""', '"5\n"', '"\u0665"', '"5', '"5"x', '5"')
# Player ids: plain, non-ASCII, long, padded, commented, or quoted (padded,
# holding a comma beside non-ASCII text, run on past the closing quote).
ID_VARIANTS = ("{}", "{}", "{}", "j\u00f6{}", "{}" + "x" * 70, " {}", "{} ", "#{}",
               "\u01fe{}", '"{}"', '" {} "', '"j\u00f6,{}"', '"{}"x')
# Faulty ids: undecodable, or holding what no field may: a separator, a
# doubled quote, a bare quote, a quoted line break, or a quote left open.
FAULTY_IDS = ("{}\udcff", "{}\x1c", '"\x1c{}"', '"a""{}"', 'a"{}', '"{}\nx"', '"{}')


@st.composite
def edge_csv(draw):
    """A log file's text: a cohort whose ids may be non-ASCII, longer than
    64 characters, padded or quoted, some perhaps faulty, with edge
    fields spliced into cells, every cell of a record quoted, extra blank or
    white-space lines, rows of 6 or 8 columns, and LF, CRLF or bare CR line
    endings, the last perhaps left off."""
    body, _ = draw(cohort_csv())
    # each id is faulty one time in eight, so a file may hold several
    names = {f"p{i}": draw(st.sampled_from(
        FAULTY_IDS if draw(st.integers(0, 7)) == 0 else ID_VARIANTS)).format(f"p{i}")
        for i in range(8)}
    records = [",".join([names[r.split(",")[0]]] + r.split(",")[1:]) if r else r
               for r in body.splitlines()]
    fields = st.sampled_from(EDGE_FIELDS) | st.sampled_from(PARSER_TRAPS)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(records)))
        change = draw(st.sampled_from(["cell"] * 4 + ["blank", "space", "short", "long",
                                                      "quote"]))
        if change in ("blank", "space"):
            records.insert(at, "" if change == "blank" else draw(st.sampled_from([" ", "\t"])))
        elif records and records[at % len(records)]:
            cells = records[at % len(records)].split(",")
            if change == "cell":
                cells[draw(st.integers(0, len(cells) - 1))] = draw(fields)
            elif change == "short":
                del cells[-1]
            elif change == "quote":
                cells = [f'"{cell}"' for cell in cells]
            else:
                cells.append(draw(fields))
            records[at % len(records)] = ",".join(cells)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "".join(record + ending for record in [HEADER.rstrip("\n")] + records)
    return text.removesuffix(ending) if records and draw(st.booleans()) else text


class TestLoadtxtPass:
    """The np.loadtxt pass gives the table or the error of the record-by-record
    reference: csv, then the row checks, then int() and float()."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=edge_csv(), block_rows=st.sampled_from([1, 2, 3, 1024]))
    def test_matches_record_reference(self, tmp_path, text, block_rows):
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            self.assert_same_outcome(tmp_path, text)

    @pytest.mark.parametrize("value", EDGE_FIELDS + PARSER_TRAPS)
    @pytest.mark.parametrize("column", range(7))
    def test_one_field_matches_record_reference(self, tmp_path, column, value):
        lines = [line.split(",") for line in TestColumnarEquivalence.VALID]
        lines[3][column] = value
        self.assert_same_outcome(
            tmp_path, HEADER + "".join(",".join(cells) + "\n" for cells in lines))

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @pytest.mark.parametrize("record", [
        '"b\nc",1,1.0,1,1,1,0', '"b,\r\nc",1,1.0,1,1,1,0', '"b,1,1.0,1,1,1,0',
        'b",1,1.0,1,1,1,0', '"b""",1,1.0,1,1,1,0', 'b,1,1.0,1,1,1,"0\n"',
        'b,1,1.0,1,1,1,"0\n'])
    def test_quote_across_a_chunk_edge(self, tmp_path, record, block_rows):
        """A quoted field that runs on into the next chunk, past blank lines
        too, or a quote left in a field, fails at its record whichever chunk
        holds its lines."""
        body = f"a,0,1.0,1,1,1,0\n{record}\nb,2,1.0,1,1,1,0\n"
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            self.assert_same_outcome(tmp_path, HEADER + body)
            with pytest.raises(LogParseError, match="^line 3: "):
                ingest_logs(tmp_path / "logs.csv")

    @pytest.mark.parametrize("block_rows", [1, 2, 1024])
    @pytest.mark.parametrize("last", ['a,1,1.0,1,1,1,"0', 'a,1,1.0,1,1,1,"0\n', '"a,1,1.0,1,1,1,0',
                                      '"a",1,1.0,1,1,1,0', 'a,1,1.0,1,1,1,"0"""'])
    def test_quote_left_open_at_the_end_of_the_file(self, tmp_path, last, block_rows):
        """csv closes a quote left open where the file ends; one left open
        before a final line break holds that line break."""
        with mock.patch.object(pipeline, "_BLOCK_ROWS", block_rows):
            self.assert_same_outcome(tmp_path, HEADER + "a,0,1.0,1,1,1,0\n" + last)
        assert (error_outcome(ingest_logs, tmp_path / "logs.csv") is None) == (
            last in ('a,1,1.0,1,1,1,"0', '"a",1,1.0,1,1,1,0'))

    @pytest.mark.parametrize("line", [
        "x" * 700 + ",0,1.0,1,1,1,0",  # a long id
        "a,0,1." + "0" * 700 + ",1,1,1,0",  # a long playtime
        "a," + "0" * 5000 + "7,1.0,1,1,1,0",  # too many digits for int()
        "a,0,1.0,1,1,1," + "0" * 200_000,  # past csv's field limit
        '"' + "y" * 100_000 + "," + "z" * 100_000 + '",0,1.0,1,1,1,0',  # a quoted one
    ])
    def test_long_lines_match_record_reference(self, tmp_path, line):
        self.assert_same_outcome(tmp_path, HEADER + "a,1,1.0,1,1,1,0\n" + line + "\n")

    @pytest.mark.parametrize("value", ["1.5", "1e0", " 0.25 "])
    def test_float_in_int_column_ends_the_pass(self, tmp_path, value):
        # numpy 1.23 to 1.26 reads a float field into an int64 column, cast
        # down, with only a DeprecationWarning.
        loadtxt = np.loadtxt

        def lenient_loadtxt(lines, **kwargs):
            rows = [line.split(",") for line in lines]
            for cells in rows:
                if cells[1] == value:
                    warnings.warn("loadtxt(): Parsing an integer via a float is "
                                  "deprecated.", DeprecationWarning)
                    cells[1] = str(int(float(value)))
            return loadtxt([",".join(cells) for cells in rows], **kwargs)

        path = write_csv(tmp_path, f"a,0,1.0,1,1,1,0\na,{value},1.0,1,1,1,0\n")
        with mock.patch.object(np, "loadtxt", lenient_loadtxt):
            assert error_outcome(ingest_logs, path) == error_outcome(oracles.record_ingest, path)
            with pytest.raises(LogParseError, match="line 3: column 'day_index'"):
                ingest_logs(path)

    @staticmethod
    def assert_same_outcome(tmp_path, text):
        path = tmp_path / "logs.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        want = error_outcome(oracles.record_ingest, path)
        assert error_outcome(ingest_logs, path) == want
        if want is None:
            got, ref = ingest_logs(path), oracles.record_ingest(path)
            assert got.ids == ref.ids
            for name in ("registration", "offsets") + pipeline._COLUMNS:
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))


class TestNumberRule:
    """Numbers are ASCII and hold no ``_``; white space and signs that both
    numpy and int() read still pass."""

    @pytest.mark.parametrize("value", ["1_000", "\u0661", "\xa05", "5\xa0"])
    def test_python_only_syntax_is_refused(self, tmp_path, value):
        path = write_csv(tmp_path, f"a,0,1.0,1,1,1,0\na,1,1.0,1,1,{value},0\n")
        with pytest.raises(LogParseError) as info:
            ingest_logs(path)
        assert str(info.value) == f"line 3: column 'actions' is not an integer: {value!r}"

    @pytest.mark.parametrize("value", [" 5", "+5", "05", "\t5", '" 5"', '"5"'])
    def test_padding_signs_and_quotes_pass(self, tmp_path, value):
        path = write_csv(tmp_path, f"a,0,1.0,1,1,1,0\na,1,1.0,1,1,{value},0\n")
        assert ingest_logs(path).actions.tolist() == [1, 5]
