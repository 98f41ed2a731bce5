"""CLI behavior: flags, file outputs, determinism and exit codes."""

import csv
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from convsurv import errors, pipeline
from convsurv.cli import _exit_code, main
from convsurv.core import EventStatus


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    rc = main(["generate", "--players", "2500", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    return out


def src_env():
    """The environment with this checkout's ``src/`` first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGenerate:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--players", "200", "--seed", "7",
                     "--out", str(a)]) == 0
        assert main(["generate", "--players", "200", "--seed", "7",
                     "--out", str(b)]) == 0
        assert (a / "logs.csv").read_bytes() == (b / "logs.csv").read_bytes()
        assert (a / "ground_truth.csv").read_bytes() == \
            (b / "ground_truth.csv").read_bytes()

    def test_zero_pu_rate(self, tmp_path):
        out = tmp_path / "zero"
        assert main(["generate", "--players", "150", "--seed", "1",
                     "--pu-rate", "0", "--out", str(out)]) == 0
        rows = read_rows(out / "ground_truth.csv")
        assert all(r["true_converter"] == "0" for r in rows)

    def test_pu_rate_below_the_bracket_keeps_its_end(self, tmp_path):
        # an intercept of -25 already yields more converters than 1e-12
        assert main(["generate", "--players", "50", "--seed", "1",
                     "--pu-rate", "1e-12", "--out", str(tmp_path / "g")]) == 0

    def test_default_pu_rate_is_calibration_target(self, capsys):
        # flag default mirrors the observed multi-day PU share
        from convsurv.cli import build_parser
        args = build_parser().parse_args(
            ["generate", "--players", "1", "--out", "x"])
        assert args.pu_rate == 0.053


class TestTrain:
    def test_writes_model_and_summary(self, data_dir, tmp_path):
        model = tmp_path / "rsf.json"
        rc = main(["train", "--data", str(data_dir / "logs.csv"),
                   "--model", "rsf", "--target", "lifetime",
                   "--trees", "30", "--seed", "5", "--out", str(model)])
        assert rc == 0
        doc = json.loads(model.read_text())
        assert doc["kind"] == "rsf"
        assert doc["train_config"]["trees"] == 30
        assert len(doc["model"]["trees"]) == 30
        summary = json.loads((tmp_path / "rsf.json.summary.json").read_text())
        assert summary["diagnostics"]["n_trees"] == 30

    def test_model_file_records_the_frozen_feature_hash(self, rsf_model):
        """The hash of the six model features and the pre-event cutoff, which
        every model file written so far holds."""
        assert json.loads(rsf_model.read_text())["feature_spec_hash"] == \
            "de9e10b5a823f201"

    def test_train_config_echoes_every_training_flag(self, data_dir, tmp_path):
        """The model file and the summary hold the same parsed flags, set and
        defaulted alike, in this key order."""
        model = tmp_path / "cif.json"
        assert main(["train", "--data", str(data_dir / "logs.csv"), "--model", "cif",
                     "--target", "level", "--trees", "4", "--seed", "9",
                     "--alpha", "0.1", "--max-depth", "6", "--aggregate", "mean",
                     "--ridge", "0.5", "--out", str(model)]) == 0
        want = [("model", "cif"), ("target", "level"), ("seed", 9), ("trees", 4),
                ("train_frac", 0.3), ("churn_window", 9), ("alpha", 0.1), ("mtry", None),
                ("min_node_events", 15), ("max_depth", 6), ("aggregate", "mean"),
                ("ridge", 0.5)]
        summary = json.loads((tmp_path / "cif.json.summary.json").read_text())
        assert list(json.loads(model.read_text())["train_config"].items()) == want
        assert list(summary["config"].items()) == want

    def test_tree_count_flag_respected(self, data_dir, tmp_path):
        model = tmp_path / "cif.json"
        rc = main(["train", "--data", str(data_dir / "logs.csv"),
                   "--model", "cif", "--target", "level",
                   "--trees", "12", "--seed", "5", "--out", str(model)])
        assert rc == 0
        assert len(json.loads(model.read_text())["model"]["trees"]) == 12

    def test_rsf_cr_without_churn_window_names_flag(self, data_dir, tmp_path, capsys):
        rc = main(["train", "--data", str(data_dir / "logs.csv"),
                   "--model", "rsf-cr", "--target", "lifetime",
                   "--churn-window", "0", "--trees", "5", "--seed", "1",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "--churn-window" in capsys.readouterr().err

    def test_cox_on_playtime_axis(self, data_dir, tmp_path):
        model = tmp_path / "cox.json"
        rc = main(["train", "--data", str(data_dir / "logs.csv"),
                   "--model", "cox", "--target", "playtime",
                   "--seed", "5", "--out", str(model)])
        assert rc == 0
        assert json.loads(model.read_text())["axis"] == "playtime"

    def test_cox_on_a_tiny_monotone_cohort_is_silent(self, tmp_path, capsys):
        """Four converters among 49 training subjects: the likelihood is
        monotone, and rejected step candidates underflow every late risk
        set. The fit must still print nothing, even with warnings as errors."""
        assert main(["generate", "--players", "200", "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["train", "--data", str(tmp_path / "logs.csv"), "--model", "cox",
                       "--target", "playtime", "--seed", "1",
                       "--out", str(tmp_path / "cox.json")])
        assert rc == 0
        assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def rsf_model(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "rsf.json"
    rc = main(["train", "--data", str(data_dir / "logs.csv"),
               "--model", "rsf", "--target", "lifetime",
               "--trees", "40", "--min-node-events", "10",
               "--seed", "5", "--out", str(path)])
    assert rc == 0
    return path


class TestPredict:
    def test_output_schema_and_absent_medians(self, data_dir, rsf_model, tmp_path):
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(rsf_model),
                   "--data", str(data_dir / "logs.csv"), "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert set(rows[0]) == {"player_id", "predicted_median",
                                "predicted_converter"}
        for r in rows:
            if r["predicted_median"] == "":
                assert r["predicted_converter"] == "false"
            else:
                assert r["predicted_converter"] == "true"
                assert float(r["predicted_median"]) >= 0

    def test_row_order_invariance(self, data_dir, rsf_model, tmp_path):
        """Shuffling input rows leaves the prediction file unchanged."""
        src = (data_dir / "logs.csv").read_text().splitlines()
        header, body = src[0], src[1:]
        rng = np.random.default_rng(0)
        shuffled = [body[i] for i in rng.permutation(len(body))]
        shuffled_path = tmp_path / "shuffled.csv"
        shuffled_path.write_text("\n".join([header] + shuffled) + "\n")
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(["predict", "--model", str(rsf_model),
                     "--data", str(data_dir / "logs.csv"), "--out", str(out1)]) == 0
        assert main(["predict", "--model", str(rsf_model),
                     "--data", str(shuffled_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_curve_export_is_monotone(self, data_dir, rsf_model, tmp_path):
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(rsf_model),
                     "--data", str(data_dir / "logs.csv"), "--out", str(pred)]) == 0
        pid = read_rows(pred)[0]["player_id"]
        out = tmp_path / "curve.csv"
        rc = main(["predict", "--model", str(rsf_model),
                   "--data", str(data_dir / "logs.csv"),
                   "--curve", pid, "--out", str(out)])
        assert rc == 0
        values = [float(r["value"]) for r in read_rows(out)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_curve_for_a_single_day_player_names_the_newcomer_filter(
            self, data_dir, rsf_model, tmp_path, capsys):
        rows = Counter(r["player_id"] for r in read_rows(data_dir / "logs.csv"))
        pid = next(p for p, n in rows.items() if n == 1)
        rc = main(["predict", "--model", str(rsf_model),
                   "--data", str(data_dir / "logs.csv"),
                   "--curve", pid, "--out", str(tmp_path / "curve.csv")])
        assert rc == 2
        assert (f"player {pid!r} was dropped by the newcomer filter (< 2 active days)"
                in capsys.readouterr().err)

    def test_curve_for_an_absent_player_says_not_found(self, data_dir, rsf_model,
                                                       tmp_path, capsys):
        rc = main(["predict", "--model", str(rsf_model),
                   "--data", str(data_dir / "logs.csv"),
                   "--curve", "nobody", "--out", str(tmp_path / "curve.csv")])
        assert rc == 2
        assert "player 'nobody' not found in input data" in capsys.readouterr().err

    @pytest.mark.parametrize("model_kind,target", [
        ("cox", "lifetime"), ("rsf-cr", "playtime"), ("cif", "level"),
    ])
    def test_other_model_kinds_predict(self, data_dir, tmp_path, model_kind, target):
        model = tmp_path / f"{model_kind}.json"
        rc = main(["train", "--data", str(data_dir / "logs.csv"),
                   "--model", model_kind, "--target", target,
                   "--trees", "15", "--min-node-events", "10",
                   "--seed", "5", "--out", str(model)])
        assert rc == 0
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(model),
                   "--data", str(data_dir / "logs.csv"), "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) > 0
        # the competing-risks model exports a non-decreasing incidence curve
        if model_kind == "rsf-cr":
            curve = tmp_path / "curve.csv"
            rc = main(["predict", "--model", str(model),
                       "--data", str(data_dir / "logs.csv"),
                       "--curve", rows[0]["player_id"], "--out", str(curve)])
            assert rc == 0
            values = [float(r["value"]) for r in read_rows(curve)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_blank_lines_leave_stderr_empty(self, data_dir, rsf_model, tmp_path):
        """Runs of blank lines print no warning. The long run spans two
        ``pipeline._BLOCK_ROWS`` chunks from within the first, so one whole
        ingest chunk of the default size is blank."""
        lines = (data_dir / "logs.csv").read_text().splitlines(keepends=True)
        logs = tmp_path / "logs.csv"
        blank = ["\n"] * (2 * pipeline._BLOCK_ROWS)
        logs.write_text("".join(lines[:500] + blank + lines[500:] + ["\n"]))
        out = subprocess.run(
            [sys.executable, "-m", "convsurv.cli", "predict", "--model", str(rsf_model),
             "--data", str(logs), "--out", str(tmp_path / "pred.csv")],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stderr) == (0, "")

    def test_hash_mismatch_rejected(self, data_dir, rsf_model, tmp_path, capsys):
        doc = json.loads(rsf_model.read_text())
        doc["feature_spec_hash"] = "0000000000000000"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        rc = main(["predict", "--model", str(tampered),
                   "--data", str(data_dir / "logs.csv"),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2


class TestEvaluate:
    def run(self, data_dir, out, threads=None, seed="11"):
        argv = ["evaluate", "--data", str(data_dir / "logs.csv"),
                "--models", "cox,rsf", "--targets", "lifetime,level",
                "--trees", "25", "--min-node-events", "10",
                "--seed", seed, "--out", str(out)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        return main(argv)

    def test_report_grid_and_files(self, data_dir, tmp_path):
        out = tmp_path / "ev"
        assert self.run(data_dir, out) == 0
        doc = json.loads((out / "report.json").read_text())
        results = doc["report"]["results"]
        assert len(results) == 4  # 2 models x 2 targets
        assert {(r["model"], r["axis"]) for r in results} == {
            ("cox", "lifetime"), ("rsf", "lifetime"),
            ("cox", "level"), ("rsf", "level")}
        assert (out / "report.txt").exists()
        scatter = read_rows(out / "scatter_rsf_lifetime.csv")
        loglog = read_rows(out / "scatter_rsf_lifetime_loglog.csv")
        assert len(scatter) == len(loglog)

    def test_seed_reproducibility(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert self.run(data_dir, out1) == 0
        assert self.run(data_dir, out2) == 0
        for name in ("report.json", "report.txt", "scatter_rsf_lifetime.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_required(self, data_dir, tmp_path, capsys):
        rc = main(["evaluate", "--data", str(data_dir / "logs.csv"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_scatter_counts_match_report(self, data_dir, tmp_path):
        out = tmp_path / "ev3"
        assert self.run(data_dir, out) == 0
        doc = json.loads((out / "report.json").read_text())
        for r in doc["report"]["results"]:
            if r["model"] != "rsf" or r["axis"] != "lifetime":
                continue
            caught = (r["n_converted"]
                      - round(r["false_negative_rate"] * r["n_test"]))
            rows = read_rows(out / "scatter_rsf_lifetime.csv")
            assert len(rows) == caught


    def test_failed_rows_exit_with_their_errors_code(self, tmp_path, capsys):
        # a 1% train split holds no converter: every fit is a DegenerateFitError
        assert main(["generate", "--players", "200", "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        rc = main(["evaluate", "--data", str(tmp_path / "logs.csv"), "--trees", "5",
                   "--seed", "1", "--train-frac", "0.01", "--out", str(tmp_path / "ev")])
        assert rc == errors.DegenerateFitError.exit_code == 2
        results = json.loads((tmp_path / "ev" / "report.json").read_text())[
            "report"]["results"]
        assert len(results) == 12 and all(r["error"] for r in results)
        assert "exit_code" not in results[0]
        assert capsys.readouterr().err.count("failed:") == 12


class TestCurves:
    def test_population_all_band_contains_estimate(self, data_dir, tmp_path):
        out = tmp_path / "curves.csv"
        rc = main(["curves", "--data", str(data_dir / "logs.csv"),
                   "--axis", "lifetime", "--population", "all",
                   "--out", str(out)])
        assert rc == 0
        for r in read_rows(out):
            assert float(r["lower"]) - 1e-12 <= float(r["estimate"]) \
                <= float(r["upper"]) + 1e-12

    def test_converters_population_reaches_one(self, data_dir, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["curves", "--data", str(data_dir / "logs.csv"),
                   "--axis", "lifetime", "--population", "converters",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert float(rows[-1]["estimate"]) == 1.0

    @pytest.mark.parametrize("level", ["0.99", "0.999"])
    @pytest.mark.parametrize("axis", ["lifetime", "level", "playtime"])
    def test_converters_band_at_high_levels(self, data_dir, tmp_path, axis, level):
        """The log-transformed survival band is pointwise and need not be
        monotone; its incidence limits are still written, around the estimate."""
        out = tmp_path / "conv.csv"
        assert main(["curves", "--data", str(data_dir / "logs.csv"), "--axis", axis,
                     "--population", "converters", "--level", level,
                     "--out", str(out)]) == 0
        for r in read_rows(out):
            assert float(r["lower"]) <= float(r["estimate"]) <= float(r["upper"])

    @pytest.mark.parametrize("population", ["all", "converters"])
    def test_largest_level_below_one_gives_a_finite_band(self, data_dir, tmp_path,
                                                        population):
        out = tmp_path / "c.csv"
        assert main(["curves", "--data", str(data_dir / "logs.csv"), "--axis", "level",
                     "--population", population, "--level", "0.9999999999999999",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        for r in rows:
            assert float(r["lower"]) <= float(r["estimate"]) <= float(r["upper"])
        assert any(float(r["upper"]) < 1.0 for r in rows)

    @pytest.mark.parametrize("population", ["all", "converters"])
    def test_single_risk_estimate_is_one_minus_kaplan_meier(self, data_dir, tmp_path,
                                                           population):
        """Without churn labels the estimate is the product-limit incidence at
        every knot, with the converters alone or every multi-day player at risk."""
        out = tmp_path / "c.csv"
        assert main(["curves", "--data", str(data_dir / "logs.csv"), "--axis", "lifetime",
                     "--population", population, "--churn-window", "0",
                     "--out", str(out)]) == 0
        data = pipeline.build_dataset(
            pipeline.ingest_logs(data_dir / "logs.csv", drop_newcomers=True),
            "lifetime")
        converted = data.status_codes == EventStatus.CONVERTED
        times = data.times[converted] if population == "converters" else data.times
        events = converted[converted] if population == "converters" else converted
        rows = read_rows(out)
        assert rows
        for r in rows:
            want = 1.0 - oracles.km_survival_at(times.tolist(), events.tolist(),
                                                float(r["time"]))
            assert float(r["estimate"]) == pytest.approx(want, rel=1e-12, abs=0)

    def test_population_all_final_incidence_tracks_pu_rate(self, data_dir, tmp_path):
        """The competing-risks incidence converges to the realized
        converter fraction among multi-day players."""
        out = tmp_path / "all.csv"
        assert main(["curves", "--data", str(data_dir / "logs.csv"),
                     "--axis", "lifetime", "--out", str(out)]) == 0
        final = float(read_rows(out)[-1]["estimate"])
        logs = read_rows(data_dir / "logs.csv")
        by_player = {}
        for r in logs:
            by_player.setdefault(r["player_id"], []).append(int(r["purchases"]))
        multi = {p: v for p, v in by_player.items() if len(v) >= 2}
        rate = np.mean([sum(v) > 0 for v in multi.values()])
        assert abs(final - rate) < 0.02


class TestErrorHandling:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["generate", "--players", "5", "--nope", "1",
                     "--out", "x"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["curves", "--data", str(tmp_path / "absent.csv"),
                   "--axis", "lifetime", "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_json_errors_flag(self, data_dir, tmp_path, capsys):
        rc = main(["--json-errors", "train",
                   "--data", str(data_dir / "logs.csv"),
                   "--model", "rsf-cr", "--target", "lifetime",
                   "--churn-window", "0", "--trees", "2", "--seed", "1",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["exit_code"] == 1
        assert payload["error"] == "ConfigError"

    def test_malformed_threads_env_is_config_error(self, data_dir, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("CONVSURV_THREADS", "abc")
        rc = main(["train", "--data", str(data_dir / "logs.csv"),
                   "--model", "rsf", "--target", "lifetime",
                   "--trees", "2", "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 1
        rc = main(["evaluate", "--data", str(data_dir / "logs.csv"),
                   "--targets", "lifetime", "--trees", "2", "--seed", "1",
                   "--out", str(tmp_path / "ev")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("CONVSURV_THREADS") == 2

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_one_day_players_only_is_empty_input(self, rsf_model, tmp_path, capsys,
                                                 command):
        """The newcomer filter inside ingest leaves no player: exit 2."""
        path = tmp_path / "logs.csv"
        path.write_text(",".join(pipeline.EXPECTED_HEADER) + "\n"
                        + "".join(f"p{i},{i},1.0,1,1,1,{i % 2}\n" for i in range(5)))
        args = {"train": ["--model", "rsf", "--target", "lifetime"],
                "predict": ["--model", str(rsf_model)],
                "evaluate": ["--targets", "lifetime"]}[command]
        rc = main(["--json-errors", command, "--data", str(path), *args,
                   *(["--seed", "1"] if command != "predict" else []),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "EmptyInputError"
        assert "after the newcomer filter" in payload["message"]

    def test_one_day_player_before_a_faulty_player(self, tmp_path, capsys):
        """The newcomer filter inside ingest leaves the table check's error
        as it was: the faulty player is named, not the dropped one."""
        path = tmp_path / "logs.csv"
        path.write_text(",".join(pipeline.EXPECTED_HEADER) + "\n"
                        "new,0,1.0,1,1,1,0\nbob,0,1.0,5,1,1,0\nbob,1,1.0,4,1,1,0\n")
        rc = main(["--json-errors", "evaluate", "--data", str(path),
                   "--targets", "lifetime", "--seed", "1", "--out", str(tmp_path / "ev")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "LogValidationError"
        assert payload["message"] == "player 'bob' has a decreasing level"

    def test_every_error_type_exits_with_its_readme_code(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| Exit | Error types |", 1)[1].split("\n\n", 1)[0]
        documented = [(name, int(code)) for code, names in
                      re.findall(r"^\| (\d) \| (.*) \|$", table, re.MULTILINE)
                      for name in re.findall(r"`(\w+)`", names)]
        types = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.ConvsurvError)}
        assert sorted(name for name, _ in documented) == sorted(types)
        for name, code in documented:
            assert types[name].exit_code == code, name
            assert _exit_code(types[name]("message")) == code, name
        assert _exit_code(FileNotFoundError("missing.csv")) == 2
        assert _exit_code(ValueError("internal")) == 3

    @pytest.mark.parametrize("env,flags,message", [
        ("abc", [], "CONVSURV_THREADS must be an integer, got 'abc'"),
        (None, ["--max-depth", "-2"], "max_depth must be >= 0"),
        (None, ["--churn-window", "-4"], "argument --churn-window: must be >= 0, got '-4'"),
        (None, ["--churn-window", "x"], "argument --churn-window: not an integer: 'x'"),
    ], ids=["threads-env", "max-depth", "churn-window-negative", "churn-window-string"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_training_flags_are_config_errors_before_ingest(
            self, command, env, flags, message, tmp_path, monkeypatch, capsys):
        # the log file does not exist: reading it first would exit 2
        if env is not None:
            monkeypatch.setenv("CONVSURV_THREADS", env)
        argv = {"train": ["train", "--model", "rsf", "--target", "lifetime",
                          "--out", str(tmp_path / "m.json")],
                "evaluate": ["evaluate", "--seed", "1", "--out", str(tmp_path / "ev")]
                }[command]
        rc = main(argv + ["--data", str(tmp_path / "missing.csv"), *flags])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_evaluate_rsf_cr_without_churn_window_names_flag(self, data_dir, tmp_path,
                                                            capsys):
        rc = main(["evaluate", "--data", str(data_dir / "logs.csv"),
                   "--churn-window", "0", "--trees", "2", "--seed", "1",
                   "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert "--churn-window" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()  # rejected before any fitting

    @pytest.mark.parametrize("ridge", ["-1", "nan", "inf", "abc"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_bad_ridge_is_config_error_before_ingest(self, command, ridge, tmp_path,
                                                     capsys):
        # the log file does not exist: reading it first would exit 2
        argv = {"train": ["train", "--model", "cox", "--target", "lifetime",
                          "--out", str(tmp_path / "m.json")],
                "evaluate": ["evaluate", "--models", "cox", "--seed", "1",
                             "--out", str(tmp_path / "ev")]}[command]
        rc = main(argv + ["--data", str(tmp_path / "missing.csv"), "--ridge", ridge])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--ridge" in err and "_ridge" not in err
        assert ("not a number: 'abc'" in err) == (ridge == "abc")
        assert not (tmp_path / "ev").exists() and not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_mtry_above_feature_count_is_config_error_before_ingest(
            self, command, tmp_path, capsys):
        # six model features; the log file does not exist
        argv = {"train": ["train", "--model", "rsf", "--target", "lifetime",
                          "--out", str(tmp_path / "m.json")],
                "evaluate": ["evaluate", "--seed", "1", "--out", str(tmp_path / "ev")]
                }[command]
        rc = main(argv + ["--data", str(tmp_path / "missing.csv"), "--mtry", "7"])
        assert rc == 1
        assert "--mtry 7" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists() and not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["generate", "train", "evaluate"])
    def test_negative_seed_is_config_error_before_ingest(self, command, tmp_path,
                                                         capsys):
        # the log file does not exist: reading it first would exit 2
        argv = {"generate": ["generate", "--players", "5", "--out", str(tmp_path / "g")],
                "train": ["train", "--model", "rsf", "--target", "lifetime",
                          "--data", str(tmp_path / "missing.csv"),
                          "--out", str(tmp_path / "m.json")],
                "evaluate": ["evaluate", "--data", str(tmp_path / "missing.csv"),
                             "--out", str(tmp_path / "ev")]}[command]
        assert main(argv + ["--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("models,message", [
        ("foo", "unknown model kind 'foo'"), (",", "unknown model kind ''"),
        ("cox,gbm", "unknown model kind 'gbm'"),
    ])
    def test_unknown_model_is_config_error_before_ingest(self, models, message,
                                                         tmp_path, capsys):
        rc = main(["evaluate", "--data", str(tmp_path / "missing.csv"),
                   "--models", models, "--seed", "1", "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--models", "cox,cox"], "model kind 'cox' given twice"),
        (["--models", "rsf,cif,rsf"], "model kind 'rsf' given twice"),
        (["--targets", "lifetime,level,lifetime"], "target 'lifetime' given twice"),
    ])
    def test_repeated_model_or_target_is_config_error_before_ingest(
            self, flags, message, tmp_path, capsys):
        # the log file does not exist: reading it first would exit 2
        rc = main(["evaluate", "--data", str(tmp_path / "missing.csv"), *flags,
                   "--seed", "1", "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("frac", ["1.5", "0", "1", "-0.3", "nan", "abc"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_train_frac_outside_unit_interval_is_config_error_before_ingest(
            self, command, frac, tmp_path, capsys):
        argv = {"train": ["train", "--model", "cox", "--target", "lifetime",
                          "--out", str(tmp_path / "m.json")],
                "evaluate": ["evaluate", "--models", "cox", "--seed", "1",
                             "--out", str(tmp_path / "ev")]}[command]
        rc = main(argv + ["--data", str(tmp_path / "missing.csv"), "--train-frac", frac])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--train-frac" in err and "_fraction" not in err
        assert ("not a number: 'abc'" in err) == (frac == "abc")
        assert not (tmp_path / "ev").exists() and not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("level", ["1.5", "0", "1", "-0.2", "nan", "abc"])
    def test_curves_level_outside_unit_interval_is_config_error(self, level, tmp_path,
                                                                capsys):
        rc = main(["curves", "--data", str(tmp_path / "missing.csv"),
                   "--axis", "lifetime", "--level", level,
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--level" in err and "_fraction" not in err
        assert ("not a number: 'abc'" in err) == (level == "abc")

    def test_curves_negative_churn_window_is_config_error_before_ingest(self, tmp_path,
                                                                        capsys):
        # the log file does not exist: reading it first would exit 2
        rc = main(["curves", "--data", str(tmp_path / "missing.csv"), "--axis", "lifetime",
                   "--churn-window", "-4", "--out", str(tmp_path / "c.csv")])
        assert rc == 1
        assert "argument --churn-window: must be >= 0, got '-4'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_rsf_cr_without_churn_window_is_config_error_before_ingest(
            self, command, tmp_path, capsys):
        # the log file does not exist: reading it first would exit 2
        argv = {"train": ["train", "--model", "rsf-cr", "--target", "lifetime",
                          "--out", str(tmp_path / "m.json")],
                "evaluate": ["evaluate", "--models", "cox,rsf-cr", "--seed", "1",
                             "--out", str(tmp_path / "ev")]}[command]
        rc = main(argv + ["--data", str(tmp_path / "missing.csv"),
                          "--churn-window", "0"])
        assert rc == 1
        assert "--churn-window" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class _StillRunning(BaseException):
    """Raised by the alarm so that ``main`` cannot report it as an error."""


def main_within(argv, seconds=30):
    def alarm(signum, frame):
        raise _StillRunning(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(seconds)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


HEADER_CORRUPTIONS = {
    "train-config-not-object": lambda doc: doc.update(train_config=[9]),
    "churn-window-string": lambda doc: doc["train_config"].update(churn_window="9"),
    "churn-window-bool": lambda doc: doc["train_config"].update(churn_window=True),
    "churn-window-zero": lambda doc: doc["train_config"].update(churn_window=0),
    "churn-window-negative": lambda doc: doc["train_config"].update(churn_window=-4),
}
FOREST_CONFIG_CORRUPTIONS = {
    "config-n-trees-zero": {"n_trees": 0},
    "config-alpha-two": {"alpha": 2},
    "config-aggregate-median": {"aggregate": "median"},
    "config-seed-negative": {"seed": -1},
    "config-max-depth-negative": {"max_depth": -2},
}
COX_CORRUPTIONS = {
    "reversed-knots": lambda cox: cox["baseline_knots"].reverse(),
    "short-baseline-values": lambda cox: cox["baseline_values"].pop(),
    "nan-baseline-value": lambda cox: cox["baseline_values"].__setitem__(0, float("nan")),
    "decreasing-baseline": lambda cox: cox["baseline_values"].reverse(),
    "negative-baseline": lambda cox: cox["baseline_values"].__setitem__(0, -1.0),
    "short-beta": lambda cox: cox["beta"].pop(),
}
# values that numpy would coerce into a valid-looking array: numeric
# strings, fractions and booleans
MISTYPED_COX_CORRUPTIONS = {
    "beta-strings": lambda cox: cox.update(beta=list(map(str, cox["beta"]))),
    "baseline-values-strings": lambda cox: cox.update(
        baseline_values=list(map(str, cox["baseline_values"]))),
}


def corrupt_model(doc, corruption):
    if corruption in HEADER_CORRUPTIONS:
        return HEADER_CORRUPTIONS[corruption](doc)
    if corruption in COX_CORRUPTIONS:
        return COX_CORRUPTIONS[corruption](doc["model"])
    if corruption in MISTYPED_COX_CORRUPTIONS:
        return MISTYPED_COX_CORRUPTIONS[corruption](doc["model"])
    if corruption in FOREST_CONFIG_CORRUPTIONS:
        return doc["model"]["config"].update(FOREST_CONFIG_CORRUPTIONS[corruption])
    trees = doc["model"]["trees"]
    tree = next((t for t in trees if t["feature"][0] >= 0), trees[0])
    leaf = next(lf for lf in tree["leaves"] if lf["times"])
    if corruption == "cycle":
        tree["left"][0] = 0
    elif corruption == "zero-trees":
        trees.clear()
    elif corruption == "one-tree-short":
        trees.pop()
    elif corruption == "null-threshold":
        tree["threshold"][0] = None
    elif corruption == "child-out-of-range":
        tree["right"][0] = len(tree["feature"]) + 5
    elif corruption == "bad-leaf-index":
        tree["leaf_index"][tree["feature"].index(-1)] = len(tree["leaves"])
    elif corruption == "bad-feature":
        tree["feature"][0] = len(doc["feature_names"])
    elif corruption == "short-node-array":
        tree["leaf_index"].pop()
    elif corruption == "missing-key":
        del tree["leaves"]
    elif corruption == "leaf-counts-shifted":
        # every leaf array keeps its total length, but one at_risk count
        # moves to the next leaf
        leaves = tree["leaves"]
        i = next(k for k, lf in enumerate(leaves[:-1]) if lf["at_risk"])
        leaves[i + 1]["at_risk"].insert(0, leaves[i]["at_risk"].pop())
    elif corruption == "null-at-risk-grid":
        leaf["at_risk_grid"] = None
    elif corruption == "reversed-grid":
        doc["model"]["grid"].reverse()
    elif corruption == "d-conv-over-at-risk":
        leaf["d_conv"][0] = leaf["at_risk"][0] + 1
    elif corruption == "at-risk-strings":
        leaf["at_risk"] = list(map(str, leaf["at_risk"]))
    elif corruption == "d-conv-plus-half":
        leaf["d_conv"][0] += 0.5
    elif corruption == "feature-plus-0.9":
        tree["feature"][0] += 0.9
    elif corruption == "child-plus-half":
        tree["left"][0] += 0.5
        tree["right"][0] += 0.5
    elif corruption == "times-strings":
        leaf["times"] = list(map(str, leaf["times"]))
    elif corruption == "threshold-strings":
        tree["threshold"] = [t if t is None else str(t) for t in tree["threshold"]]
    elif corruption == "grid-strings":
        doc["model"]["grid"] = list(map(str, doc["model"]["grid"]))
    elif corruption == "at-risk-grid-plus-quarter":
        leaf["at_risk_grid"][0] += 0.25
    elif corruption == "leaf-index-true":
        for t in trees:
            t["leaf_index"][t["leaf_index"].index(0)] = True
    elif corruption.startswith("leaf-time-"):
        grid = doc["model"]["grid"]
        times = next(lf for lf in tree["leaves"] if len(lf["times"]) >= 2)["times"]
        if corruption == "leaf-time-between-grid-points":
            k = grid.index(times[0])
            times[0] = (grid[k] + grid[k + 1]) / 2
        else:
            times[-1] = grid[-1] + 1000


@pytest.fixture(scope="module")
def cox_model(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "cox.json"
    rc = main(["train", "--data", str(data_dir / "logs.csv"),
               "--model", "cox", "--target", "lifetime",
               "--seed", "5", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def cif_model(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "cif.json"
    rc = main(["train", "--data", str(data_dir / "logs.csv"),
               "--model", "cif", "--target", "lifetime",
               "--trees", "5", "--min-node-events", "10",
               "--seed", "5", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def rsfcr_playtime_model(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "rsfcr.json"
    rc = main(["train", "--data", str(data_dir / "logs.csv"),
               "--model", "rsf-cr", "--target", "playtime",
               "--trees", "10", "--min-node-events", "10",
               "--seed", "5", "--out", str(path)])
    assert rc == 0
    return path


# deeper than the JSON decoder recurses; written as text, because
# json.dumps of such a value would itself recurse
DEEP_JSON = "[" * 200000 + "]" * 200000


def assert_predict_rejects(model_path, corruption, data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    if corruption == "not-json":
        bad.write_text(model_path.read_text()[:200])
    elif corruption == "deep-nesting":
        bad.write_text(DEEP_JSON)
    elif corruption == "deep-train-config":
        doc = json.loads(model_path.read_text())
        doc["train_config"] = None
        bad.write_text(json.dumps(doc).replace('"train_config": null',
                                               f'"train_config": {DEEP_JSON}'))
    else:
        doc = json.loads(model_path.read_text())
        corrupt_model(doc, corruption)
        bad.write_text(json.dumps(doc))
    rc = main_within(["predict", "--model", str(bad),
                      "--data", str(data_dir / "logs.csv"),
                      "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"model file {bad}" in err
    return err


class TestModelFileCorruption:
    @pytest.mark.parametrize("corruption", [
        "cycle", "child-out-of-range", "bad-leaf-index", "bad-feature",
        "short-node-array", "missing-key", "not-json", "zero-trees", "one-tree-short",
        "null-threshold", "churn-window-negative", "leaf-counts-shifted",
        "deep-nesting", "deep-train-config",
    ])
    def test_corrupt_model_file_is_data_error(self, corruption, data_dir, rsf_model,
                                              tmp_path, capsys):
        assert_predict_rejects(rsf_model, corruption, data_dir, tmp_path, capsys)

    @pytest.mark.parametrize("corruption", FOREST_CONFIG_CORRUPTIONS)
    def test_invalid_forest_config_is_data_error(self, corruption, data_dir, rsf_model,
                                                 tmp_path, capsys):
        assert_predict_rejects(rsf_model, corruption, data_dir, tmp_path, capsys)

    @pytest.mark.parametrize("corruption", [
        "null-at-risk-grid", "reversed-grid", "d-conv-over-at-risk",
    ])
    def test_corrupt_cif_leaves_are_data_errors(self, corruption, data_dir,
                                                cif_model, tmp_path, capsys):
        assert_predict_rejects(cif_model, corruption, data_dir, tmp_path, capsys)

    @pytest.mark.parametrize("corruption", [
        "leaf-time-between-grid-points", "leaf-time-past-grid",
    ])
    def test_leaf_times_off_the_grid_are_data_errors(self, corruption, data_dir,
                                                     rsfcr_playtime_model,
                                                     tmp_path, capsys):
        assert_predict_rejects(rsfcr_playtime_model, corruption, data_dir,
                               tmp_path, capsys)

    @pytest.mark.parametrize("corruption", [*COX_CORRUPTIONS, "train-config-not-object",
                                            "churn-window-string", "churn-window-bool",
                                            "churn-window-negative"])
    def test_corrupt_cox_file_is_data_error(self, corruption, data_dir, cox_model,
                                            tmp_path, capsys):
        assert_predict_rejects(cox_model, corruption, data_dir, tmp_path, capsys)

    @pytest.mark.parametrize("model, corruption", [
        *(("rsf_model", c) for c in (
            "at-risk-strings", "d-conv-plus-half", "feature-plus-0.9", "child-plus-half",
            "times-strings", "threshold-strings", "grid-strings", "leaf-index-true")),
        ("cif_model", "at-risk-grid-plus-quarter"),
        *(("cox_model", c) for c in MISTYPED_COX_CORRUPTIONS),
    ])
    def test_mistyped_arrays_are_data_errors(self, model, corruption, request, data_dir,
                                             tmp_path, capsys):
        """Each of these once loaded, and a boolean leaf index mispredicted."""
        err = assert_predict_rejects(request.getfixturevalue(model), corruption, data_dir,
                                     tmp_path, capsys)
        assert "is not an array of JSON" in err

    @pytest.mark.parametrize("model, kind", [("cox_model", "cox"), ("cif_model", "cif")])
    def test_negative_churn_window_message_names_the_kind(self, model, kind, request,
                                                          data_dir, tmp_path, capsys):
        err = assert_predict_rejects(request.getfixturevalue(model),
                                     "churn-window-negative", data_dir, tmp_path, capsys)
        assert f"train_config churn_window -4 must be >= 0 for model kind '{kind}'" in err

    @pytest.mark.parametrize("corruption", ["churn-window-zero", "churn-window-negative"])
    def test_rsf_cr_file_without_churn_window_is_data_error(
            self, corruption, data_dir, rsfcr_playtime_model, tmp_path, capsys):
        assert_predict_rejects(rsfcr_playtime_model, corruption, data_dir,
                               tmp_path, capsys)


class TestLogFileEdges:
    HEADER = "player_id,day_index,playtime_hours,level,sessions,actions,purchases\n"

    def test_quoted_export_gives_the_same_files(self, data_dir, tmp_path):
        """Every field of the cohort quoted, with CRLF line ends: train and
        predict write the bytes they write for the plain file."""
        quoted = tmp_path / "quoted.csv"
        with open(data_dir / "logs.csv", newline="") as src, \
                open(quoted, "w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
        assert quoted.read_text().startswith('"player_id","day_index"')
        outputs = {}
        for name, logs in (("plain", data_dir / "logs.csv"), ("quoted", quoted)):
            model, pred = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            assert main(["train", "--data", str(logs), "--model", "rsf-cr",
                         "--target", "playtime", "--trees", "5", "--seed", "2",
                         "--out", str(model)]) == 0
            assert main(["predict", "--model", str(model), "--data", str(logs),
                         "--out", str(pred)]) == 0
            outputs[name] = [path.read_bytes() for path in
                             (model, Path(f"{model}.summary.json"), pred)]
        assert outputs["quoted"] == outputs["plain"]

    @pytest.mark.parametrize("command", ["train", "evaluate", "curves"])
    def test_utf16_log_is_data_error(self, command, tmp_path, capsys):
        logs = tmp_path / "logs.csv"
        logs.write_text(self.HEADER + "a,0,1.0,1,1,1,0\na,1,1.0,1,1,1,0\n",
                        encoding="utf-16")
        argv = {
            "train": ["train", "--model", "rsf", "--target", "lifetime",
                      "--trees", "2", "--seed", "1",
                      "--out", str(tmp_path / "m.json")],
            "evaluate": ["evaluate", "--trees", "2", "--seed", "1",
                         "--out", str(tmp_path / "ev")],
            "curves": ["curves", "--axis", "lifetime", "--out", str(tmp_path / "c.csv")],
        }[command]
        assert main(argv + ["--data", str(logs)]) == 2
        assert "line 1: file is not UTF-8 text" in capsys.readouterr().err

    def test_day_index_past_int64_is_data_error(self, tmp_path, capsys):
        logs = tmp_path / "logs.csv"
        logs.write_text(self.HEADER + "a,0,1.0,1,1,1,0\n"
                        "a,99999999999999999999999,1.0,1,1,1,0\n")
        rc = main(["curves", "--data", str(logs), "--axis", "lifetime",
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "line 3: column 'day_index' exceeds the int64" in capsys.readouterr().err

    @pytest.mark.parametrize("playtimes", [("1e308", "1e308", "1e308"), ("1e200", "3e200", "1")],
                             ids=["sum", "square"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "curves"])
    def test_playtime_overflow_is_data_error(self, command, playtimes, tmp_path, capsys):
        logs = tmp_path / "logs.csv"
        logs.write_text(self.HEADER + "".join(
            f"p1,{day},{hours},1,1,1,0\n" for day, hours in enumerate(playtimes)))
        argv = {
            "train": ["train", "--model", "rsf", "--target", "playtime",
                      "--trees", "2", "--seed", "1",
                      "--out", str(tmp_path / "m.json")],
            "evaluate": ["evaluate", "--trees", "2", "--seed", "1",
                         "--out", str(tmp_path / "ev")],
            "curves": ["curves", "--axis", "playtime", "--out", str(tmp_path / "c.csv")],
        }[command]
        assert main(argv + ["--data", str(logs)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "player 'p1'" in err[0]

    def test_playtime_sum_overflowing_at_the_event_row_is_data_error(self, tmp_path,
                                                                     capsys):
        # the window sum before the purchase is finite; adding the event
        # row's hours overflows
        logs = tmp_path / "logs.csv"
        logs.write_text(self.HEADER + "p1,0,1e308,1,1,1,0\np1,1,1e308,1,1,1,1\n")
        rc = main(["curves", "--data", str(logs), "--axis", "playtime",
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "player 'p1'" in err[0]


def test_cli_import_leaves_out_scipy_stats_and_optimize(data_dir, tmp_path):
    """Start-up cost: no module of the package imports scipy (the bands
    take their normal quantile from the standard library, as
    test_every_command_runs_without_scipy checks). A ``generate`` run
    loads none of these modules; a forest ``predict``, which bisects its grid, loads
    no scipy.sparse either, nor the fork pool's multiprocessing and
    concurrent.futures, which only a parallel fit imports; a cif fit
    computes its p-values without scipy.special, serially and in fork
    workers, which fail to import it once it is blocked in the parent."""
    model = tmp_path / "rsf-cr.json"
    assert main(["train", "--data", str(data_dir / "logs.csv"), "--model", "rsf-cr",
                 "--target", "playtime", "--train-frac", "0.9", "--trees", "3",
                 "--seed", "5", "--out", str(model)]) == 0
    script = ("import sys, convsurv.cli as cli\n"
              "heavy = lambda: [m for m in ('scipy.stats', 'scipy.optimize', 'scipy.special',"
              " 'scipy.sparse', 'multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
              "model, logs, out = sys.argv[1:]\n"
              "loaded = heavy()\n"
              "code = cli.main(['generate', '--players', '50', '--seed', '3',"
              " '--out', out + '/g'])\n"
              "print('generate', code, loaded, heavy())\n"
              "code = cli.main(['predict', '--model', model, '--data', logs,"
              " '--out', out + '/pred.csv'])\n"
              "print('predict', code, heavy())\n"
              "code = cli.main(['train', '--data', logs, '--model', 'cif', '--target',"
              " 'lifetime', '--trees', '3', '--threads', '1', '--seed', '5',"
              " '--out', out + '/cif.json'])\n"
              "print('train', code, heavy())\n"
              "sys.modules['scipy.special'] = None\n"
              "code = cli.main(['evaluate', '--data', logs, '--models', 'cif', '--targets',"
              " 'lifetime', '--trees', '8', '--threads', '2', '--seed', '5',"
              " '--out', out + '/ev'])\n"
              "print('evaluate', code)\n")
    out = subprocess.run(
        [sys.executable, "-c", script, str(model), str(data_dir / "logs.csv"), str(tmp_path)],
        env=src_env(), capture_output=True, text=True, timeout=120, check=True)
    tagged = [line for line in out.stdout.splitlines()
              if line.split(" ", 1)[0] in ("generate", "predict", "train", "evaluate")]
    assert tagged == ["generate 0 [] []", "predict 0 []", "train 0 []", "evaluate 0"]


def test_every_command_runs_without_scipy(data_dir, tmp_path):
    """scipy is a test dependency only: with it blocked before the CLI is
    imported, every command exits 0, fork workers and bands included."""
    logs, out = str(data_dir / "logs.csv"), str(tmp_path)
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "import convsurv.cli as cli\n"
              "logs, out = sys.argv[1:]\n"
              "runs = [\n"
              " ['generate', '--players', '300', '--seed', '3', '--out', out + '/g'],\n"
              " ['train', '--data', logs, '--model', 'rsf-cr', '--target', 'playtime',\n"
              "  '--trees', '3', '--seed', '5', '--out', out + '/m.json'],\n"
              " ['predict', '--model', out + '/m.json', '--data', logs,\n"
              "  '--out', out + '/pred.csv'],\n"
              " ['evaluate', '--data', logs, '--targets', 'lifetime', '--trees', '4',\n"
              "  '--threads', '2', '--seed', '5', '--out', out + '/ev'],\n"
              " ['curves', '--data', logs, '--axis', 'lifetime', '--out', out + '/all.csv'],\n"
              " ['curves', '--data', logs, '--axis', 'lifetime', '--population',\n"
              "  'converters', '--out', out + '/conv.csv']]\n"
              "for argv in runs:\n"
              "    print('exit', argv[0], cli.main(argv))\n")
    done = subprocess.run([sys.executable, "-c", script, logs, out], env=src_env(),
                          capture_output=True, text=True, timeout=300)
    exits = [line for line in done.stdout.splitlines() if line.startswith("exit ")]
    assert exits == [f"exit {c} 0" for c in
                     ("generate", "train", "predict", "evaluate", "curves", "curves")], \
        done.stderr
