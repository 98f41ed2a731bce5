"""Self-test of the output checks: each must reject a corrupted output.

    python3 perfbench/selftest.py

Builds a small cohort and real CLI outputs (evaluate, rsf-cr train and
predict), requires every check to accept them, then corrupts one
thing at a time (a median changed, a row dropped, an RMSLE perturbed, a
count or flag altered) and requires the check to reject it. Prints one
line per case and exits non-zero if any case goes the wrong way.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from pathlib import Path

import checks
import run

SEED = 5


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


class SelfTest:
    def __init__(self, work: Path):
        self.work = work
        self.bad = 0

    def build(self) -> None:
        """The benchmark's own commands and settings, on seed ``SEED``."""
        paths = run.Paths(self.work, SEED)
        for argv in (run._generate(paths, paths.cohort), run._evaluate(paths),
                     run._train_rsfcr(paths), run._predict(paths)):
            sample = run.run_child(argv, self.work / "cli.log")
            if sample.code != 0:
                raise SystemExit(f"{argv[0]} exited {sample.code}")
        self.cohort = checks.Cohort(paths.logs, paths.cohort / "ground_truth.csv")

    def case(self, label: str, fn, expect_reject: bool) -> None:
        try:
            fn()
            rejected, message = False, "accepted"
        except checks.CheckError as exc:
            rejected, message = True, str(exc)
        ok = rejected == expect_reject
        self.bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {message}")

    # --- evaluate ----------------------------------------------------------

    def evaluate_case(self, label: str, corrupt) -> None:
        copy = self.work / "report-corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.work / "report", copy)
        corrupt(copy)
        self.case(label, lambda: checks.check_evaluate(
            self.cohort, SEED, copy, run.EVALUATE_TREES), True)

    def evaluate_cases(self) -> None:
        self.case("evaluate outputs", lambda: checks.check_evaluate(
            self.cohort, SEED, self.work / "report", run.EVALUATE_TREES), False)

        def edit_report(fn):
            def corrupt(d):
                doc = json.loads((d / "report.json").read_text())
                fn({r["model"]: r for r in doc["report"]["results"]})
                (d / "report.json").write_text(json.dumps(doc))
            return corrupt

        def edit_scatter(model, fn, loglog=True):
            def corrupt(d):
                for suffix in ("", "_loglog") if loglog else ("",):
                    path = d / f"scatter_{model}_lifetime{suffix}.csv"
                    rows = checks.read_csv(path)
                    fn(rows)
                    _write_csv(path, rows)
            return corrupt

        def perturb(r):
            r["rsf"]["rmsle"] *= 1.0 + 1e-9

        def shift_median(rows):
            rows[1][1] = repr(float(rows[1][1]) + 0.5)

        self.evaluate_case("rsf RMSLE perturbed", edit_report(perturb))
        self.evaluate_case("cif scatter row dropped",
                           edit_scatter("cif", lambda rows: rows.pop(1)))
        self.evaluate_case("cox scatter median changed, log-log kept",
                           edit_scatter("cox", shift_median, loglog=False))
        self.evaluate_case("rsf-cr log-log row changed", _shift_loglog)
        self.evaluate_case(
            "n_test off by one",
            edit_report(lambda r: r["cox"].__setitem__("n_test", r["cox"]["n_test"] + 1)))
        scatter = checks.read_scatter(self.work / "report" / "scatter_rsf_lifetime.csv")
        grid = self.cohort.grid(SEED, "lifetime", False)
        self.case("rsf median off the grid", lambda: checks.check_on_grid(
            "rsf", [p for _, p in scatter] + [grid[0] + 0.5], grid), True)
        self.case("rsf observed time of no test converter",
                  lambda: checks.check_observed(
                      self.cohort, SEED, "rsf", scatter + [(999.0, grid[0])]), True)
        results = {r["model"]: r for r in json.loads(
            (self.work / "report" / "report.json").read_text())["report"]["results"]}
        for label, key, model, value in (
                ("FN rate at 5%", "false_negative_rate", "rsf", 0.05),
                ("FP rate at 10%", "false_positive_rate", "cif", 0.10)):
            bad = {m: dict(r) for m, r in results.items()}
            bad[model][key] = value
            self.case(label, lambda bad=bad: checks.check_properties(bad), True)

    # --- train and predict ---------------------------------------------------

    def predict_cases(self) -> None:
        model = self.work / "model.json"
        doc = checks.load_model(model)
        rows = checks.read_predictions(self.work / "pred.csv")
        self.case("train outputs", lambda: checks.check_train(
            self.cohort, SEED, model, run.RSFCR_TREES), False)
        self.case("predictions", lambda: checks.check_predictions(
            self.cohort, doc, rows), False)

        summary = Path(f"{model}.summary.json")
        original = summary.read_text()
        doc_summary = json.loads(original)
        doc_summary["n_train"] += 1
        summary.write_text(json.dumps(doc_summary))
        self.case("train summary n_train off by one",
                  lambda: checks.check_train(self.cohort, SEED, model,
                                             run.RSFCR_TREES),
                  True)
        summary.write_text(original)

        grid = doc["model"]["grid"]

        def with_rows(label, edit):
            bad = [list(r) for r in rows]
            edit(bad)
            self.case(label,
                      lambda: checks.check_predictions(self.cohort, doc, bad), True)

        def other_grid_value(bad):
            # the first flagged player is always in the re-scored sample
            row = next(r for r in bad if r[1])
            k = grid.index(float(row[1]))
            row[1] = repr(grid[k + 1] if k + 1 < len(grid) else grid[k - 1])

        def off_grid(bad):
            row = next(r for r in bad if r[1])
            row[1] = repr(float(row[1]) + 1e-3)

        def flag(bad):
            row = next(r for r in bad if r[1])
            row[2] = "false"

        with_rows("median moved to another grid knot", other_grid_value)
        with_rows("median moved off the grid", off_grid)
        with_rows("row dropped", lambda bad: bad.pop(len(bad) // 2))
        with_rows("converter flag without median", flag)

    def generate_case(self) -> None:
        truth = self.work / "truth-corrupt.csv"
        rows = checks.read_csv(self.work / "cohort" / "ground_truth.csv")
        row = next(r for r in rows[1:] if r[1] == "1")
        row[1] = "0"
        _write_csv(truth, rows)
        self.case("ground truth converter flag flipped", lambda: checks.Cohort(
            self.work / "cohort" / "logs.csv", truth), True)

    def run(self) -> int:
        self.build()
        self.generate_case()
        self.evaluate_cases()
        self.predict_cases()
        print(f"{self.bad} case(s) went the wrong way")
        return 1 if self.bad else 0


def _shift_loglog(d: Path) -> None:
    path = d / "scatter_rsf-cr_lifetime_loglog.csv"
    rows = checks.read_csv(path)
    rows[1][1] = repr(float(rows[1][1]) + 1e-6)
    _write_csv(path, rows)


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return SelfTest(work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
