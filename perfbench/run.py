"""Benchmark of the convsurv CLI product paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each workload generates a 20000-player cohort from ``--seed``,
then drives the CLI as child processes, one command at a time (a closed
loop with one client), in whole rounds until the timed commands have used
``--seconds``. Every output is checked by ``checks.py`` outside the timed
interval. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
See README.md for the workloads, the metrics and measured spreads.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

PLAYERS = 20000
# criterion 7's cohort; the CLI's own default window is 120 days
WINDOW = 60
COMMAND_TIMEOUT_S = 150
# one BLAS thread per process: evaluate-lifetime's two fork workers then
# keep the load at the machine's two cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

EVALUATE_TREES = 60
RSFCR_TREES = 30


class Paths:
    """Files of one run; ``prefix`` keeps the traced copies apart."""

    def __init__(self, run_dir: Path, seed: int, prefix: str = ""):
        self.seed = seed
        self.cohort = run_dir / "cohort"
        self.logs = str(self.cohort / "logs.csv")
        self._dir = run_dir
        self._prefix = prefix

    def out(self, name: str) -> str:
        return str(self._dir / (self._prefix + name))


def _generate(p: Paths, out: Path) -> list:
    return ["generate", "--players", str(PLAYERS), "--window", str(WINDOW),
            "--seed", str(p.seed), "--out", str(out)]


def _evaluate(p: Paths) -> list:
    return ["evaluate", "--data", p.logs, "--models", "all",
            "--targets", "lifetime", "--threads", "2", "--ridge", "2.0",
            "--train-frac", "0.3", "--churn-window", "9",
            "--trees", str(EVALUATE_TREES), "--seed", str(p.seed),
            "--out", p.out("report")]


def _train_rsfcr(p: Paths) -> list:
    return ["train", "--data", p.logs, "--model", "rsf-cr",
            "--target", "playtime", "--threads", "1", "--churn-window", "9",
            "--trees", str(RSFCR_TREES), "--seed", str(p.seed),
            "--out", p.out("model.json")]


def _predict(p: Paths) -> list:
    return ["predict", "--model", p.out("model.json"), "--data", p.logs,
            "--out", p.out("pred.csv")]


# what each command writes, compared byte for byte with its traced copy
OUTPUTS = {"evaluate": ("report",),
           "train": ("model.json", "model.json.summary.json"),
           "predict": ("pred.csv",)}


@dataclass(frozen=True)
class Workload:
    setup: tuple = ()   # argv builders run once after generate
    round: tuple = ()   # argv builders of one timed round


WORKLOADS = {
    "evaluate-lifetime": Workload(round=(_evaluate,)),
    "score-rsfcr-playtime": Workload(setup=(_train_rsfcr,), round=(_predict,)),
}


@dataclass
class Sample:
    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("CONVSURV_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(argv: list, log_path: Path) -> Sample:
    """Run ``convsurv <argv>`` as a child; wall, CPU and peak RSS via wait4.

    wait4's rusage covers the child and the fork workers it reaped, and
    its ru_maxrss is this command's own peak, not the maximum over every
    child this process ever waited for.
    """
    with open(log_path, "a", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "convsurv.cli", *argv],
                                stdout=log, stderr=log, env=_child_env(),
                                cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(argv[0], wall, ru.ru_utime + ru.ru_stime,
                  ru.ru_maxrss / 1024.0, proc.returncode)


class Run:
    def __init__(self, workload: Workload, name: str, seed: int, seconds: int,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.paths = Paths(self.dir, seed)
        self.traced_paths = Paths(self.dir, seed, "traced-")
        self.log = self.dir / "cli.log"
        self.setup: list[Sample] = []
        self.rounds: list[list[Sample]] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.cohort = None
        self.tracer = None
        if trace:
            from spans import Tracer
            self.tracer = Tracer()

    # --- checks ----------------------------------------------------------

    def _reject(self, what: str, message) -> bool:
        print(f"check failed: {what}: {message}", file=sys.stderr)
        self.correct = False
        return False

    def check_output(self, argv: list) -> bool:
        """Check one command's outputs against independent computations."""
        import checks
        cmd = argv[0]
        try:
            if cmd == "evaluate":
                checks.check_evaluate(self.cohort, self.seed,
                                      self.paths.out("report"), EVALUATE_TREES)
            elif cmd == "train":
                checks.check_train(self.cohort, self.seed,
                                   self.paths.out("model.json"), RSFCR_TREES)
            else:
                checks.check_predictions(
                    self.cohort, checks.load_model(self.paths.out("model.json")),
                    checks.read_predictions(self.paths.out("pred.csv")))
        except checks.CheckError as exc:
            return self._reject(cmd, exc)
        return True

    def same_files(self, what: str, a: str, b: str) -> bool:
        a, b = Path(a), Path(b)
        if a.is_dir():
            names = sorted(p.name for p in a.iterdir())
            same = names == sorted(p.name for p in b.iterdir()) and all(
                filecmp.cmp(a / n, b / n, shallow=False) for n in names)
        else:
            same = filecmp.cmp(a, b, shallow=False)
        return same or self._reject(what, f"{a} and {b} differ")

    # --- phases ----------------------------------------------------------

    def _setup_sample(self, sample: Sample) -> None:
        if sample.code != 0:
            raise RuntimeError(f"set-up command {sample.command} exited "
                               f"{sample.code}; see {self.log}")
        self.setup.append(sample)

    def run_setup(self) -> None:
        import checks
        self._setup_sample(run_child(_generate(self.paths, self.paths.cohort),
                                     self.log))
        if self.tracer is not None:
            repeat = self.dir / "cohort-repeat"
            if self.tracer.run_cli(_generate(self.paths, repeat), "setup",
                                   self.log) != 0:
                raise RuntimeError("traced generate failed")
            self.same_files("traced generate", str(self.paths.cohort), str(repeat))
        self.cohort = checks.Cohort(self.paths.logs,
                                    self.paths.cohort / "ground_truth.csv")
        try:
            checks.check_generate(self.cohort, PLAYERS)
        except checks.CheckError as exc:
            self._reject("generate", exc)
        for build in self.workload.setup:
            argv = build(self.paths)
            self._setup_sample(run_child(argv, self.log))
            self.check_output(argv)
            if self.tracer is not None:
                self.run_traced(build, "setup")

    def run_traced(self, build, phase: str) -> bool:
        """Run one command in this process under the tracer, writing its own
        copies of the outputs, which must match the untraced ones."""
        argv = build(self.traced_paths)
        if self.tracer.run_cli(argv, phase, self.log) != 0:
            print(f"traced {argv[0]} failed; see {self.log}", file=sys.stderr)
            return False
        return all(self.same_files(f"traced {argv[0]}", self.paths.out(name),
                                   self.traced_paths.out(name))
                   for name in OUTPUTS[argv[0]])

    def _count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def run_rounds(self) -> None:
        measured = 0.0
        while measured < self.seconds or not self.rounds:
            samples = []
            for build in self.workload.round:
                argv = build(self.paths)
                sample = run_child(argv, self.log)
                samples.append(sample)
                if sample.code != 0:
                    print(f"{argv[0]} exited {sample.code}; see {self.log}",
                          file=sys.stderr)
                self._count(sample.code == 0 and self.check_output(argv))
            self.rounds.append(samples)
            measured += sum(s.wall_s for s in samples)
        if self.tracer is not None:
            for build in self.workload.round:
                self._count(self.run_traced(build, "timed"))

    # --- metrics ---------------------------------------------------------

    def end_to_end(self) -> dict:
        values = {
            "setup_s": sum(s.wall_s for s in self.setup),
            "wall_s": statistics.median(
                sum(s.wall_s for s in r) for r in self.rounds),
            "cpu_s": statistics.median(
                sum(s.cpu_s for s in r) for r in self.rounds),
            "peak_rss_mb": max(s.rss_mb for r in self.rounds for s in r),
        }
        return {name: {"value": v, "unit": "MB" if name.endswith("_mb") else "s"}
                for name, v in values.items()}

    def report_overhead(self, startup: float) -> None:
        """Tracing overhead on stderr: each timed command traced in this
        process against its untraced child, less the child's start-up."""
        for sp in self.tracer.spans:
            if sp.phase == "timed" and sp.name.startswith("cli."):
                untraced = statistics.median(
                    s.wall_s for r in self.rounds for s in r
                    if s.command == sp.name[4:])
                print(f"tracing {sp.name}: {sp.duration:.3f} s traced, "
                      f"{untraced:.3f} s untraced incl. {startup:.3f} s start-up; "
                      f"overhead {sp.duration - (untraced - startup):+.3f} s",
                      file=sys.stderr)

    def execute(self) -> dict:
        self.dir.mkdir(parents=True)
        if self.tracer is None:
            self.run_setup()
            self.run_rounds()
            metrics = self.end_to_end()
        else:
            from spans import layer_metrics
            self.tracer.install()
            try:
                self.run_setup()
                self.run_rounds()
            finally:
                self.tracer.restore()
            # interpreter start-up and imports: the wall of `convsurv --help`
            startup = run_child(["--help"], self.log).wall_s
            metrics = layer_metrics(self.tracer, self.setup, self.rounds, startup)
            self.tracer.dump(WORK / f"spans-{self.dir.name}.json")
            self.report_overhead(startup)
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "convsurv" / "cli.py").is_file():
        print(f"error: {SRC / 'convsurv'} not found; run from a source "
              "checkout of convsurv", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # the traced commands run in this process: same thread settings and
    # the same package as the children
    os.environ.update(THREAD_ENV)
    os.environ.pop("CONVSURV_THREADS", None)
    sys.path.insert(0, str(SRC))
    run = Run(WORKLOADS[args.workload], args.workload, args.seed, args.seconds,
              bool(args.trace))
    try:
        result = run.execute()
    except RuntimeError as exc:
        if run.log.exists():
            sys.stderr.writelines(run.log.read_text().splitlines(True)[-20:])
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
