"""In-process spans around the public functions of each convsurv layer,
and the per-layer metrics derived from them.

A ``Tracer`` replaces each traced function at the name its caller looks it
up by (``convsurv.cli.ingest_logs``, ``convsurv.evaluation.fit_rsf``, ...)
with a wrapper that records a span: name, start, end, parent, plus a few
counts taken from the arguments or the result. Spans stay in memory until
``dump``. The package itself is not modified; ``restore`` puts the
original functions back.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    phase: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _forest_counts(model) -> dict:
    leaves = [len(t.leaves) for t in model.trees]
    return {"trees": len(leaves), "leaves": sum(leaves),
            "grid": int(model.grid.size)}


def _ingest_counts(args, result) -> dict:
    return {"rows": sum(len(log.rows) for log in result)}


def _fit_counts(args, result) -> dict:
    return _forest_counts(result)


def _predict_counts(args, result) -> dict:
    return {"subjects": int(result.shape[0]), **_forest_counts(args[0])}


def _save_counts(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _forest_predict_name(args) -> str:
    return "forest.predict_" + args[0].kind.value.replace("-", "_")


_FITS = (("fit_rsf", "forest.fit_rsf"),
         ("fit_conditional_ensemble", "forest.fit_cif"),
         ("fit_rsf_competing", "forest.fit_rsf_cr"))
# (module, attribute the caller looks up, span name or a function of the
# call's arguments giving it, function of (arguments, result) giving counts)
LAYERS = (
    ("convsurv.cli", "ingest_logs", "pipeline.ingest_logs", _ingest_counts),
    ("convsurv.cli", "build_dataset", "pipeline.build_dataset", None),
    ("convsurv.cli", "stratified_split", "evaluation.stratified_split", None),
    ("convsurv.cli", "evaluate_models", "evaluation.evaluate_models", None),
    ("convsurv.cli", "fit_cox", "cox.fit_cox", None),
    ("convsurv.evaluation", "fit_cox", "cox.fit_cox", None),
    ("convsurv.cli", "cox_median_batch", "cox.predict", None),
    ("convsurv.evaluation", "cox_median_batch", "cox.predict", None),
    *((mod, attr, name, _fit_counts) for mod in ("convsurv.cli", "convsurv.evaluation")
      for attr, name in _FITS),
    ("convsurv.cli", "forest_median_batch", _forest_predict_name, _predict_counts),
    ("convsurv.evaluation", "forest_median_batch", _forest_predict_name,
     _predict_counts),
    ("convsurv.model_io", "save_model", "model_io.save_model", _save_counts),
    ("convsurv.model_io", "load_model", "model_io.load_model", None),
    ("convsurv.cli", "generate_synthetic", "generator.generate_synthetic", None),
    ("convsurv.cli", "write_logs_csv", "generator.write_logs_csv", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._open: list[int] = []
        self._saved: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(name, time.perf_counter(),
                  parent=self._open[-1] if self._open else -1, phase=self.phase)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._open.pop()
            sp.end = time.perf_counter()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            with self.span(label) as sp:
                cpu0 = _children_cpu()
                result = fn(*args, **kwargs)
                # CPU of the fork workers the call reaped
                sp.counts["children_cpu_s"] = _children_cpu() - cpu0
                if counts is not None:
                    sp.counts.update(counts(args, result))
            return result
        return traced

    def install(self) -> None:
        import importlib
        for mod_name, attr, name, counts in LAYERS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counts))

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def run_cli(self, argv: list, phase: str, log_path) -> int:
        """Run one CLI command in this process inside a ``cli.<command>`` span.

        ``phase`` ("setup" or "timed") tags every span the command records.
        """
        from convsurv import cli
        self.phase = phase
        buf = io.StringIO()
        # the benchmark's own objects (the parsed cohort) would otherwise
        # make every garbage collection inside the command slower than in
        # a fresh process
        gc.collect()
        gc.freeze()
        try:
            with self.span("cli." + argv[0]), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        finally:
            gc.unfreeze()
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        return code

    def self_time(self, index: int) -> float:
        sp = self.spans[index]
        return sp.duration - sum(c.duration for c in self.spans if c.parent == index)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


# --- per-layer metrics -------------------------------------------------------

_FOREST_FITS = ("forest.fit_rsf", "forest.fit_cif", "forest.fit_rsf_cr")
_FOREST_PREDICTS = ("forest.predict_rsf", "forest.predict_cif",
                    "forest.predict_rsf_cr")
_MB = 1024.0 * 1024.0


def layer_metrics(tracer: Tracer, setup: list, rounds: list,
                  startup_s: float) -> dict:
    """Per-layer metrics of one traced run.

    A layer is measured on the timed commands where they reach it, else on
    the set-up commands (the generator everywhere; fitting and saving on
    score-rsfcr-playtime). Layers a workload never reaches read 0. The
    ``cli.*`` walls and peaks come from the untraced child processes
    (``setup`` and ``rounds`` hold their samples). ``cli.self_s`` is the
    time of the timed commands outside every layer span: their traced self
    time (arguments, CSV and report writes) plus ``startup_s``, a child's
    interpreter start-up and imports, once per command.
    """
    spans = tracer.spans

    def chosen(names) -> list:
        timed = [s for s in spans if s.name in names and s.phase == "timed"]
        return timed or [s for s in spans if s.name in names and s.phase == "setup"]

    def total(names, key=None) -> float:
        picked = chosen(names)
        return float(sum(s.counts[key] if key else s.duration for s in picked))

    def rate(names, key) -> float:
        busy = total(names)
        return total(names, key) / busy if busy > 0 else 0.0

    forests = chosen(_FOREST_FITS + _FOREST_PREDICTS)
    trees = sum(s.counts["trees"] for s in forests)
    timed_samples = [s for r in rounds for s in r]

    def samples(command: str) -> list:
        return ([s for s in timed_samples if s.command == command]
                or [s for s in setup if s.command == command])

    def wall(command: str) -> float:
        got = samples(command)
        return statistics.median(s.wall_s for s in got) if got else 0.0

    def rss(command: str) -> float:
        return max((s.rss_mb for s in samples(command)), default=0.0)

    cli_self = sum(tracer.self_time(i) + startup_s for i, sp in enumerate(spans)
                   if sp.phase == "timed" and sp.name.startswith("cli."))

    metrics = {
        "pipeline.ingest_logs_s": total(["pipeline.ingest_logs"]),
        "pipeline.ingest_rows_per_s": rate(["pipeline.ingest_logs"], "rows"),
        "pipeline.build_dataset_s": total(["pipeline.build_dataset"]),
        "evaluation.stratified_split_s": total(["evaluation.stratified_split"]),
        "evaluation.evaluate_models_self_s": sum(
            tracer.self_time(spans.index(s))
            for s in chosen(["evaluation.evaluate_models"])),
        "cox.fit_cox_s": total(["cox.fit_cox"]),
        "cox.predict_s": total(["cox.predict"]),
        "forest.fit_rsf_s": total(["forest.fit_rsf"]),
        "forest.fit_rsf_cr_s": total(["forest.fit_rsf_cr"]),
        "forest.fit_cif_s": total(["forest.fit_cif"]),
        "forest.fit_worker_cpu_s": total(_FOREST_FITS, "children_cpu_s"),
        "forest.trees_per_s": rate(_FOREST_FITS, "trees"),
        "forest.predict_rsf_s": total(["forest.predict_rsf"]),
        "forest.predict_rsf_cr_s": total(["forest.predict_rsf_cr"]),
        "forest.predict_cif_s": total(["forest.predict_cif"]),
        "forest.predict_subjects_per_s": rate(_FOREST_PREDICTS, "subjects"),
        "forest.grid_size": (statistics.mean(s.counts["grid"] for s in forests)
                             if forests else 0.0),
        "forest.leaves_per_tree": (sum(s.counts["leaves"] for s in forests) / trees
                                   if trees else 0.0),
        "model_io.save_model_s": total(["model_io.save_model"]),
        "model_io.model_file_mb": total(["model_io.save_model"], "bytes") / _MB,
        "model_io.load_model_s": total(["model_io.load_model"]),
        "generator.generate_synthetic_s": total(["generator.generate_synthetic"]),
        "generator.write_logs_csv_s": total(["generator.write_logs_csv"]),
        "cli.generate_s": wall("generate"),
        "cli.train_s": wall("train"),
        "cli.predict_s": wall("predict"),
        "cli.evaluate_s": wall("evaluate"),
        "cli.train_rss_mb": rss("train"),
        "cli.predict_rss_mb": rss("predict"),
        "cli.evaluate_rss_mb": rss("evaluate"),
        "cli.self_s": cli_self,
    }
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "count"
