"""The benchmark's layer spans still fire through the CLI.

``perfbench/spans.py`` traces each layer by patching a library function at
the module attribute its caller looks up (``convsurv.evaluation.fit_rsf``,
``convsurv.cli.build_dataset``, ...). A call that bypasses those names
would silently drop the layer from traced benchmark runs.
"""

import importlib
import sys
from pathlib import Path

from convsurv import cli, evaluation, forest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LAYERS = {"cox.fit_cox", "cox.predict", "forest.fit_rsf", "forest.fit_cif",
          "forest.fit_rsf_cr", "forest.predict_rsf", "forest.predict_cif",
          "forest.predict_rsf_cr", "pipeline.build_dataset",
          "model_io.save_model", "model_io.load_model"}


def test_cli_commands_fire_every_layer_span(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spans = importlib.import_module("spans")
    assert cli.main(["generate", "--players", "1200", "--window", "60",
                     "--seed", "7", "--out", str(tmp_path)]) == 0
    data, model = str(tmp_path / "logs.csv"), str(tmp_path / "m.json")
    commands = {
        "evaluate": ["evaluate", "--data", data, "--models", "all",
                     "--targets", "lifetime", "--trees", "3", "--seed", "1",
                     "--out", str(tmp_path / "ev")],
        "train": ["train", "--data", data, "--model", "rsf-cr", "--target",
                  "lifetime", "--trees", "3", "--seed", "1", "--out", model],
        "predict": ["predict", "--model", model, "--data", data,
                    "--out", str(tmp_path / "pred.csv")],
    }
    fired = {}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for command, argv in commands.items():
            first = len(tracer.spans)
            assert cli.main(argv) == 0, capsys.readouterr().err
            fired[command] = {s.name for s in tracer.spans[first:]}
    finally:
        tracer.restore()
    assert LAYERS <= set().union(*fired.values())
    assert {"pipeline.build_dataset", "forest.fit_rsf_cr",
            "model_io.save_model"} <= fired["train"]
    assert {"pipeline.build_dataset", "model_io.load_model",
            "forest.predict_rsf_cr"} <= fired["predict"]
    assert evaluation.fit_rsf is forest.fit_rsf
    assert cli.build_dataset.__module__ == "convsurv.pipeline"
