"""Start-up: ``import cvrmot`` is lazy, and a subcommand loads only what it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvrmot

# Every name ``cvrmot`` exports, by the module that defines it.
EAGER_EXPORTS = {
    "assignment": "Assignment CostMatrix FORBIDDEN solve_lap",
    "datamodel": "ATTRIBUTE_CATEGORIES AttributeSet BBox DEFAULT_VOCABULARY "
    "Detection LanguageDescription Scene Track iou validate_attributes validate_scene",
    "fusion_losses": "FusionWeights LossInputs ScoreRecord fuse_features fuse_scores "
    "grad_loss_cmot loss_cmot loss_referring loss_total",
    "ingest": "ParseError PredictionSet build_report parse_descriptions parse_predictions "
    "parse_scene parse_scores read_report render_description write_descriptions "
    "write_predictions write_report write_scene write_scores",
    "metrics": "AggregateResult DescriptionResult EvalConfig FrameMatch IdMeasures MetricCounts "
    "aggregate count_events cvidf1 cvidf1_exact cvma cvma_exact evaluate_description "
    "id_measures match_frame restrict_gt",
    "predictor": "MissingScoreError PredictorConfig TrackState filter_tracks step",
    "synth": "ErrorSpec FrameErrors InfeasibleSpecError Ledger generate_scene ledger_to_dict "
    "perturb score_tracks",
}
EXPORTED = [(module, name) for module, names in EAGER_EXPORTS.items() for name in names.split()]


@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_every_export_resolves_to_its_defining_object(module, name):
    assert name in cvrmot.__all__
    assert getattr(cvrmot, name) is getattr(importlib.import_module(f"cvrmot.{module}"), name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from cvrmot import *", namespace)
    for module, name in EXPORTED:
        assert namespace[name] is getattr(importlib.import_module(f"cvrmot.{module}"), name)


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        cvrmot.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from cvrmot import no_such_name", {})


SCRIPT = """
import sys

before = set(sys.modules)  # what the interpreter and site load is not counted
watched = {"cvrmot.metrics", "cvrmot.assignment", "fractions", "json", "concurrent.futures"}
mode, work = sys.argv[1:]
if mode == "bare":
    import cvrmot
    loaded = sorted(m for m in sys.modules if m.startswith("cvrmot."))
    print("@", loaded, "dataclasses" in sys.modules)
    sys.exit()
from cvrmot import cli

steps = {
    "synth": [["synth", "--views", "2", "--ids", "2", "--frames", "4", "--errors",
               work + "/errors.json", "--out", work]],
    "score": [
        ["filter", "--tracks", work + "/tracks/d00", "--out", work + "/filtered/d00"],
        ["evaluate", "--manifest", work + "/manifest.json", "--gt-dir", work + "/gt",
         "--descriptions", work + "/descriptions.json", "--predictions-root", work + "/filtered"],
    ],
}
for argv in steps[mode]:
    assert cli.main(argv) == 0, argv
    added = sorted(watched.intersection(sys.modules) - before)
    print("@", argv[0], "dataclasses" in sys.modules, "cvrmot.synth" in sys.modules, *added)
"""


def _run(mode: str, work: Path) -> list[str]:
    """The lines ``SCRIPT`` marks with ``@``, run in a new interpreter."""
    src = str(Path(cvrmot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, str(work)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return [line[2:] for line in done.stdout.splitlines() if line.startswith("@ ")]


def test_subcommands_load_neither_dataclasses_nor_unused_modules(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    (work / "errors.json").write_text(json.dumps({"miss_count": 1, "fp_count": 1}), "utf-8")
    assert _run("bare", work) == ["[] False"]
    [synthesized] = _run("synth", work)
    assert synthesized == "synth False True fractions json"  # no metrics or assignment
    filtered, evaluated = _run("score", work)
    assert filtered == "filter False False"  # no metrics, assignment, fractions or json
    assert evaluated.startswith("evaluate False False cvrmot.assignment cvrmot.metrics")


def test_evaluate_calls_the_evaluate_description_set_on_cli(tmp_path, monkeypatch):
    """A wrapper set on ``cvrmot.cli.evaluate_description`` sees every description scored."""
    from cvrmot import cli

    work = tmp_path / "work"
    synth = ["synth", "--views", "2", "--ids", "2", "--frames", "4", "--descriptions", "2"]
    assert cli.main([*synth, "--out", str(work)]) == 0
    original, calls = cli.evaluate_description, []

    def wrapper(scene, desc, tracks, config):
        calls.append(desc.id)
        return original(scene, desc, tracks, config)

    monkeypatch.setattr(cli, "evaluate_description", wrapper)
    argv = ["evaluate", "--manifest", str(work / "manifest.json"), "--gt-dir", str(work / "gt"),
            "--descriptions", str(work / "descriptions.json"),
            "--predictions-root", str(work / "tracks")]
    assert cli.main(argv) == 0
    assert calls == ["d00", "d01"]
