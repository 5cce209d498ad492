import gc
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cvrmot
from cvrmot.cli import RunConfig, build_parser, main
from cvrmot.fusion_losses import FusionWeights
from cvrmot.ingest import read_report, write_descriptions, write_scene
from cvrmot.metrics import EvalConfig
from cvrmot.predictor import PredictorConfig
from cvrmot.synth import generate_scene

from helpers import desc_for, lane_scene


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def workspace(tmp_path):
    rc = run(
        [
            "synth",
            "--views", 3,
            "--ids", 4,
            "--frames", 10,
            "--descriptions", 2,
            "--seed", 5,
            "--out", tmp_path / "work",
        ]
    )
    assert rc == 0
    return tmp_path / "work"


def test_synth_layout(workspace):
    assert (workspace / "manifest.json").exists()
    assert (workspace / "gt" / "view_02.csv").exists()
    descs = json.loads((workspace / "descriptions.json").read_text())
    assert [d["id"] for d in descs] == ["d00", "d01"]
    assert sorted(descs[0]["referred_identities"]) == [1, 2, 3, 4]
    assert (workspace / "tracks" / "d00" / "view_00.csv").exists()


def test_filter_then_evaluate_pipeline(workspace, tmp_path, capsys):
    for desc_id in ("d00", "d01"):
        rc = run(
            [
                "filter",
                "--tracks", workspace / "tracks" / desc_id,
                "--out", tmp_path / "filtered" / desc_id,
            ]
        )
        assert rc == 0
    rc = run(
        [
            "evaluate",
            "--manifest", workspace / "manifest.json",
            "--gt-dir", workspace / "gt",
            "--descriptions", workspace / "descriptions.json",
            "--predictions-root", tmp_path / "filtered",
            "--out", tmp_path / "report.json",
        ]
    )
    assert rc == 0
    table = capsys.readouterr().out
    assert "100.00" in table
    report = read_report(tmp_path / "report.json")
    assert report["aggregate"]["cvridf1"] == 1.0
    assert report["aggregate"]["cvrma"] == 1.0
    assert report["config"]["beta"] == 0.1


def test_synth_errors_then_evaluate_reproduces_ledger(tmp_path, capsys):
    spec_path = tmp_path / "errors.json"
    spec_path.write_text(
        json.dumps(
            {
                "miss_count": 2,
                "fp_count": 1,
                "temporal_switch_count": 0,
                "crossview_mismatch_count": 2,
            }
        )
    )
    rc = run(
        [
            "synth",
            "--views", 2,
            "--ids", 4,
            "--frames", 8,
            "--seed", 11,
            "--errors", spec_path,
            "--out", tmp_path / "work",
        ]
    )
    assert rc == 0
    rc = run(
        [
            "evaluate",
            "--manifest", tmp_path / "work" / "manifest.json",
            "--gt-dir", tmp_path / "work" / "gt",
            "--descriptions", tmp_path / "work" / "descriptions.json",
            "--predictions-root", tmp_path / "work" / "predictions",
            "--out", tmp_path / "report.json",
        ]
    )
    assert rc == 0
    report = read_report(tmp_path / "report.json")
    ledger = json.loads((tmp_path / "work" / "ledger.json").read_text())
    entry = [d for d in report["descriptions"] if d["id"] == "d00"][0]
    assert entry["cvma_raw"] == ledger["expected_cvma"]["value"]
    assert entry["counts"]["misses"] == ledger["totals"]["misses"]
    assert entry["counts"]["false_positives"] == ledger["totals"]["false_positives"]
    capsys.readouterr()


def test_evaluate_table_shows_ledger_value_as_percent(tmp_path, capsys):
    # 2 views x 20 identities x 1 frame gives 40 GT detections; the spec
    # (4 misses, 2 FPs, 1 cross-view pair) puts the accuracy at exactly 0.8
    spec_path = tmp_path / "errors.json"
    spec_path.write_text(
        json.dumps({"miss_count": 4, "fp_count": 2, "crossview_mismatch_count": 1})
    )
    rc = run(
        [
            "synth",
            "--views", 2,
            "--ids", 20,
            "--frames", 1,
            "--seed", 3,
            "--errors", spec_path,
            "--out", tmp_path / "work",
        ]
    )
    assert rc == 0
    rc = run(
        [
            "evaluate",
            "--manifest", tmp_path / "work" / "manifest.json",
            "--gt-dir", tmp_path / "work" / "gt",
            "--descriptions", tmp_path / "work" / "descriptions.json",
            "--predictions-root", tmp_path / "work" / "predictions",
        ]
    )
    assert rc == 0
    table = capsys.readouterr().out
    row = [line for line in table.splitlines() if line.startswith("d00")][0]
    assert "80.00" in row


def test_evaluate_zero_descriptions_marks_aggregate_undefined(tmp_path, capsys):
    scene = lane_scene(num_views=2, num_ids=2, num_frames=3)
    write_scene(scene, tmp_path / "manifest.json", tmp_path / "gt")
    (tmp_path / "descriptions.json").write_text("[]")
    rc = run(
        [
            "evaluate",
            "--manifest", tmp_path / "manifest.json",
            "--gt-dir", tmp_path / "gt",
            "--descriptions", tmp_path / "descriptions.json",
            "--predictions-root", tmp_path,
            "--out", tmp_path / "report.json",
        ]
    )
    assert rc == 0
    assert "aggregate undefined" in capsys.readouterr().out
    report = read_report(tmp_path / "report.json")
    assert report["aggregate"] == {"n_l": 0, "cvridf1": None, "cvrma": None}


def test_evaluate_missing_predictions_warns_and_scores_empty(workspace, tmp_path, capsys):
    rc = run(
        [
            "evaluate",
            "--manifest", workspace / "manifest.json",
            "--gt-dir", workspace / "gt",
            "--descriptions", workspace / "descriptions.json",
            "--predictions-root", tmp_path / "nothing-here",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "scoring as empty" in captured.err


def test_evaluate_missing_root_warns_for_each_description_in_order(workspace, tmp_path, capsys):
    capsys.readouterr()
    assert run(_evaluate_argv(workspace, tmp_path / "nothing-here", "--out", tmp_path / "r.json")) == 0
    captured = capsys.readouterr()
    assert captured.err == "".join(
        f"warning: no predictions for description {d!r}; scoring as empty\n" for d in ("d00", "d01")
    )
    assert captured.out.splitlines()[1:] == [
        "d00              0.00      0.00",
        "d01              0.00      0.00",
        "aggregate        0.00      0.00  (n_l=2)",
    ]


@pytest.mark.parametrize("where", ["root", "d01"])
def test_evaluate_rejects_a_predictions_path_that_is_a_file(workspace, tmp_path, capsys, where):
    """A file where a predictions directory belongs is a ParseError naming it; no report is written."""
    root = workspace / "tracks"
    named = root if where == "root" else root / "d01"
    shutil.rmtree(named)
    named.write_text("1,1,0.0,0.0,10.0,20.0\n")
    capsys.readouterr()
    assert run(_evaluate_argv(workspace, root, "--out", tmp_path / "report.json")) == 2
    assert capsys.readouterr() == ("", f"error: {named}: not a directory\n")
    assert not (tmp_path / "report.json").exists()


def test_evaluate_parses_and_scores_one_description_at_a_time(tmp_path, capsys, monkeypatch):
    """Each description is parsed, warned about and scored before the next one is read."""
    import cvrmot.cli as cli

    work = tmp_path / "work"
    assert run(["synth", "--views", 2, "--ids", 3, "--frames", 4, "--descriptions", 3, "--out", work]) == 0
    shutil.rmtree(work / "tracks" / "d01")
    capsys.readouterr()
    events = []

    def note(event):
        err = capsys.readouterr().err  # what was written to stderr since the last call
        if err:
            events.append(err)
        events.append(event)

    parse, evaluate = cli.parse_predictions, cli.evaluate_description

    def parse_stand_in(directory, num_views):
        note(("parse", Path(directory).name))
        return parse(directory, num_views)

    def evaluate_stand_in(scene, desc, tracks, config):
        note(("evaluate", desc.id))
        return evaluate(scene, desc, tracks, config)

    monkeypatch.setattr(cli, "parse_predictions", parse_stand_in)
    monkeypatch.setattr(cli, "evaluate_description", evaluate_stand_in)
    assert run(_evaluate_argv(work, work / "tracks")) == 0
    assert events == [
        ("parse", "d00"),
        ("evaluate", "d00"),
        "warning: no predictions for description 'd01'; scoring as empty\n",
        ("evaluate", "d01"),
        ("parse", "d02"),
        ("evaluate", "d02"),
    ]


def test_evaluate_has_no_jobs_flag(workspace, capsys):
    with pytest.raises(SystemExit) as exited:
        run(_evaluate_argv(workspace, workspace / "tracks", "--jobs", 2))
    assert exited.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_validate_clean_and_corrupt(tmp_path, capsys):
    scene = lane_scene(num_views=2, num_ids=2, num_frames=3)
    write_scene(scene, tmp_path / "manifest.json", tmp_path / "gt")
    assert run(["validate", "--manifest", tmp_path / "manifest.json", "--gt-dir", tmp_path / "gt"]) == 0
    assert "OK" in capsys.readouterr().out
    gt = tmp_path / "gt" / "view_00.csv"
    gt.write_text(gt.read_text() + "1,1,0.0,0.0,10.0,20.0\n")  # duplicate slot
    rc = run(["validate", "--manifest", tmp_path / "manifest.json", "--gt-dir", tmp_path / "gt"])
    assert rc == 2  # duplicate makes the scene unparseable
    assert "invalid scene" in capsys.readouterr().err


def test_validate_reports_out_of_range_frame(tmp_path, capsys):
    scene = generate_scene(2, 2, 3, seed=2)
    write_scene(scene, tmp_path / "manifest.json", tmp_path / "gt")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["frames_per_view"] = 2  # now frame 3 rows are out of range
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    rc = run(["validate", "--manifest", tmp_path / "manifest.json", "--gt-dir", tmp_path / "gt"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "out-of-range" in err


def test_validate_names_only_the_first_bad_attribute_word(workspace, capsys):
    path = workspace / "descriptions.json"
    entries = json.loads(path.read_text())
    entries[0]["attributes"]["coat"] = "plaid cape"
    entries[1]["attributes"]["shoes"] = "flippers"
    path.write_text(json.dumps(entries))
    capsys.readouterr()
    argv = ["validate", "--manifest", workspace / "manifest.json", "--gt-dir", workspace / "gt",
            "--descriptions", path]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "'plaid cape' is not a listed coat word" in captured.err
    assert "flippers" not in captured.err


def _break_duplicate(root):
    with open(root / "gt" / "view_00.csv", "a") as gt:
        gt.write("1,1,204.0,0.0,10.0,20.0\n")  # the first row of view 0 again


def _break_manifest(**changes):
    def apply(root):
        manifest = json.loads((root / "manifest.json").read_text())
        (root / "manifest.json").write_text(json.dumps({**manifest, **changes}))
        if changes.get("views") == 1:
            (root / "gt" / "view_01.csv").unlink()
    return apply


def _break_description(attributes=(), **changes):
    def apply(root):
        entry = json.loads((root / "descriptions.json").read_text())[0]
        entry["attributes"].update(attributes)
        (root / "descriptions.json").write_text(json.dumps([{**entry, **changes}]))
    return apply


# Each input violation a file can produce, and the one stderr line that names it.
VIOLATIONS = {
    "duplicate": (_break_duplicate, "manifest.json", "invalid scene: [duplicate] "
                  "duplicate detection at (view=0, frame=1, identity=1)"),
    "frame-past-end": (_break_manifest(frames_per_view=2), "manifest.json", "invalid scene: "
                       "[range] detection (view=0, frame=3, identity=1) has out-of-range frame"),
    "one-view": (_break_manifest(views=1), "manifest.json",
                 "invalid scene: [scene] num_views must be >= 2, got 1"),
    "no-frames": (_break_manifest(frames_per_view=0), "manifest.json",
                  "invalid scene: [scene] frames_per_view must be >= 1, got 0"),
    "unlisted-word": (_break_description(attributes={"coat": "plaid cape"}), "descriptions.json",
                      "invalid description 'd00': [vocabulary] "
                      "'plaid cape' is not a listed coat word"),
    "unknown-identity": (_break_description(referred_identities=[1, 99, 98]), "descriptions.json",
                         "invalid description 'd00': [referred-identity] "
                         "description 'd00' refers to unknown identity 98"),
    "word-then-identity": (_break_description(attributes={"shoes": "flippers"},
                                              referred_identities=[99]), "descriptions.json",
                           "invalid description 'd00': [vocabulary] "
                           "'flippers' is not a listed shoes word"),
}


@pytest.mark.parametrize("case", VIOLATIONS)
@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_each_input_violation_is_one_exact_error_line(tmp_path, capsys, command, case):
    scene = lane_scene(num_views=2, num_ids=2, num_frames=3)
    write_scene(scene, tmp_path / "manifest.json", tmp_path / "gt")
    write_descriptions([desc_for(scene, desc_id="d00")], tmp_path / "descriptions.json")
    argv = ["--manifest", tmp_path / "manifest.json", "--gt-dir", tmp_path / "gt",
            "--descriptions", tmp_path / "descriptions.json"]
    if command == "evaluate":
        argv += ["--predictions-root", tmp_path / "predictions"]
    assert run([command, *argv]) == 0
    breaks, named, message = VIOLATIONS[case]
    breaks(tmp_path)
    capsys.readouterr()
    assert run([command, *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {tmp_path / named}: {message}\n")


def test_evaluate_parse_failure_exits_nonzero(tmp_path, capsys):
    rc = run(
        [
            "evaluate",
            "--manifest", tmp_path / "missing.json",
            "--gt-dir", tmp_path,
            "--descriptions", tmp_path / "d.json",
            "--predictions-root", tmp_path,
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_overrides_flags(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t_hs": 1e9}))
    rc = run(
        [
            "filter",
            "--tracks", workspace / "tracks" / "d00",
            "--t-hs", 0.0,
            "--config", config,
            "--out", tmp_path / "out",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # the scores are all high (d00 refers to everyone), so the average branch
    # emits regardless of t_hs; verify the config knob reached the report echo
    rc = run(
        [
            "evaluate",
            "--manifest", workspace / "manifest.json",
            "--gt-dir", workspace / "gt",
            "--descriptions", workspace / "descriptions.json",
            "--predictions-root", tmp_path / "nothing",
            "--t-hs", 5.0,
            "--config", config,
            "--out", tmp_path / "echo.json",
        ]
    )
    assert rc == 0
    report = read_report(tmp_path / "echo.json")
    assert report["config"]["t_hs"] == 1e9
    capsys.readouterr()


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    rc = run(
        [
            "filter",
            "--tracks", workspace / "tracks" / "d00",
            "--config", config,
            "--out", tmp_path / "out",
        ]
    )
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_filter_with_separate_scores_dir(workspace, tmp_path):
    tracks_dir = workspace / "tracks" / "d01"
    scores_dir = tmp_path / "scores"
    scores_dir.mkdir()
    for view in range(3):
        name = f"view_{view:02d}.csv"
        lines = []
        for line in (tracks_dir / name).read_text().splitlines():
            frame, ident, _x, _y, _w, _h, s_t, s_a = line.split(",")
            lines.append(f"{frame},{ident},{s_t},{s_a}")
        (scores_dir / name).write_text("\n".join(lines) + "\n")
    rc = run(
        [
            "filter",
            "--tracks", tracks_dir,
            "--scores", scores_dir,
            "--out", tmp_path / "out",
        ]
    )
    assert rc == 0
    direct = run(["filter", "--tracks", tracks_dir, "--out", tmp_path / "out2"])
    assert direct == 0
    for view in range(3):
        name = f"view_{view:02d}.csv"
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


def test_filter_rejects_a_score_row_without_a_detection(workspace, tmp_path, capsys):
    tracks_dir = workspace / "tracks" / "d01"
    scores_dir = tmp_path / "scores"
    scores_dir.mkdir()
    for view in range(3):
        name = f"view_{view:02d}.csv"
        rows = [row.split(",") for row in (tracks_dir / name).read_text().splitlines()]
        extra = ["999,1,0.5,0.5\n"] if view == 0 else []
        (scores_dir / name).write_text("".join([",".join(r[:2] + r[6:]) + "\n" for r in rows] + extra))
    argv = ["filter", "--tracks", tracks_dir, "--scores", scores_dir, "--out", tmp_path / "out"]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: score key (0, 999, 1) has no matching detection\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_scores_boxes_whose_areas_underflow(tmp_path, capsys):
    """Both areas of two 1e-200 boxes round to 0; their IoU is still exactly 1."""
    row = "1,1,0,0,1e-200,1e-200\n"
    manifest = dict(name="tiny", views=2, frames_per_view=1, image_width=640, image_height=480)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    for directory, views in ((tmp_path / "gt", (0, 1)), (tmp_path / "preds" / "d", (0,))):
        directory.mkdir(parents=True)
        for view in views:
            (directory / f"view_{view:02d}.csv").write_text(row)
    scene = lane_scene(num_views=2, num_ids=1, num_frames=1)
    write_descriptions([desc_for(scene)], tmp_path / "descriptions.json")
    capsys.readouterr()
    assert run(_evaluate_argv(tmp_path, tmp_path / "preds")) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["d", "66.67", "50.00"]


def _evaluate_argv(workspace, root, *extra):
    return [
        "evaluate",
        "--manifest", workspace / "manifest.json",
        "--gt-dir", workspace / "gt",
        "--descriptions", workspace / "descriptions.json",
        "--predictions-root", root,
        *extra,
    ]


def test_evaluate_rejects_duplicate_prediction_row(workspace, capsys):
    view = workspace / "tracks" / "d00" / "view_00.csv"
    lines = view.read_text().splitlines()
    view.write_text("\n".join(lines + lines[:1]) + "\n")
    assert run(_evaluate_argv(workspace, workspace / "tracks")) == 2
    err = capsys.readouterr().err
    assert f"view_00.csv:{len(lines) + 1}: duplicate row" in err
    assert "first at line 1" in err


@pytest.mark.parametrize("value", [0, -0.1, 1.5, "0.5", None])
def test_evaluate_rejects_iou_threshold_outside_unit_interval(workspace, tmp_path, capsys, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"iou_threshold": value}))
    argv = _evaluate_argv(workspace, workspace / "tracks", "--config", config)
    assert run(argv) == 2
    assert "iou_threshold" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["0", "nan", "inf", "1.01"])
def test_evaluate_rejects_iou_threshold_flag(workspace, capsys, flag):
    argv = _evaluate_argv(workspace, workspace / "tracks", "--iou-threshold", flag)
    assert run(argv) == 2
    assert "iou_threshold" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--jitter", "--hi", "--lo"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_synth_rejects_non_finite_score_flags(tmp_path, capsys, flag, value):
    argv = ["synth", "--views", 2, "--ids", 2, "--frames", 2, f"{flag}={value}", "--out", tmp_path / "w"]
    assert run(argv) == 2
    assert f"{flag} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize(
    "case, message",
    [
        ("jitter", "--jitter must be non-negative, got -0.2"),
        ("levels", "need 0 <= lo <= hi <= 1, got lo=0.9, hi=0.1"),
        ("errors", "requested 999 misses but only 12 slots are free"),
    ],
    ids=["jitter", "levels", "errors"],
)
def test_synth_writes_nothing_when_it_fails(tmp_path, capsys, case, message):
    """Every input error is found before the first write: no output directory is made."""
    extra = {"jitter": ["--jitter", "-0.2"], "levels": ["--hi", "0.1", "--lo", "0.9"]}.get(case)
    if case == "errors":
        spec = tmp_path / "errors.json"
        spec.write_text(json.dumps({"miss_count": 999}))
        extra = ["--errors", spec]
    argv = ["synth", "--views", 2, "--ids", 3, "--frames", 2, *extra, "--out", tmp_path / "w"]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "w").exists()


def test_filter_missing_score_message_is_unquoted(workspace, tmp_path, capsys):
    """The score of view 1's first row (frame 1, identity 1) is left out."""
    tracks_dir = workspace / "tracks" / "d00"
    scores_dir = tmp_path / "scores"
    scores_dir.mkdir()
    for view in range(3):
        name = f"view_{view:02d}.csv"
        rows = [row.split(",") for row in (tracks_dir / name).read_text().splitlines()]
        kept = rows[1:] if view == 1 else rows
        (scores_dir / name).write_text("".join(",".join(r[:2] + r[6:]) + "\n" for r in kept))
    argv = ["filter", "--tracks", tracks_dir, "--scores", scores_dir, "--out", tmp_path / "out"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: no score for detection (view=1, frame=1, identity=1)\n"


def test_filter_reads_views_after_a_gap(workspace, tmp_path):
    tracks = tmp_path / "gap"
    tracks.mkdir()
    for view in (0, 2):
        name = f"view_{view:02d}.csv"
        (tracks / name).write_bytes((workspace / "tracks" / "d00" / name).read_bytes())
    assert run(["filter", "--tracks", tracks, "--out", tmp_path / "out"]) == 0
    assert (tmp_path / "out" / "view_01.csv").read_text() == ""
    assert (tmp_path / "out" / "view_02.csv").read_text() != ""


def test_filter_rejects_misnamed_view_file(workspace, tmp_path, capsys):
    tracks = tmp_path / "misnamed"
    tracks.mkdir()
    (tracks / "view_2.csv").write_bytes((workspace / "tracks" / "d00" / "view_02.csv").read_bytes())
    assert run(["filter", "--tracks", tracks, "--out", tmp_path / "out"]) == 2
    assert "view_2.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, named",
    [
        ({"miss_count": 1.5}, "miss_count"),
        ({"fp_count": True}, "fp_count"),
        ({"temporal_switch_count": "1"}, "temporal_switch_count"),
        ({"bogus_count": 1}, "bogus_count"),
        ([1], "JSON object"),
    ],
)
def test_synth_rejects_mistyped_error_spec(tmp_path, capsys, spec, named):
    errors = tmp_path / "errors.json"
    errors.write_text(json.dumps(spec))
    argv = ["synth", "--views", 2, "--ids", 3, "--frames", 2, "--errors", errors,
            "--out", tmp_path / "work"]
    assert run(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


def _config_argv(command, workspace, tmp_path, *extra):
    if command == "filter":
        return ["filter", "--tracks", workspace / "tracks" / "d00", "--out", tmp_path / "out", *extra]
    if command == "synth":
        return ["synth", "--views", 2, "--ids", 2, "--frames", 2, "--out", tmp_path / "work", *extra]
    return _evaluate_argv(workspace, workspace / "tracks", *extra)


@pytest.mark.parametrize("command", ["filter", "evaluate", "synth"])
@pytest.mark.parametrize(
    "config, flags, named",
    [
        ('{"whole_track": "false"}', None, "whole_track"),
        ('{"alpha": null}', None, "alpha"),
        ("5", None, "config.json"),
        ('"abc"', None, "config.json"),
        ("not json", None, "config.json"),
        ('{"alpha": NaN}', ["--alpha", "nan"], "alpha"),
        ('{"t_hs": Infinity}', ["--t-hs", "inf"], "t_hs"),
        ('{"s1": -1}', ["--s1", "-1"], "s1"),
        ('{"t_ss": 0}', ["--t-ss", "0"], "t_ss"),
        ('{"seed": true}', None, "seed"),
        ('{"seed": 1.5}', ["--seed", "1.5"], "seed"),
    ],
)
def test_every_subcommand_rejects_bad_config_naming_the_key(
    workspace, tmp_path, capsys, command, config, flags, named
):
    path = tmp_path / "config.json"
    path.write_text(config)
    capsys.readouterr()
    for extra in (["--config", path], flags):
        if extra is None:
            continue
        try:
            code = run(_config_argv(command, workspace, tmp_path, *extra))
        except SystemExit as exc:  # argparse rejects a flag value it cannot convert
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert named in err
        if "--config" in extra:
            assert str(path) in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (PredictorConfig, {"whole_track": "false"}),
        (PredictorConfig, {"t_hs": math.inf}),
        (PredictorConfig, {"s1": True}),
        (FusionWeights, {"alpha": None}),
        (FusionWeights, {"beta": 10 ** 400}),
        (EvalConfig, {"iou_threshold": math.nan}),
        (RunConfig, {"seed": True}),
        (RunConfig, {"seed": 1.0}),
    ],
)
def test_config_dataclasses_reject_mistyped_fields(cls, kwargs):
    (key,) = kwargs
    with pytest.raises(ValueError, match=key):
        cls(**kwargs)


def test_config_flags_and_report_echo_for_defaults(workspace, tmp_path):
    assert run(_evaluate_argv(workspace, workspace / "tracks", "--out", tmp_path / "r.json")) == 0
    config = read_report(tmp_path / "r.json")["config"]
    assert json.dumps(config, sort_keys=True) == (
        '{"alpha": 0.01, "beta": 0.1, "iou_threshold": 0.5, "s1": 3.0, "s2": 3.0, '
        '"s3": 1.0, "seed": 0, "t_as": 0.5, "t_hs": 30.0, "t_ss": 0.75, "whole_track": false}'
    )
    flags = [a for key in config if key != "whole_track" for a in ("--" + key.replace("_", "-"), 1)]
    argv = _evaluate_argv(workspace, "root", *flags, "--whole-track")
    args = build_parser().parse_args([str(a) for a in argv])
    expected = {**dict.fromkeys(config, 1), "whole_track": True}
    assert {key: getattr(args, key) for key in config} == expected


def test_evaluate_rejects_prediction_view_past_manifest(workspace, capsys):
    tracks = workspace / "tracks" / "d00"
    (tracks / "view_03.csv").write_bytes((tracks / "view_00.csv").read_bytes())
    assert run(_evaluate_argv(workspace, workspace / "tracks")) == 2
    assert "view_03.csv: view 3 is outside the 3 views" in capsys.readouterr().err


def test_validate_rejects_ground_truth_view_past_manifest(workspace, capsys):
    gt = workspace / "gt"
    (gt / "view_03.csv").write_bytes((gt / "view_00.csv").read_bytes())
    assert run(["validate", "--manifest", workspace / "manifest.json", "--gt-dir", gt]) == 2
    assert "view_03.csv: view 3 is outside the 3 views" in capsys.readouterr().err


def test_filter_rejects_score_view_past_tracks(workspace, tmp_path, capsys):
    scores = tmp_path / "scores"
    scores.mkdir()
    for view in range(4):
        (scores / f"view_{view:02d}.csv").write_text("1,1,0.5,0.5\n")
    argv = ["filter", "--tracks", workspace / "tracks" / "d00", "--scores", scores,
            "--out", tmp_path / "out"]
    assert run(argv) == 2
    assert "view_03.csv: view 3 is outside the 3 views" in capsys.readouterr().err


def _with_repeated_key(path, key):
    """Rewrite the JSON object (or the first object of a list) in ``path`` with ``key`` twice."""
    raw = json.loads(path.read_text())
    target = raw[0] if isinstance(raw, list) else raw
    text = json.dumps(target)
    repeated = text[:-1] + f", {json.dumps(key)}: {json.dumps(target[key])}}}"
    if isinstance(raw, list):
        repeated = "[" + ", ".join([repeated] + [json.dumps(e) for e in raw[1:]]) + "]"
    path.write_text(repeated)


@pytest.mark.parametrize("target", ["config", "manifest", "descriptions", "errors"])
def test_json_files_reject_a_repeated_key(workspace, tmp_path, capsys, target):
    if target == "config":
        path = tmp_path / "config.json"
        path.write_text('{"iou_threshold": 0.3, "iou_threshold": 0.9}')
        argv, key = _evaluate_argv(workspace, workspace / "tracks", "--config", path), "iou_threshold"
    elif target == "manifest":
        path, key = workspace / "manifest.json", "views"
        argv = ["validate", "--manifest", path, "--gt-dir", workspace / "gt"]
    elif target == "descriptions":
        path, key = workspace / "descriptions.json", "referred_identities"
        argv = ["validate", "--manifest", workspace / "manifest.json", "--gt-dir", workspace / "gt",
                "--descriptions", path]
    else:
        path, key = tmp_path / "errors.json", "miss_count"
        path.write_text('{"miss_count": 1, "fp_count": 0, "miss_count": 2}')
        argv = ["synth", "--views", 2, "--ids", 2, "--frames", 2, "--errors", path,
                "--out", tmp_path / "work"]
    if target in ("manifest", "descriptions"):
        _with_repeated_key(path, key)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: duplicate key {key!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("token", ["1_0.0", "٢", "３"])
def test_filter_rejects_non_ascii_or_underscore_numbers(workspace, tmp_path, capsys, token):
    tracks = tmp_path / "tracks"
    tracks.mkdir()
    (tracks / "view_00.csv").write_text(f"1,1,10.0,10.0,5.0,5.0\n2,1,{token},10.0,5.0,5.0\n", "utf-8")
    assert run(["filter", "--tracks", tracks, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"view_00.csv:2: bad x: {token!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "validate"])
def test_repeated_description_id_is_rejected(workspace, capsys, command):
    path = workspace / "descriptions.json"
    raw = json.loads(path.read_text())
    raw[1]["id"] = raw[0]["id"]
    path.write_text(json.dumps(raw))
    if command == "evaluate":
        argv = _evaluate_argv(workspace, workspace / "tracks")
    else:
        argv = ["validate", "--manifest", workspace / "manifest.json", "--gt-dir",
                workspace / "gt", "--descriptions", path]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: entry 1 repeats description id 'd00' (first in entry 0)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bad_id", ["", ".", "..", "a/b", "a\\b", "a\0b"],
    ids=["empty", "dot", "dotdot", "slash", "backslash", "nul"],
)
def test_description_id_must_be_a_plain_directory_name(workspace, capsys, bad_id):
    path = workspace / "descriptions.json"
    raw = json.loads(path.read_text())
    raw[1]["id"] = bad_id
    path.write_text(json.dumps(raw))
    validate = ["validate", "--manifest", workspace / "manifest.json", "--gt-dir",
                workspace / "gt", "--descriptions", path]
    for argv in (_evaluate_argv(workspace, workspace / "tracks"), validate):
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}: entry 1 id {bad_id!r} is not a plain directory name" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("side, value", [("image_width", -5), ("image_height", 0)])
def test_manifest_image_size_below_one_is_rejected(workspace, capsys, side, value):
    path = workspace / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[side] = value
    path.write_text(json.dumps(manifest))
    validate = ["validate", "--manifest", path, "--gt-dir", workspace / "gt"]
    for argv in (validate, _evaluate_argv(workspace, workspace / "tracks")):
        capsys.readouterr()
        assert run(argv) == 2
        out = capsys.readouterr()
        assert f"error: {path}: invalid scene: [scene] {side} must be >= 1, got {value}" in out.err
        assert "OK" not in out.out


def _argparse_exit(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends in ``SystemExit``."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


COMMANDS = ["evaluate", "filter", "synth", "validate"]


@pytest.mark.parametrize(
    "argv",
    [[command, "--help"] for command in COMMANDS]
    + [[command] for command in COMMANDS]
    + [["--help"], ["no-such-command"], ["evaluate", "--no-such-flag"]],
)
def test_main_parses_like_the_full_parser(argv, capsys):
    """``main`` builds only the named subcommand's flags; help and errors are the same."""
    full = _argparse_exit(build_parser().parse_args, argv, capsys)
    assert _argparse_exit(main, argv, capsys) == full
    if argv == ["--help"]:
        assert "{evaluate,filter,synth,validate}" in full[1]
    if argv == ["no-such-command"]:
        assert full[0] == 2 and "invalid choice: 'no-such-command'" in full[2]


def _console_env():
    """This environment with ``src`` first on the path and ``PYTHONUNBUFFERED`` removed.

    Without that variable a child's piped stdout is block-buffered, as in a
    shell pipeline, so output that is never flushed would go missing.
    """
    src = str(Path(cvrmot.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def _console(*argv, script=None):
    """``python -m cvrmot.cli argv``, or ``python -c script``, in a new interpreter."""
    args = ["-c", script] if script else ["-m", "cvrmot.cli", *map(str, argv)]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_console_env(), timeout=120)


def test_console_entry_runs_the_pipeline_like_main(tmp_path, capsys):
    work = tmp_path / "work"
    synth = _console("synth", "--views", 2, "--ids", 3, "--frames", 6, "--descriptions", 2,
                     "--out", work)
    assert synth.returncode == 0, synth.stderr
    for desc_id in ("d00", "d01"):
        filtered = _console("filter", "--tracks", work / "tracks" / desc_id,
                            "--out", work / "filtered" / desc_id)
        assert filtered.returncode == 0, filtered.stderr
        assert filtered.stdout.startswith("kept ")
    argv = _evaluate_argv(work, work / "filtered")
    evaluated = _console(*argv, "--out", tmp_path / "console.json")
    assert evaluated.returncode == 0, evaluated.stderr
    lines = evaluated.stdout.splitlines()
    assert lines[0].split() == ["description", "CVIDF1", "CVMA"]
    assert [line.split()[0] for line in lines[1:3]] == ["d00", "d01"]
    assert lines[-1].startswith("aggregate") and lines[-1].endswith("(n_l=2)")
    capsys.readouterr()
    assert run([*argv, "--out", tmp_path / "main.json"]) == 0
    assert capsys.readouterr().out == evaluated.stdout
    assert (tmp_path / "console.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_console_entry_errors_exit_2_without_a_traceback(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{", "utf-8")
    parse_error = _console("validate", "--manifest", manifest, "--gt-dir", tmp_path)
    usage_error = _console("evaluate", "--manifest", manifest)
    for done in (parse_error, usage_error):
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
    assert parse_error.stderr.startswith(f"error: {manifest}: invalid JSON: ")
    assert "the following arguments are required: --gt-dir" in usage_error.stderr


def _validate_argv(tmp_path):
    """``validate`` argv for a small lane scene written under ``tmp_path``."""
    write_scene(lane_scene(), tmp_path / "manifest.json", tmp_path / "gt")
    return ["validate", "--manifest", tmp_path / "manifest.json", "--gt-dir", tmp_path / "gt"]


def test_console_entry_freezes_the_collector_only_at_exit(tmp_path):
    """``console_main`` freezes the heap after ``main`` returns; ``atexit`` still runs."""
    script = (
        "import atexit, gc, sys\n"
        "from cvrmot.cli import console_main\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, gc.isenabled()))\n"
        f"sys.argv = {['cvrmot', *map(str, _validate_argv(tmp_path))]!r}\n"
        "console_main()\n"
    )
    done = _console(script=script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["OK", "frozen True True"]


def test_main_leaves_the_collector_alone(workspace, tmp_path, capsys):
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    assert run(_evaluate_argv(workspace, workspace / "tracks")) == 0
    assert run(_validate_argv(tmp_path)) == 0
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_console_entry_pipes_the_whole_output_of_filter_and_evaluate(workspace, tmp_path, capsys):
    filter_argv = ["filter", "--tracks", workspace / "tracks" / "d00", "--out", tmp_path / "f"]
    evaluate_argv = _evaluate_argv(workspace, workspace / "tracks")
    for argv in (filter_argv, evaluate_argv):
        done = _console(*argv)
        assert done.returncode == 0, done.stderr
        capsys.readouterr()
        assert run(argv) == 0
        assert done.stdout == capsys.readouterr().out != ""


MAIN_RETURNS_3 = (
    "from cvrmot import cli\n"
    "def main():\n"
    "    print('OK')\n"
    "    return 3\n"
    "cli.main = main\n"
    "cli.console_main()\n"
)


@pytest.mark.parametrize(
    "script, status", [(None, 0), (MAIN_RETURNS_3, 3)], ids=["validate", "main-3"]
)
def test_console_entry_exits_with_mains_status(tmp_path, script, status):
    """Statuses 0 and 3; ``test_console_entry_errors_exit_2_without_a_traceback`` checks 2."""
    done = _console(*_validate_argv(tmp_path), script=script)
    assert done.returncode == status, done.stderr
    assert done.stdout == "OK\n"


def test_console_entry_on_a_closed_stdout_pipe_exits_120(workspace, tmp_path):
    """The failed flush falls back to the interpreter's own exit and its message."""
    argv = [*_evaluate_argv(workspace, workspace / "tracks"), "--out", tmp_path / "r.json"]
    env = {**_console_env(), "PYTHONIOENCODING": "utf-8"}
    child = subprocess.Popen([sys.executable, "-m", "cvrmot.cli", *map(str, argv)], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()  # before the child prints anything: nothing reads its stdout
    with child.stderr:
        stderr = child.stderr.read().decode()
    assert child.wait(timeout=120) == 120
    assert stderr == (
        "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n"
        "BrokenPipeError: [Errno 32] Broken pipe\n"
    )
    assert read_report(tmp_path / "r.json")["aggregate"]["n_l"] == 2


def _cycles_left(argv):
    """Unreachable objects ``gc.collect`` finds after ``main(argv)`` ran with the collector off."""
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == 0
    finally:
        gc.enable()
    return gc.collect()


def test_a_run_with_the_collector_off_leaves_the_same_few_cycles_at_any_size(tmp_path, capsys):
    """``console_main`` keeps the collector off; what that leaves must not grow with the input."""
    left = []
    for ids in (4, 16):  # the second scene has 4x the boxes
        work = tmp_path / f"ids{ids}"
        assert run(["synth", "--views", 3, "--ids", ids, "--frames", 10, "--descriptions", 2,
                    "--seed", 5, "--jitter", 0.2, "--out", work]) == 0
        left.append([
            _cycles_left(["filter", "--tracks", work / "tracks" / desc_id,
                          "--out", work / "filtered" / desc_id])
            for desc_id in ("d00", "d01")
        ])
        left[-1].append(_cycles_left([*_evaluate_argv(work, work / "filtered"),
                                      "--out", work / "report.json"]))
    assert left[0] == left[1]
    assert max(left[0]) < 1000
