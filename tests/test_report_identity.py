"""Byte-identity guard: synth -> filter -> evaluate runs pin their reports.

The tiny run's digest was computed before the per-row reader and the y-gated
sweep landed; any change to the report's bytes (a count, a float's last digit,
a key, the layout) fails here. The same run is repeated under each other
Python that ``requires-python`` (>= 3.10) admits and that is on ``PATH``, a
pyenv shim included. The crowded run's identity components are wide enough
(up to 45 identities) to reach the bijection's Kuhn–Munkres solve; its digest
was computed before the bijection stopped going through ``solve_lap``.
"""

import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from cvrmot import aggregate, build_report
from cvrmot.cli import main
from cvrmot.metrics import DescriptionResult, IdMeasures, MetricCounts

from helpers import crowded_pipeline

REPORT_SHA256 = "809af3882b56d114784ec8bc784c813fed5a40a511d0dd232d84d4cdaaf1c015"
CROWDED_SHA256 = "34fc6e26b00580a61bb323c7c0b4fe4d748aaf38c6d33629705b9f9ef7ae1f7b"
SRC = Path(__file__).resolve().parent.parent / "src"
FRAME_KEYS = ("frame", "m", "fp", "mme", "gt")  # a report's frame row, in MetricCounts order


def _pipeline(tmp_path):
    """The CLI argument lists of the run, in order, and the report it writes."""
    scene = tmp_path / "scene"
    errors = tmp_path / "errors.json"
    errors.write_text(json.dumps({
        "miss_count": 4, "fp_count": 3, "temporal_switch_count": 1, "crossview_mismatch_count": 2,
    }))
    synth = ["synth", "--views", "3", "--ids", "6", "--frames", "12", "--descriptions", "3",
             "--jitter", "0.2", "--seed", "11", "--errors", errors, "--out", scene]
    # d00 keeps the perturbed predictions; d01 and d02 are the filtered tracks.
    root = scene / "predictions"
    filters = [
        ["filter", "--tracks", scene / "tracks" / desc_id, "--out", root / desc_id]
        for desc_id in ("d01", "d02")
    ]
    report = tmp_path / "report.json"
    evaluate = ["evaluate", "--manifest", scene / "manifest.json", "--gt-dir", scene / "gt",
                "--descriptions", scene / "descriptions.json", "--predictions-root", root,
                "--out", report]
    return [[str(a) for a in argv] for argv in (synth, *filters, evaluate)], report


def test_tiny_pipeline_report_is_byte_identical(tmp_path, capsys):
    argvs, report = _pipeline(tmp_path)
    for argv in argvs:
        assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256


def test_crowded_pipeline_report_is_byte_identical(tmp_path, capsys):
    """40 identities in 400 x 300 images: d00 reads CVIDF1 0.9591 with 16 mismatches."""
    argvs, report = crowded_pipeline(tmp_path)
    for argv in argvs:
        assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CROWDED_SHA256


def _interpreter_env(executable, python):
    """An environment in which ``executable`` starts, or None.

    A pyenv shim on PATH may start only with ``PYENV_VERSION`` naming a version
    that provides it; ``pyenv whence`` lists those versions.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if not subprocess.run([executable, "-c", ""], capture_output=True, env=env).returncode:
        return env
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    whence = subprocess.run([pyenv, "whence", python], capture_output=True, text=True)
    for version in whence.stdout.split():
        env["PYENV_VERSION"] = version
        if not subprocess.run([executable, "-c", ""], capture_output=True, env=env).returncode:
            return env
    return None


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_tiny_pipeline_report_is_the_same_under_each_python(tmp_path, python):
    """Each run is ``python -B -m cvrmot.cli`` from ``src/``; an absent interpreter is skipped."""
    executable = shutil.which(python)
    env = executable and _interpreter_env(executable, python)
    if not env:
        pytest.skip(f"{python} is not available")
    argvs, report = _pipeline(tmp_path)
    for argv in argvs:
        child = subprocess.run([executable, "-B", "-m", "cvrmot.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (child.returncode, child.stderr) == (0, "")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256


# Reports of the edge cases whose rules live in the metric helpers; taken
# before ``cvma_exact``, ``cvidf1_exact`` and ``aggregate`` applied them. The
# no-prediction case was re-taken when ``cvidp`` and ``cvidr`` took F1's empty
# case (1 with no tally at all): only those two values changed, from 0.0 to 1.0.
EDGE_SHA256 = {
    "no-descriptions": "b4056a05eb1282c64bd576626987ade74aef1d9144ed7b7c2e62a693e564caba",
    "nobody-with-predictions": "ff549d514eb3cb930ae0ea988d35d9fe8d2e894011880043e9bab66ba75911bb",
    "nobody-without-predictions": "e8a8b25bc41b9c6d6e062e940f58f804f69d337adb0fb3cea4185f4197700e0e",
}
NOBODY = {"id": "nobody", "text": "A person.", "attributes": {}, "referred_identities": []}


def _edge_report(tmp_path, case):
    """No description (``n_l: 0``), or one referring to nobody, scored with or without tracks.

    With predictions, the perturbed tracks of the tiny run are every one a false positive.
    """
    argvs, _ = _pipeline(tmp_path)
    assert main(argvs[0]) == 0
    scene, root, report = tmp_path / "scene", tmp_path / "root", tmp_path / "edge.json"
    descriptions = tmp_path / "descriptions.json"
    descriptions.write_text(json.dumps([] if case == "no-descriptions" else [NOBODY]))
    if case == "nobody-with-predictions":
        shutil.copytree(scene / "predictions" / "d00", root / "nobody")
    root.mkdir(exist_ok=True)
    argv = ["evaluate", "--manifest", scene / "manifest.json", "--gt-dir", scene / "gt",
            "--descriptions", descriptions, "--predictions-root", root, "--out", report]
    assert main([str(a) for a in argv]) == 0
    return report


@pytest.mark.parametrize("case", EDGE_SHA256)
def test_edge_case_report_is_byte_identical(tmp_path, capsys, case):
    report = _edge_report(tmp_path, case)
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == EDGE_SHA256[case]


@pytest.mark.parametrize("case", ["tiny", "crowded", *EDGE_SHA256])
def test_metric_helpers_give_the_reported_numbers(tmp_path, capsys, case):
    """Each description rebuilt from the report's integers gives back the whole report."""
    if case in ("tiny", "crowded"):
        argvs, path = (_pipeline if case == "tiny" else crowded_pipeline)(tmp_path)
        for argv in argvs:
            assert main(argv) == 0
    else:
        path = _edge_report(tmp_path, case)
    capsys.readouterr()
    report = json.loads(path.read_text())
    results = []
    for entry in report["descriptions"]:
        frames = entry["counts"]["frames"]
        counts = MetricCounts(*(tuple(row[key] for row in frames) for key in FRAME_KEYS))
        measures = IdMeasures(*(entry["id_measures"][key] for key in IdMeasures._fields))
        results.append(DescriptionResult(entry["id"], counts, measures))
    assert build_report(results, aggregate(results), report["config"]) == report
