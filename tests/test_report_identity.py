"""Byte-identity guard: synth -> filter -> evaluate runs pin their reports.

The tiny run's digest was computed before the per-row reader and the y-gated
sweep landed; any change to the report's bytes (a count, a float's last digit,
a key, the layout) fails here. The same run is repeated under each other
Python that ``requires-python`` (>= 3.10) admits and that is on ``PATH``. The
crowded run's identity components are wide enough (up to 45 identities) to
reach the bijection's shortest-path solve; its digest was computed before the
bijection stopped going through ``solve_lap``.
"""

import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from cvrmot.cli import main

REPORT_SHA256 = "809af3882b56d114784ec8bc784c813fed5a40a511d0dd232d84d4cdaaf1c015"
CROWDED_SHA256 = "34fc6e26b00580a61bb323c7c0b4fe4d748aaf38c6d33629705b9f9ef7ae1f7b"
SRC = Path(__file__).resolve().parent.parent / "src"


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
    scene = tmp_path / "scene"
    errors = tmp_path / "errors.json"
    errors.write_text(json.dumps(
        {"miss_count": 20, "temporal_switch_count": 4, "crossview_mismatch_count": 4}
    ))
    root, report = scene / "predictions", tmp_path / "report.json"
    argvs = [
        ["synth", "--views", "3", "--ids", "40", "--frames", "20", "--image-width", "400",
         "--image-height", "300", "--descriptions", "2", "--jitter", "0.2", "--seed", "5",
         "--errors", errors, "--out", scene],
        ["filter", "--tracks", scene / "tracks" / "d01", "--out", root / "d01"],
        ["evaluate", "--manifest", scene / "manifest.json", "--gt-dir", scene / "gt",
         "--descriptions", scene / "descriptions.json", "--predictions-root", root, "--out", report],
    ]
    for argv in argvs:
        assert main([str(a) for a in argv]) == 0
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CROWDED_SHA256


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_tiny_pipeline_report_is_the_same_under_each_python(tmp_path, python):
    """Each run is ``python -B -m cvrmot.cli`` from ``src/``; an absent interpreter is skipped."""
    executable = shutil.which(python)
    # A version manager's shim can be on PATH without the version it runs.
    if executable is None or subprocess.run([executable, "-c", ""], capture_output=True).returncode:
        pytest.skip(f"{python} is not available")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argvs, report = _pipeline(tmp_path)
    for argv in argvs:
        child = subprocess.run([executable, "-B", "-m", "cvrmot.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (child.returncode, child.stderr) == (0, "")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256
