"""Byte-identity guard: a tiny synth -> filter -> evaluate run pins its report.

The digest was computed before the per-row reader and the y-gated sweep
landed; any change to the report's bytes (a count, a float's last digit, a
key, the layout) fails here.
"""

import hashlib
import json

from cvrmot.cli import main

REPORT_SHA256 = "809af3882b56d114784ec8bc784c813fed5a40a511d0dd232d84d4cdaaf1c015"


def test_tiny_pipeline_report_is_byte_identical(tmp_path, capsys):
    scene = tmp_path / "scene"
    errors = tmp_path / "errors.json"
    errors.write_text(json.dumps({
        "miss_count": 4, "fp_count": 3, "temporal_switch_count": 1, "crossview_mismatch_count": 2,
    }))
    synth = ["synth", "--views", "3", "--ids", "6", "--frames", "12", "--descriptions", "3",
             "--jitter", "0.2", "--seed", "11", "--errors", errors, "--out", scene]
    assert main([str(a) for a in synth]) == 0
    # d00 keeps the perturbed predictions; d01 and d02 are the filtered tracks.
    root = scene / "predictions"
    for desc_id in ("d01", "d02"):
        argv = ["filter", "--tracks", scene / "tracks" / desc_id, "--out", root / desc_id]
        assert main([str(a) for a in argv]) == 0
    report = tmp_path / "report.json"
    argv = ["evaluate", "--manifest", scene / "manifest.json", "--gt-dir", scene / "gt",
            "--descriptions", scene / "descriptions.json", "--predictions-root", root,
            "--out", report]
    assert main([str(a) for a in argv]) == 0
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256
