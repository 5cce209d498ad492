"""Byte-identity guard for ``cvrmot synth``: each shape's whole output tree is pinned.

The digests were computed before synth drew each score level once and
picked every description's rows from shared lines; any change to a file's
bytes or to the set of files fails here. A tree's digest covers each file's
relative name and contents, in sorted name order. The "border-clamps" shape
was added when synth began printing each box and score record once; its
digest was computed on the code before that change, with no source edited.
The two shapes that write a ``ledger.json`` were re-pinned when the ledger
dropped its ``expected_id`` key; a ``diff -r`` against the earlier trees
showed that key as the only change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cvrmot.cli import main

LEDGER_SPARSE_ERRORS = {
    "miss_count": 50, "fp_count": 25, "temporal_switch_count": 6, "crossview_mismatch_count": 12,
}

# name -> (synth flags, error spec or None, tree SHA-256)
SHAPES = {
    "many-queries": (
        ["--views", 3, "--ids", 2, "--frames", 100, "--descriptions", 8, "--jitter", 0.2,
         "--seed", 1],
        {},
        "1479fded607aeadc1bc92fa62fdbec85fa0680e1b8f39bcc1bed1de237ee49f9",
    ),
    "ledger-sparse": (
        ["--views", 4, "--ids", 60, "--frames", 10, "--seed", 1],
        LEDGER_SPARSE_ERRORS,
        "71b527ff951cb22b8e31742c17cd168aed408a7e05ccca3b0430d86bbc241daf",
    ),
    # One identity: every description refers to it, so only the hi level is drawn.
    "one-identity": (
        ["--views", 2, "--ids", 1, "--frames", 6, "--descriptions", 3, "--jitter", 0.3,
         "--seed", 4],
        None,
        "2354c243d973d803142c0f5e6b7f2d0efc94677ec32f3bc992661367389aa9b8",
    ),
    "hi-equals-lo": (
        ["--views", 2, "--ids", 4, "--frames", 8, "--descriptions", 4, "--jitter", 0.1,
         "--hi", 0.5, "--lo", 0.5, "--seed", 5],
        None,
        "db39fdfcebcda0ace453f3c34e6986d33315c29d4e1143352fcc735331184c45",
    ),
    # Offsets of up to 0.9 push scores past 0 and 1, so both clamps fire.
    "clamped": (
        ["--views", 3, "--ids", 5, "--frames", 10, "--descriptions", 5, "--jitter", 0.9,
         "--hi", 0.97, "--lo", 0.02, "--seed", 6],
        None,
        "ad98cb7fa4331ec6f0cd5ffa93c74af163fb8b959aca30d7dd52a9c9e72f25e7",
    ),
    # A small image and 200 frames: all four border clamps of generate_scene fire
    # (1,599 / 426 / 1,220 / 290 boxes), and the lo level prints 0.0 scores.
    "border-clamps": (
        ["--views", 3, "--ids", 6, "--frames", 200, "--image-width", 400,
         "--image-height", 300, "--descriptions", 3, "--jitter", 0.0, "--lo", 0.0, "--seed", 7],
        None,
        "4ad5e1a3c000712e8c378728fd7c7d3ba8a2979b348d75cd8208186a4312aa6d",
    ),
}


def tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", SHAPES)
def test_synth_tree_is_byte_identical(tmp_path, capsys, name):
    flags, errors, want = SHAPES[name]
    out = tmp_path / "scene"
    argv = ["synth", *flags, "--out", out]
    if errors is not None:
        spec = tmp_path / "errors.json"
        spec.write_text(json.dumps(errors))
        argv += ["--errors", spec]
    assert main([str(a) for a in argv]) == 0
    capsys.readouterr()
    assert tree_sha256(out) == want
