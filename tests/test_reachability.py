"""Every function in ``cvrmot`` is reached by a subcommand, or listed here with its reason.

A fixed set of CLI runs goes through ``cli.main`` with ``sys.setprofile`` on
only inside each call, so fixture writes and imports reach nothing. Every
function code object in the package's modules is then either reached or in
``UNREACHED``. A new function must be reached by one of these runs or be
added to ``UNREACHED`` with its reason; a function deleted or newly reached
must leave it.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import cvrmot
from cvrmot.cli import main
from cvrmot.ingest import write_descriptions, write_scene

from helpers import crowded_pipeline, desc_for, lane_scene
from test_cli import VIOLATIONS
from test_synth_trees import split_scores

PACKAGE = Path(cvrmot.__file__).parent

LOSS = "the training-loss family; acceptance criterion 8 checks it"

# function -> why no CLI run reaches it
UNREACHED = {
    "cvrmot.__getattr__": "the `import cvrmot` library entry; the CLI imports submodules",
    "cvrmot.cli.console_main": "it ends its process; test_cli runs it in a child",
    "cvrmot.datamodel._where": "only validate_scene on hand-built tracks reaches it",
    "cvrmot.fusion_losses.fuse_features": "feature fusion; acceptance criterion 7 checks it",
    "cvrmot.fusion_losses.LossInputs._check": LOSS,
    "cvrmot.fusion_losses._check_prob_matrices": LOSS,
    "cvrmot.fusion_losses.loss_cmot": LOSS,
    "cvrmot.fusion_losses.grad_loss_cmot": LOSS,
    "cvrmot.fusion_losses.loss_referring": LOSS,
    "cvrmot.fusion_losses.loss_total": LOSS,
    "cvrmot.ingest._layout": "it runs at import",
    "cvrmot.ingest.read_report": "the report format's reader, for library callers and tests",
    "cvrmot.ingest.write_scene": "the scene format's writer, for library callers and tests",
    "cvrmot.ingest.write_scores": "the score format's writer, for library callers and tests",
    "cvrmot.metrics.count_events": "a library wrapper that bench/layers.py spans",
    "cvrmot.metrics.match_frame": "a library wrapper that bench/layers.py spans",
    "cvrmot.metrics.id_measures": "a library wrapper that bench/layers.py spans",
    "cvrmot.metrics.cvma": "exported float form of a result's CVMA",
    "cvrmot.metrics.cvidf1": "exported float form of CVIDF1; acceptance criterion 3 calls it",
}


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every function defined in the package.

    A function's code object has ``CO_NEWLOCALS`` set, where a module or class
    body has not; lambdas and comprehensions (``<...>`` names) are skipped.
    """
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "cvrmot" if path.stem == "__init__" else f"cvrmot.{path.stem}"
        importlib.import_module(module)  # so import-time calls fall outside the runs
        stack = [compile(path.read_text("utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                found[path.name, code.co_firstlineno] = f"{module}.{code.co_qualname}"
    return found


def test_every_unreached_function_is_listed_with_its_reason(tmp_path, capsys):
    functions = _functions()
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    def run(argv, status=0):
        sys.setprofile(record)
        try:
            got = main([str(a) for a in argv])
        finally:
            sys.setprofile(None)
        assert got == status, capsys.readouterr().err

    # synth --errors, filter and evaluate on a crowded scene: slots are contested
    argvs, _ = crowded_pipeline(tmp_path)
    for argv in argvs:
        run(argv)
    scene = tmp_path / "scene"
    split_scores(scene / "tracks" / "d00", tmp_path / "scores")
    run(["filter", "--tracks", scene / "tracks" / "d00", "--scores", tmp_path / "scores",
         "--out", tmp_path / "from-scores"])
    run(["validate", "--manifest", scene / "manifest.json", "--gt-dir", scene / "gt",
         "--descriptions", scene / "descriptions.json"])
    (tmp_path / "fp.json").write_text(json.dumps({"fp_count": 3}))  # far-box placement
    run(["synth", "--views", 2, "--ids", 3, "--frames", 4, "--errors", tmp_path / "fp.json",
         "--out", tmp_path / "fp"])
    for case, (breaks, _, _) in VIOLATIONS.items():
        root = tmp_path / case
        lanes = lane_scene(num_views=2, num_ids=2, num_frames=3)
        write_scene(lanes, root / "manifest.json", root / "gt")
        write_descriptions([desc_for(lanes, desc_id="d00")], root / "descriptions.json")
        breaks(root)
        run(["evaluate", "--manifest", root / "manifest.json", "--gt-dir", root / "gt",
             "--descriptions", root / "descriptions.json", "--predictions-root", root / "p"],
            status=2)
    capsys.readouterr()

    reached_keys = {(Path(c.co_filename).name, c.co_firstlineno) for c in reached
                    if Path(c.co_filename).parent == PACKAGE}
    unreached = {name for key, name in functions.items() if key not in reached_keys}
    assert len(set(functions.values())) == len(functions), "two functions share a name"
    assert unreached - UNREACHED.keys() == set(), "reached by no CLI run and not in UNREACHED"
    assert UNREACHED.keys() - unreached == set(), "in UNREACHED but reached, or gone"
